#include "mag/field_term.h"

#include <limits>

#include "obs/metrics.h"

namespace swsim::mag {

double FieldTerm::energy(const System&, const VectorField&) const {
  return std::numeric_limits<double>::quiet_NaN();
}

void FieldTerm::advance_step(double) {}

bool FieldTerm::compile_kernel(const System&, kernels::TermOp&) const {
  return false;
}

obs::Counter& FieldTerm::time_us() const {
  if (!time_us_) {
    time_us_ =
        &obs::MetricsRegistry::global().counter("mag.term." + name() + ".us");
  }
  return *time_us_;
}

}  // namespace swsim::mag
