#include "mag/demod.h"

#include <stdexcept>

namespace swsim::mag {

LockinDemodulator::LockinDemodulator(double f0, std::size_t window_samples)
    : f0_(f0), window_samples_(window_samples), sums_(f0) {
  if (!(f0 > 0.0)) {
    throw std::invalid_argument("LockinDemodulator: f0 must be > 0");
  }
  if (window_samples < 2) {
    throw std::invalid_argument(
        "LockinDemodulator: window must span at least 2 samples");
  }
}

bool LockinDemodulator::add_sample(double t, double x) {
  sums_.add(t, x);
  ++in_window_;
  if (in_window_ < window_samples_) return false;

  const math::LockinResult r = sums_.finish(window_samples_);
  t_.push_back(t);
  amplitude_.push_back(r.amplitude);
  phase_.push_back(r.phase);
  in_window_ = 0;
  sums_ = math::LockinSums(f0_);
  return true;
}

void LockinDemodulator::restore(const Checkpoint& cp) {
  if (cp.windows > t_.size() || cp.in_window >= window_samples_) {
    throw std::invalid_argument(
        "LockinDemodulator: checkpoint is ahead of the record");
  }
  t_.resize(cp.windows);
  amplitude_.resize(cp.windows);
  phase_.resize(cp.windows);
  in_window_ = cp.in_window;
  sums_.c = cp.c;
  sums_.s = cp.s;
}

void LockinDemodulator::clear() {
  t_.clear();
  amplitude_.clear();
  phase_.clear();
  in_window_ = 0;
  sums_ = math::LockinSums(f0_);
}

}  // namespace swsim::mag
