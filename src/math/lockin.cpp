#include "math/lockin.h"

#include <cmath>
#include <stdexcept>

#include "math/constants.h"

namespace swsim::math {

LockinResult lockin(const std::vector<double>& samples, double dt, double f0,
                    double t0) {
  if (!(dt > 0.0) || !(f0 > 0.0)) {
    throw std::invalid_argument("lockin: dt and f0 must be positive");
  }
  const double period = 1.0 / f0;
  const double total = static_cast<double>(samples.size()) * dt;
  const auto whole_periods = static_cast<std::size_t>(total / period);
  if (whole_periods == 0) {
    throw std::invalid_argument(
        "lockin: need at least one full period of samples");
  }
  const auto n = static_cast<std::size_t>(
      std::floor(static_cast<double>(whole_periods) * period / dt));

  LockinSums sums(f0);
  for (std::size_t i = 0; i < n; ++i) {
    sums.add(t0 + static_cast<double>(i) * dt, samples[i]);
  }
  return sums.finish(n);
}

LockinResult LockinSums::finish(std::size_t n) const {
  const double scale = 2.0 / static_cast<double>(n);
  const double re = c * scale;   // A cos p
  const double im = -s * scale;  // A sin p

  LockinResult r;
  r.amplitude = std::hypot(re, im);
  r.phase = (r.amplitude > 0.0) ? std::atan2(im, re) : 0.0;
  r.phasor = {re, im};
  return r;
}

double rms(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double acc = 0.0;
  for (double v : samples) acc += v * v;
  return std::sqrt(acc / static_cast<double>(samples.size()));
}

double peak(const std::vector<double>& samples) {
  double p = 0.0;
  for (double v : samples) p = std::max(p, std::fabs(v));
  return p;
}

double wrap_phase(double radians) {
  double w = std::fmod(radians + kPi, kTwoPi);
  if (w <= 0.0) w += kTwoPi;
  return w - kPi;
}

double phase_distance(double a, double b) {
  return std::fabs(wrap_phase(a - b));
}

}  // namespace swsim::math
