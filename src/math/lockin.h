// Lock-in (single-bin DFT) amplitude and phase estimation.
//
// The gate detectors work exactly like the paper's readout: a probe records
// the out-of-plane magnetization m_z(t) in the detection cell, and the
// complex amplitude at the excitation frequency f0 is extracted. The phase
// of that complex amplitude implements phase detection (Majority gate); its
// magnitude implements threshold detection (XOR gate).
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <vector>

#include "math/constants.h"

namespace swsim::math {

struct LockinResult {
  double amplitude = 0.0;  // |X(f0)| scaled so a pure sine of amplitude A -> A
  double phase = 0.0;      // radians in (-pi, pi]; phase of cos convention
  std::complex<double> phasor;  // amplitude * e^{i phase}
};

// Single-bin DFT sums at f0, the accumulate-and-finish core of lockin()
// and mag::LockinDemodulator: callers supply the sample times, and both
// agree to the bit on the same samples.
//   x(t) = A cos(w t + p)  =>  sum x cos = (n/2) A cos p,
//                              sum x sin = -(n/2) A sin p.
struct LockinSums {
  explicit LockinSums(double f0) : w(kTwoPi * f0) {}

  void add(double t, double x) {
    c += x * std::cos(w * t);
    s += x * std::sin(w * t);
  }
  // Amplitude and phase of the `n` samples added so far.
  LockinResult finish(std::size_t n) const;

  double w;         // reference angular frequency, 2 pi f0
  double c = 0.0;   // sum x cos(w t)
  double s = 0.0;   // sum x sin(w t)
};

// Estimates the complex amplitude of `samples` (uniformly spaced by dt,
// starting at t = t0) at frequency f0, i.e. fits  x(t) ~ A cos(2 pi f0 t + p).
//
// The estimate uses the samples over the longest whole number of periods that
// fits (discarding the ragged tail), which suppresses spectral leakage
// without windowing. Throws std::invalid_argument if fewer than one full
// period of samples is supplied or dt/f0 are non-positive.
LockinResult lockin(const std::vector<double>& samples, double dt, double f0,
                    double t0 = 0.0);

// Root-mean-square of a sample vector (0 for empty input).
double rms(const std::vector<double>& samples);

// Peak absolute value (0 for empty input).
double peak(const std::vector<double>& samples);

// Wraps an angle to (-pi, pi].
double wrap_phase(double radians);

// Absolute phase distance |a - b| after wrapping, in [0, pi].
double phase_distance(double a, double b);

}  // namespace swsim::math
