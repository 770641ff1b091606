// Incremental quadrature (lock-in) demodulation of a probe signal.
//
// The offline detectors (math/lockin.h) answer "what was the amplitude and
// phase at f0?" once, after a solve finishes. LockinDemodulator answers it
// *during* the run: samples are accumulated against cos/sin references into
// I/Q sums over tumbling windows of a fixed sample count, and each completed
// window appends one (t, amplitude, phase) point to the envelope — the live
// port signal that convergence tracking, streaming, and early stop consume.
//
// The per-window math is math::LockinSums, the accumulate-and-finish core
// math::lockin runs too (cos convention), so a window spanning whole
// periods of a pure tone reproduces the offline estimate.
//
// Rewind contract: the divergence-recovery path (Simulation::run_guarded)
// checkpoints probes and re-solves from a magnetization snapshot. A
// checkpoint captures the completed-window count *and* the partial I/Q
// accumulators; replaying the identical sample stream re-accumulates the
// identical doubles in the identical order, so a recovered run's envelope is
// bit-exact against a clean run's.
#pragma once

#include <cstddef>
#include <vector>

#include "math/lockin.h"

namespace swsim::mag {

class LockinDemodulator {
 public:
  // f0 > 0 is the reference (drive) frequency; window_samples >= 2 is the
  // tumbling-window length in samples. Throws std::invalid_argument.
  LockinDemodulator(double f0, std::size_t window_samples);

  double frequency() const { return f0_; }
  std::size_t window_samples() const { return window_samples_; }

  // Feeds one sample x(t). Returns true when this sample completed a
  // window (one envelope point was appended).
  bool add_sample(double t, double x);

  // Envelope series, one entry per completed window. times() holds the
  // timestamp of each window's last sample.
  const std::vector<double>& times() const { return t_; }
  const std::vector<double>& amplitude() const { return amplitude_; }
  const std::vector<double>& phase() const { return phase_; }
  std::size_t window_count() const { return t_.size(); }

  void clear();

  struct Checkpoint {
    std::size_t windows = 0;   // completed windows at checkpoint time
    std::size_t in_window = 0; // samples accumulated into the open window
    double c = 0.0;            // partial sum x cos(w t)
    double s = 0.0;            // partial sum x sin(w t)
  };
  Checkpoint checkpoint() const {
    return {t_.size(), in_window_, sums_.c, sums_.s};
  }
  // Drops every window completed since the checkpoint and restores the
  // open window's partial accumulators. Throws std::invalid_argument when
  // the checkpoint is ahead of the record.
  void restore(const Checkpoint& cp);

 private:
  double f0_;
  std::size_t window_samples_;
  std::size_t in_window_ = 0;
  math::LockinSums sums_;
  std::vector<double> t_, amplitude_, phase_;
};

}  // namespace swsim::mag
