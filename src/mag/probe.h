// Probes: time-series recorders attached to regions of the simulation.
//
// A RegionProbe mirrors the paper's detection cells: it records the
// region-averaged magnetization components every sample interval; detectors
// then run lock-in analysis on the m_x / m_z series (the precessing
// components carry the spin-wave signal).
//
// Two optional extensions turn a probe from a passive recorder into a live
// instrument:
//   * a memory bound (`max_samples`): on overflow the stored series is
//     decimated by 2 and the sampling interval doubled, so an arbitrarily
//     long solve keeps a uniformly spaced, bounded record;
//   * an armed LockinDemodulator: every recorded m_x sample is streamed
//     into an incremental quadrature demodulator at the drive frequency,
//     producing an amplitude/phase envelope *during* the run.
// Both keep the checkpoint/restore rewind path exact (see Checkpoint).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "mag/demod.h"
#include "mag/system.h"

namespace swsim::mag {

class RegionProbe {
 public:
  // region must be on the system grid; sample_dt > 0 is the recording
  // interval. max_samples bounds the stored series: 0 keeps every sample;
  // otherwise it must be an even count >= 8 (decimate-by-2 only preserves
  // uniform spacing when it fires on an even sample count). Throws
  // std::invalid_argument on an empty region or a bad bound.
  RegionProbe(std::string name, const swsim::math::Mask& region,
              double sample_dt, std::size_t max_samples = 0);

  const std::string& name() const { return name_; }
  // Current recording interval — doubles on every decimation.
  double sample_dt() const { return sample_dt_; }
  std::size_t max_samples() const { return max_samples_; }

  // Arms live demodulation at drive frequency f0: each recorded m_x sample
  // feeds a tumbling window of `window_samples`. Replaces any previous
  // demodulator and drops its envelope.
  void arm_demodulator(double f0, std::size_t window_samples);
  const LockinDemodulator* demodulator() const {
    return demod_ ? &*demod_ : nullptr;
  }

  // True when a sample is due at time t: maybe_record(t) would record.
  bool due(double t) const { return !(t + 1e-18 < next_sample_); }

  // Called by the simulation after each step; records when a sample is
  // due. Returns true when the recorded sample completed a demodulator
  // window (always false while no demodulator is armed). The region's
  // magnetic cells are found once per System, from its active-cell list.
  bool maybe_record(const System& sys, const VectorField& m, double t);

  const std::vector<double>& times() const { return t_; }
  const std::vector<double>& mx() const { return mx_; }
  const std::vector<double>& my() const { return my_; }
  const std::vector<double>& mz() const { return mz_; }

  std::size_t sample_count() const { return t_.size(); }
  void clear();

  // Rewind support for divergence recovery: checkpoint() captures the
  // recording position, restore() drops every sample taken since, so a
  // re-solve from the matching magnetization snapshot records the exact
  // same series a clean run would have. An unbounded probe only needs the
  // sample count; a bounded probe snapshots the stored series wholesale,
  // because a decimation after the checkpoint rewrites earlier samples
  // in place. The demodulator checkpoint rides along when armed.
  struct Checkpoint {
    std::size_t samples = 0;
    double next_sample = 0.0;
    double sample_dt = 0.0;
    bool full = false;  // true: t/mx/my/mz below hold a complete snapshot
    std::vector<double> t, mx, my, mz;
    LockinDemodulator::Checkpoint demod;
  };
  Checkpoint checkpoint() const;
  void restore(const Checkpoint& cp);

 private:
  void decimate();

  std::string name_;
  RegionCells cells_;  // the region and its magnetic cells per System
  double sample_dt_;
  double base_sample_dt_;
  std::size_t max_samples_;
  double next_sample_ = 0.0;
  std::vector<double> t_, mx_, my_, mz_;
  std::optional<LockinDemodulator> demod_;
};

}  // namespace swsim::mag
