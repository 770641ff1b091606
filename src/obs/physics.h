// Physics health instrumentation: the bridge between the live lock-in
// envelopes the mag layer produces (mag/demod.h) and everything that wants
// to watch them — metrics gauges, the per-job "physics" block of
// swsim.profile/1, the serve-plane probe stream, and early stop.
//
// Three pieces live here:
//
//   * ConvergenceTracker — pure decision logic: has a port's envelope
//     settled within tolerance for N consecutive windows? This is
//     *unconditional* code (like serve's SloTracker): when `--early-stop`
//     is armed its verdict changes how long a solve runs, so it never
//     depends on metrics being armed.
//   * PhysicsRegistry — a global accumulator of per-probe window stats,
//     the energy series, and early-stop savings, read by
//     RunProfile::collect() into the "physics" block. Updates are gated on
//     obs::metrics_armed() internally, so the disarmed cost is one
//     relaxed load and the profile reports zeros.
//   * ProbeHub — a bounded fan-out of envelope frames to subscribers (the
//     serve plane's `probe.subscribe`). Publishing with no subscribers is
//     one relaxed load; a slow subscriber loses its *oldest* frames (with
//     a dropped counter) and can never block the solver.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <atomic>

namespace swsim::obs {

// When is an envelope "settled"? After `windows` consecutive window-to-
// window deltas with |dA| <= max(abs_floor, rel_tolerance * |A|) and a
// phase move <= phase_tolerance — but never before t >= min_time, which
// callers set to the wave transit time so a port that simply has not seen
// the wave yet (amplitude flat at zero) cannot count as decided.
struct ConvergencePolicy {
  double rel_tolerance = 0.02;    // relative amplitude tolerance per window
  double abs_floor = 1e-6;        // absolute amplitude tolerance floor
  double phase_tolerance = 0.05;  // radians per window
  int windows = 3;                // consecutive stable windows required
  double min_time = 0.0;          // seconds of simulated time before deciding
};

class ConvergenceTracker {
 public:
  explicit ConvergenceTracker(const ConvergencePolicy& policy);

  // Feeds one completed envelope window. Returns true exactly once: on the
  // window that decides convergence.
  bool add_window(double t, double amplitude, double phase);

  bool converged() const { return converged_; }
  // Simulated time of the deciding window; meaningless before converged().
  double converged_at() const { return converged_at_; }
  std::uint64_t windows_seen() const { return windows_seen_; }

  void clear();

  // Rewind support, mirroring RegionProbe::Checkpoint: the divergence-
  // recovery path restores trackers together with the probes they watch,
  // so a recovered run reports the same converged_at a clean run would.
  struct Checkpoint {
    std::uint64_t windows_seen = 0;
    int streak = 0;
    bool have_last = false;
    double last_amplitude = 0.0;
    double last_phase = 0.0;
    bool converged = false;
    double converged_at = 0.0;
  };
  Checkpoint checkpoint() const;
  void restore(const Checkpoint& cp);

 private:
  ConvergencePolicy policy_;
  std::uint64_t windows_seen_ = 0;
  int streak_ = 0;
  bool have_last_ = false;
  double last_amplitude_ = 0.0;
  double last_phase_ = 0.0;
  bool converged_ = false;
  double converged_at_ = 0.0;
};

// Global accumulator behind the swsim.profile/1 "physics" block.
class PhysicsRegistry {
 public:
  static PhysicsRegistry& global();

  struct ProbeStats {
    std::uint64_t windows = 0;
    double amplitude = 0.0;    // last completed window
    double phase = 0.0;
    double converged_at = -1.0;  // seconds; < 0 = not converged
  };
  struct Snapshot {
    std::map<std::string, ProbeStats> probes;
    std::uint64_t energy_samples = 0;
    double total_energy_j = 0.0;     // last recorded
    double exchange_energy_j = 0.0;  // last recorded (the magnon band carrier)
    std::uint64_t early_stop_saved_steps = 0;
  };

  // All recorders no-op unless obs::metrics_armed().
  void record_window(const std::string& probe, double amplitude, double phase);
  void record_converged(const std::string& probe, double t);
  void record_energy(double total_j, double exchange_j);
  void record_early_stop(std::uint64_t saved_steps);

  Snapshot snapshot() const;
  void reset();

 private:
  PhysicsRegistry() = default;
  mutable std::mutex mutex_;
  Snapshot state_;
};

// Fan-out of live envelope frames to bounded subscribers.
class ProbeHub {
 public:
  struct Frame {
    std::string job;    // solve label, e.g. "micromag MAJ3 101"
    std::string probe;  // port name, e.g. "O1"
    std::uint64_t window = 0;
    double t = 0.0;  // simulated seconds at window end
    double amplitude = 0.0;
    double phase = 0.0;
    bool converged = false;
    double converged_at = -1.0;
  };

  class Subscription {
   public:
    ~Subscription();
    Subscription(const Subscription&) = delete;
    Subscription& operator=(const Subscription&) = delete;

    // Blocks up to wait_s for the next frame. False on timeout.
    bool next(Frame* out, double wait_s);
    // Frames discarded because this subscriber fell behind its capacity.
    std::uint64_t dropped() const { return dropped_.load(); }

   private:
    friend class ProbeHub;
    Subscription(ProbeHub* hub, std::size_t capacity);
    void push(const Frame& frame);

    ProbeHub* hub_;
    const std::size_t capacity_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Frame> queue_;
    std::atomic<std::uint64_t> dropped_{0};
  };

  static ProbeHub& global();

  // One relaxed load: the publisher-side guard.
  bool active() const {
    return subscriber_count_.load(std::memory_order_relaxed) > 0;
  }

  // capacity bounds the per-subscriber queue; overflow drops the oldest
  // frame and bumps the subscriber's dropped counter.
  std::shared_ptr<Subscription> subscribe(std::size_t capacity = 256);

  // Copies the frame to every live subscriber. Callers should guard with
  // active() to keep the no-subscriber cost at one load.
  void publish(const Frame& frame);

 private:
  ProbeHub() = default;
  void unsubscribe(Subscription* sub);

  std::atomic<std::size_t> subscriber_count_{0};
  std::mutex mutex_;
  std::vector<Subscription*> subscribers_;
};

}  // namespace swsim::obs
