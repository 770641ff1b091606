// Per-solve performance profile: the machine-readable record of *how fast*
// a run was, collected from the live MetricsRegistry plus the OS (peak RSS)
// and serialized to a versioned JSON schema ("swsim.profile/1").
//
// A RunProfile answers the questions the bench trajectory needs answered
// per data point: throughput (LLG steps/s), where field-assembly time went
// per term, whether the result cache helped, and how busy the thread pool
// actually was. The CLI writes one via `--profile-out <file>` on the
// engine commands.
//
// Everything here runs at end-of-run (never on a hot path). With metrics
// disarmed collect() reads a registry that recorded nothing and reports
// zeros.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace swsim::obs {

class JsonValue;

struct RunProfile {
  // Bumped whenever a field changes meaning; readers reject other schemas.
  static constexpr const char* kSchema = "swsim.profile/1";

  double wall_seconds = 0.0;    // caller-measured wall time of the solve
  std::uint64_t llg_steps = 0;  // mag.llg.steps
  std::uint64_t field_evals = 0;

  // Throughput; non-finite values (0-second walls, overflow) serialize as 0.
  double steps_per_second = 0.0;

  // Fraction of summed per-term field-assembly time, by term name (from the
  // mag.term.<name>.us counters); fractions sum to ~1 when any term ran.
  std::map<std::string, double> term_share;

  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_hit_rate = 0.0;

  std::uint64_t pool_threads = 0;
  std::uint64_t pool_busy_us = 0;
  // busy_us / (threads * wall_us): 1.0 = every worker busy the whole run.
  double pool_utilization = 0.0;

  std::uint64_t jobs_done = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_retried = 0;

  // Physics telemetry (PhysicsRegistry snapshot): what the live lock-in
  // probes saw during the solve. Empty/zero when no probe was armed or
  // with metrics disarmed. The block is *optional* on the reader side so
  // documents from older builds parse.
  struct ProbePhysics {
    std::string name;
    std::uint64_t windows = 0;
    double amplitude = 0.0;      // last completed window
    double phase = 0.0;
    double converged_at = -1.0;  // seconds; < 0 = never converged
  };
  std::vector<ProbePhysics> physics_probes;  // sorted by name
  std::uint64_t physics_energy_samples = 0;
  double physics_total_energy_j = 0.0;
  double physics_exchange_energy_j = 0.0;
  std::uint64_t early_stop_saved_steps = 0;

  std::uint64_t peak_rss_bytes = 0;

  // Builds a profile from the global MetricsRegistry (snapshot reads — no
  // metrics are created as a side effect) and the process peak RSS.
  // `wall_seconds` comes from the caller; derived rates are guarded
  // against division by zero and non-finite results.
  static RunProfile collect(double wall_seconds);

  // Serializes to the versioned schema (compact JSON; NaN/inf are written
  // as 0, since from_json requires numbers). Parse the result with
  // obs::parse_json + from_json.
  std::string to_json() const;

  // Inverse of to_json(). Throws std::runtime_error naming the problem on
  // a missing/mismatched "schema" or a structurally wrong document.
  static RunProfile from_json(const JsonValue& root);
};

// Peak resident set size of this process in bytes (0 when unavailable).
std::uint64_t peak_rss_bytes();

}  // namespace swsim::obs
