// Shared bench driver: every bench/bench_*.cpp target runs through this
// harness so that all of them agree on warmup/repeat policy, robust
// statistics (min / median / MAD over steady-clock samples), and a
// machine-readable artifact — BENCH_<name>.json, schema "swsim.bench/1" —
// written next to the bench's existing CSV output.
//
// A bench main looks like:
//
//   int main(int argc, char** argv) {
//     swsim::bench::Harness h("fig1_dispersion", &argc, argv);
//     h.time_case("fdtd_sweep", [&] { run_sweep(); });
//     h.add_scalar("peak_frequency_ghz", f);
//     ... existing console tables / CSV writers, unchanged ...
//     return h.finish() ? 0 : 1;
//   }
//
// The harness strips its own flags from argc/argv before the bench sees
// them:
//
//   --quick          fewer repeats + benches may skip their slow half
//   --repeats N      timing samples per case          (default 5, quick 3)
//   --warmup N       untimed runs before sampling     (default 1)
//   --out-dir DIR    where BENCH_<name>.json is written (default ".")
//
// The JSON also records an environment fingerprint (git SHA, compiler,
// flags, build type, core count) so `swsim bench diff` can warn when two
// runs are not comparable.
//
// The second half of this header is the *reader*: parse_bench_json() and
// compare_benches(), the noise-aware comparison shared by `swsim bench
// diff`/`gate` and the unit tests. A case regresses when
//
//   cur.median - base.median > max(rel_tolerance * base.median,
//                                  mad_k * (base.mad + cur.mad))
//
// i.e. the slowdown must clear both a relative floor and the combined
// measurement noise; improvements are the symmetric condition.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace swsim::obs {
class JsonValue;
}

namespace swsim::bench {

// ---------------------------------------------------------------------------
// Robust sample statistics.

struct SampleStats {
  double min = 0.0;
  double median = 0.0;
  double mad = 0.0;  // median absolute deviation from the median
};

// Median/MAD of `samples` (empty input -> all zeros; input is copied, not
// reordered). Median of an even count is the mean of the middle pair.
SampleStats compute_stats(const std::vector<double>& samples);

// ---------------------------------------------------------------------------
// Environment fingerprint (values baked in at configure time, cores at run
// time).

struct EnvInfo {
  std::string git_sha;
  std::string compiler;    // "GNU 13.2.0"
  std::string flags;       // CMAKE_CXX_FLAGS_<BUILDTYPE>
  std::string build_type;  // "Release", ...
  unsigned cores = 0;
};

EnvInfo current_env();

// ---------------------------------------------------------------------------
// The writer.

class Harness {
 public:
  static constexpr const char* kSchema = "swsim.bench/1";

  // Parses and REMOVES harness flags from argc/argv. Throws
  // std::invalid_argument on a malformed flag value.
  Harness(std::string name, int* argc, char** argv);

  bool quick() const { return quick_; }
  int repeats() const { return repeats_; }
  int warmup() const { return warmup_; }
  const std::string& out_dir() const { return out_dir_; }

  // Times `fn` warmup()+repeats() times (first warmup() runs untimed) on
  // the steady clock and records the samples in seconds. When
  // `items_per_iter` > 0 an items-per-second figure (items / median
  // seconds) is derived for throughput display.
  void time_case(const std::string& case_name, const std::function<void()>& fn,
                 double items_per_iter = 0.0);

  // Records externally measured samples (unit is free-form, e.g. "s").
  // Use for one-shot heavy passes where re-running is too expensive:
  // a single sample gets mad = 0 and median = min = that sample.
  void record_samples(const std::string& case_name, const std::string& unit,
                      const std::vector<double>& samples,
                      double items_per_second = 0.0);

  // Records a named scalar result (figure-of-merit, speedup, count...).
  void add_scalar(const std::string& name, double value);

  // Serializes the run (schema swsim.bench/1).
  std::string to_json() const;

  // Writes to_json() to <out_dir>/BENCH_<name>.json and reports the path
  // on stdout. Returns false (message on stderr) on I/O failure.
  bool finish() const;

  const std::string& name() const { return name_; }

 private:
  struct Case {
    std::string unit;
    int warmup = 0;
    std::vector<double> samples;
    SampleStats stats;
    double items_per_second = 0.0;
  };

  std::string name_;
  bool quick_ = false;
  int repeats_ = 5;
  int warmup_ = 1;
  std::string out_dir_ = ".";
  std::vector<std::pair<std::string, Case>> cases_;  // insertion order
  std::vector<std::pair<std::string, double>> scalars_;
};

// Keeps a value alive past the optimizer so timed kernels are not deleted.
template <typename T>
inline void do_not_optimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// ---------------------------------------------------------------------------
// The reader + comparison (shared by `swsim bench diff/gate` and tests).

struct CaseStats {
  std::string unit;
  double min = 0.0;
  double median = 0.0;
  double mad = 0.0;
  double items_per_second = 0.0;
};

struct BenchDoc {
  std::string name;
  bool quick = false;
  EnvInfo env;
  std::map<std::string, CaseStats> cases;
  std::map<std::string, double> scalars;
};

// Throws std::runtime_error naming the problem on a wrong schema or a
// structurally invalid document.
BenchDoc parse_bench_json(const obs::JsonValue& root);
// Convenience: read + parse_json + parse_bench_json. Throws on I/O and
// parse errors alike ("<path>: <reason>").
BenchDoc load_bench_file(const std::string& path);

struct CompareOptions {
  double rel_tolerance = 0.05;  // 5% relative floor
  double mad_k = 3.0;           // noise multiplier on base.mad + cur.mad
};

enum class Verdict { kOk, kRegression, kImprovement, kNew, kMissing };

struct CaseDelta {
  std::string name;
  Verdict verdict = Verdict::kOk;
  double base_median = 0.0;
  double cur_median = 0.0;
  double threshold = 0.0;  // the slowdown (seconds) that would trip kRegression
};

struct CompareResult {
  std::vector<CaseDelta> deltas;  // name-sorted
  int regressions = 0;
  int improvements = 0;
};

// Case-by-case comparison of `cur` against `base` medians (time units:
// lower is better). Cases present on only one side are kNew/kMissing and
// never count as regressions.
CompareResult compare_benches(const BenchDoc& base, const BenchDoc& cur,
                              const CompareOptions& opts = {});

const char* verdict_name(Verdict v);

// ---------------------------------------------------------------------------
// Registry of bench targets, for `swsim bench list/run` (names match the
// bench_<name> binaries; slow ones are skipped by `run --quick-only`).

struct BenchTarget {
  const char* name;    // "fig1_dispersion" -> binary bench_fig1_dispersion
  const char* output;  // primary CSV the bench writes, for the docs table
  bool heavy;          // minutes-scale at full fidelity
};

const std::vector<BenchTarget>& bench_registry();

}  // namespace swsim::bench
