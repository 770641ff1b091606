// swbench: the repository benchmark binary.
//
// One process per run. It pins itself to a fixed CPU set, builds the
// workload's inputs from --seed, drives the library through the same public
// calls `swsim micromag` and `swsim serve` make, checks every output, and
// prints one JSON result line (end-to-end metrics untraced, per-layer
// metrics with --trace 1). See swbench/README.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/validator.h"
#include "engine/batch_runner.h"
#include "serve/protocol.h"

namespace swbench {

namespace core = swsim::core;
namespace engine = swsim::engine;
namespace serve = swsim::serve;

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test mode: one set-up instead of several, shorter warm-ups.
  bool short_mode = false;
  // Perturbs the expected outputs so the correctness check must fail.
  bool negative_control = false;
  std::string expected_digests;  // llg_maj pinned report-line digests
  std::string source_digest;     // tree digest computed by run.py
  std::string trace_out;         // Chrome trace_event JSON of the spans
};

// ------------------------------------------------------------------ clock

double now_s();  // steady clock, seconds

// --------------------------------------------------------------- inputs

// SplitMix64: the benchmark's own generator, so its inputs do not change
// when the program's RNG does.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  double uniform();                    // [0, 1)
  double uniform(double lo, double hi);
  std::size_t below(std::size_t n);    // [0, n)

 private:
  std::uint64_t s_;
};

// FNV-1a 64 over raw bytes (the benchmark's own output digest).
std::uint64_t digest(const std::string& bytes);

// ---------------------------------------------------------------- stats

// Linear-interpolation quantile (numpy's default); q in [0, 1].
double quantile(std::vector<double> v, double q);

// Median over `rounds` of the mean per-call time of `calls` calls to fn.
double seconds_per_call(int rounds, int calls, const std::function<void()>& fn);

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  std::uint64_t id = 0;      // request id (row pattern for LLG rows)
  std::uint64_t parent = 0;  // request id of the enclosing span, 0 = root
  double t0 = 0.0, t1 = 0.0; // steady seconds
  int tid = 0;               // client or worker lane
};

// In-memory span store, written once at exit. Spans past the cap are
// counted, not kept, so a long traced run stays a few megabytes.
class SpanLog {
 public:
  static constexpr std::size_t kCap = 200000;
  void add(Span s);
  std::size_t size() const;
  std::size_t dropped() const;
  bool write_chrome_json(const std::string& path, double t_origin,
                         std::string* error) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

// ------------------------------------------------------------ placement

std::vector<int> allowed_cpus();
// n CPUs from `allowed`, highest-numbered first, CPU 0 only if needed.
std::vector<int> pick_cpus(const std::vector<int>& allowed, std::size_t n);
bool pin_process(const std::vector<int>& cpus, std::string* error);
std::string cpu_list(const std::vector<int>& cpus);

// /proc/stat and getrusage counters, sampled around the measured phase.
struct HostSample {
  std::uint64_t pinned_busy = 0, pinned_steal = 0;
  std::uint64_t host_busy = 0, host_steal = 0;
  long nivcsw = 0, nvcsw = 0;
};
HostSample sample_host(const std::vector<int>& cpus);
double peak_rss_mb();  // VmHWM of this process

// -------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return metrics_; }
  double get(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

// What an untraced run measured; set_end_to_end() turns it into the six
// end-to-end metrics of BENCHMARK.json.
struct Measured {
  std::vector<double> setup_s;  // one per set-up
  std::vector<double> latency;  // seconds, one per request (row)
  double wall = 0.0;            // measured phase, seconds
  double peak_rss = 0.0;        // MB at the end of the measured phase
  // Serve: each request's completion, seconds from the start of the
  // measured phase (diagnostics only).
  std::vector<double> finish;
};
void set_end_to_end(const Measured& m, Result* r);

// Prints the diagnostic lines every run ends with: latency quantiles
// (p99 and p99.9 for diagnosis only), the set-up samples, the spread of
// the per-second request rate (serve), and the host steal share and
// context switches between two samples.
void print_diagnostics(const Measured& m, const HostSample& h0,
                       const HostSample& h1);

// Traced minus untraced p50, in percent of the untraced one.
double trace_overhead_pct(const std::vector<double>& plain,
                          const std::vector<double>& traced);

// Writes the span log (if a path is given) and says where.
void write_trace(const SpanLog& spans, const std::string& path,
                 double t_origin);

// Phase breakdown of a traced measured phase: named self times plus an
// explicit residual, adding up to `wall`.
struct Phases {
  std::string basis;  // what `wall` counts, e.g. "client-thread seconds"
  double wall = 0.0;
  std::vector<std::pair<std::string, double>> parts;
  double unattributed() const;
  void print() const;
};

// ----------------------------------------- shared LLG truth-table runner

// Per-row timing of an engine truth table, recorded by the forwarding gate
// the benchmark's factory returns.
struct RowRecord {
  std::size_t pattern = 0;
  double build0 = 0.0, build1 = 0.0;  // factory call (gate construction)
  double eval0 = 0.0, eval1 = 0.0;    // FanoutGate::evaluate
  int cpu = -1;                       // where evaluate returned
};

// Measured quantities of the LLG layers that every traced run reports.
struct LlgLayerData {
  double calibrate_s = 0.0;       // median prepare() wall
  double row_s = 0.0;             // median evaluate() wall
  double engine_self_ms = 0.0;    // table wall - union of row job spans
  std::vector<double> o1_t, o1_mx;  // one row's O1 probe series
  double frequency = 0.0;
  core::ValidationReport report;
};

// Pinned FNV-1a digests of the `swsim micromag` report lines, one per line
// of the report; '#' starts a comment.
std::vector<std::uint64_t> load_digests(const std::string& path);
// Rows of `report` whose report line matches the pinned digest (0 when
// any non-row line of the report differs).
std::size_t rows_matching(const core::ValidationReport& report,
                          const std::vector<std::uint64_t>& pinned);

// One LLG truth table on `workers` engine workers with the calibration as
// the prepare hook, every row traced (used by the serve traced runs).
LlgLayerData llg_reference_table(std::size_t workers, SpanLog* spans);

// ------------------------------------------------------------ workloads

// The CPUs a workload is confined to, and the process's original mask
// (used only for work outside the measured phases).
struct Placement {
  std::vector<int> cpus;
  std::vector<int> allowed;
};

Result run_llg_maj(const Options& opt, const Placement& place);
Result run_serve_sweep(const Options& opt, const Placement& place);

// ------------------------------------------------------------ layer calls

// Inputs the layer calls run on, captured from the workload.
struct LayerInputs {
  std::vector<serve::GateParams> analytic;  // the workload's tt configs
  std::vector<serve::GateParams> fresh;     // never-requested configs
  serve::YieldParams yield;
  // Captured wire documents, with the mix weight of each kind.
  struct Capture {
    std::string request_bytes;
    std::string response_bytes;
    double weight = 1.0;
  };
  std::vector<Capture> captures;
  core::ValidationReport report;  // the workload's most common report
  LlgLayerData llg;
};

// Makes every per-layer call in the table of swbench/README.md on `in`
// and adds the resulting metrics.
void run_layer_calls(const LayerInputs& in, bool short_mode, Metrics* out);

// The serve timing block, summed over a set of responses.
struct ServeSplit {
  double transport = 0.0, session = 0.0, queue = 0.0, engine = 0.0,
         render = 0.0;  // seconds, summed
  std::size_t n = 0;
  void add(double call_s, const serve::Response::Timing& t);
  // serve.{transport,session,queue,engine,render}_ms, mean per request.
  void set_metrics(Metrics* m) const;
};

// engine.jobs_per_request, engine.evictions_per_request and
// engine.cache_hit_ratio from two snapshots of a runner's stats().
void set_engine_counts(const engine::EngineStats& before,
                       const engine::EngineStats& after, double requests,
                       Metrics* m);

// A short served probe of hot-set truth tables on a private daemon with
// one client (llg_maj serves nothing of its own): fills `split`.
void served_probe(const std::vector<serve::GateParams>& hot,
                  std::uint64_t seed, std::size_t requests, ServeSplit* split);

// The hot set: 7 gate kinds x 4 geometry points, order from the seed.
std::vector<serve::GateParams> hot_set(std::uint64_t seed);
// n distinct maj truth-table configs from the sweep distribution.
std::vector<serve::GateParams> fresh_configs(std::uint64_t seed,
                                            std::size_t n);

}  // namespace swbench
