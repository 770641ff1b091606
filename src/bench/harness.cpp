#include "bench/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "mag/kernels/sweep.h"
#include "obs/json.h"

namespace swsim::bench {

namespace {

// parse_bench_json requires numbers, so NaN/inf are written as 0.
double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

double number_field(const obs::JsonValue& obj, const std::string& key) {
  const obs::JsonValue* v = obj.find(key);
  if (!v || !v->is_number()) {
    throw std::runtime_error("bench json: missing numeric field \"" + key +
                             "\"");
  }
  return v->number();
}

std::string string_field(const obs::JsonValue& obj, const std::string& key) {
  const obs::JsonValue* v = obj.find(key);
  if (!v || !v->is_string()) {
    throw std::runtime_error("bench json: missing string field \"" + key +
                             "\"");
  }
  return v->str();
}

}  // namespace

SampleStats compute_stats(const std::vector<double>& samples) {
  SampleStats s;
  if (samples.empty()) return s;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  const auto median_of = [](std::vector<double>& v) {
    const std::size_t n = v.size();
    std::sort(v.begin(), v.end());
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  s.median = median_of(sorted);
  std::vector<double> dev;
  dev.reserve(samples.size());
  for (double x : samples) dev.push_back(std::fabs(x - s.median));
  s.mad = median_of(dev);
  return s;
}

EnvInfo current_env() {
  EnvInfo e;
#ifdef SWSIM_GIT_SHA
  e.git_sha = SWSIM_GIT_SHA;
#endif
#ifdef SWSIM_COMPILER
  e.compiler = SWSIM_COMPILER;
#endif
#ifdef SWSIM_CXX_FLAGS
  e.flags = SWSIM_CXX_FLAGS;
#endif
#ifdef SWSIM_BUILD_TYPE
  e.build_type = SWSIM_BUILD_TYPE;
#endif
  e.kernel_isa = mag::kernels::sweep_variant().name;
  e.cores = std::thread::hardware_concurrency();
#if defined(_SC_NPROCESSORS_ONLN)
  if (e.cores == 0) {
    // hardware_concurrency() may legally return 0 (it did under some
    // container runtimes); fall back to the POSIX count so the env
    // fingerprint never records an impossible core count.
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    if (n > 0) e.cores = static_cast<unsigned>(n);
  }
#endif
  return e;
}

Harness::Harness(std::string name, int* argc, char** argv)
    : name_(std::move(name)) {
  // Strip harness flags in place, compacting argv so the bench sees only
  // what is left.
  int out = 1;
  bool repeats_given = false;
  const auto value_of = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= *argc) {
      throw std::invalid_argument(std::string(flag) + " requires a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < *argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--quick") == 0) {
      quick_ = true;
    } else if (std::strcmp(a, "--repeats") == 0) {
      repeats_ = std::atoi(value_of(i, "--repeats"));
      if (repeats_ < 1) throw std::invalid_argument("--repeats must be >= 1");
      repeats_given = true;
    } else if (std::strcmp(a, "--warmup") == 0) {
      warmup_ = std::atoi(value_of(i, "--warmup"));
      if (warmup_ < 0) throw std::invalid_argument("--warmup must be >= 0");
    } else if (std::strcmp(a, "--out-dir") == 0) {
      out_dir_ = value_of(i, "--out-dir");
      if (out_dir_.empty()) out_dir_ = '.';
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  argv[out] = nullptr;
  if (quick_ && !repeats_given) repeats_ = 3;
}

void Harness::time_case(const std::string& case_name,
                        const std::function<void()>& fn,
                        double items_per_iter) {
  using clock = std::chrono::steady_clock;
  for (int i = 0; i < warmup_; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats_));
  for (int i = 0; i < repeats_; ++i) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    samples.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  const SampleStats stats = compute_stats(samples);
  const double ips = (items_per_iter > 0.0 && stats.median > 0.0)
                         ? items_per_iter / stats.median
                         : 0.0;
  Case c{"s", warmup_, std::move(samples), stats, ips};
  cases_.emplace_back(case_name, std::move(c));
}

void Harness::record_samples(const std::string& case_name,
                             const std::string& unit,
                             const std::vector<double>& samples,
                             double items_per_second) {
  Case c{unit, 0, samples, compute_stats(samples), items_per_second};
  cases_.emplace_back(case_name, std::move(c));
}

void Harness::add_scalar(const std::string& name, double value) {
  scalars_.emplace_back(name, value);
}

std::string Harness::to_json() const {
  const EnvInfo env = current_env();
  obs::JsonWriter w;
  w.begin_object()
      .field("schema", kSchema)
      .field("name", name_)
      .field("quick", quick_)
      .key("env")
      .begin_object()
      .field("git_sha", env.git_sha)
      .field("compiler", env.compiler)
      .field("flags", env.flags)
      .field("build_type", env.build_type)
      .field("cores", env.cores)
      .field("kernel_isa", env.kernel_isa)
      .end_object()
      .key("cases")
      .begin_object();
  for (const auto& [case_name, c] : cases_) {
    w.key(case_name)
        .begin_object()
        .field("unit", c.unit)
        .field("warmup", c.warmup)
        .key("samples")
        .begin_array();
    for (const double sample : c.samples) w.value(finite_or_zero(sample));
    w.end_array()
        .field("min", finite_or_zero(c.stats.min))
        .field("median", finite_or_zero(c.stats.median))
        .field("mad", finite_or_zero(c.stats.mad))
        .field("items_per_second", finite_or_zero(c.items_per_second))
        .end_object();
  }
  w.end_object().key("scalars").begin_object();
  for (const auto& [scalar_name, value] : scalars_) {
    w.field(scalar_name, finite_or_zero(value));
  }
  return w.end_object().end_object().take();
}

bool Harness::finish() const {
  const std::string path = out_dir_ + "/BENCH_" + name_ + ".json";
  std::string error;
  if (!obs::write_json_file(path, to_json(), &error)) {
    std::fprintf(stderr, "bench harness: %s\n", error.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

BenchDoc parse_bench_json(const obs::JsonValue& root) {
  if (!root.is_object()) {
    throw std::runtime_error("bench json: document is not a JSON object");
  }
  const obs::JsonValue* schema = root.find("schema");
  if (!schema || !schema->is_string()) {
    throw std::runtime_error("bench json: missing \"schema\"");
  }
  if (schema->str() != Harness::kSchema) {
    throw std::runtime_error("bench json: unsupported schema \"" +
                             schema->str() + "\" (want " +
                             std::string(Harness::kSchema) + ")");
  }
  BenchDoc doc;
  doc.name = string_field(root, "name");
  const obs::JsonValue* quick = root.find("quick");
  doc.quick = quick && quick->is_bool() && quick->boolean();
  if (const obs::JsonValue* env = root.find("env"); env && env->is_object()) {
    doc.env.git_sha = string_field(*env, "git_sha");
    doc.env.compiler = string_field(*env, "compiler");
    doc.env.flags = string_field(*env, "flags");
    doc.env.build_type = string_field(*env, "build_type");
    doc.env.cores = static_cast<unsigned>(number_field(*env, "cores"));
    if (const obs::JsonValue* isa = env->find("kernel_isa");
        isa && isa->is_string()) {
      doc.env.kernel_isa = isa->str();
    }
  } else {
    throw std::runtime_error("bench json: missing \"env\" object");
  }
  const obs::JsonValue* cases = root.find("cases");
  if (!cases || !cases->is_object()) {
    throw std::runtime_error("bench json: missing \"cases\" object");
  }
  for (const auto& [case_name, c] : cases->object()) {
    if (!c.is_object()) {
      throw std::runtime_error("bench json: case \"" + case_name +
                               "\" is not an object");
    }
    CaseStats cs;
    cs.unit = string_field(c, "unit");
    cs.min = number_field(c, "min");
    cs.median = number_field(c, "median");
    cs.mad = number_field(c, "mad");
    cs.items_per_second = number_field(c, "items_per_second");
    doc.cases.emplace(case_name, std::move(cs));
  }
  if (const obs::JsonValue* scalars = root.find("scalars");
      scalars && scalars->is_object()) {
    for (const auto& [scalar_name, v] : scalars->object()) {
      if (!v.is_number()) {
        throw std::runtime_error("bench json: scalar \"" + scalar_name +
                                 "\" is not a number");
      }
      doc.scalars.emplace(scalar_name, v.number());
    }
  }
  return doc;
}

BenchDoc load_bench_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(path + ": cannot open");
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse_bench_json(obs::parse_json(buf.str()));
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

CompareResult compare_benches(const BenchDoc& base, const BenchDoc& cur,
                              const CompareOptions& opts) {
  CompareResult result;
  for (const auto& [name, b] : base.cases) {
    CaseDelta d;
    d.name = name;
    d.base_median = b.median;
    const auto it = cur.cases.find(name);
    if (it == cur.cases.end()) {
      d.verdict = Verdict::kMissing;
      result.deltas.push_back(std::move(d));
      continue;
    }
    const CaseStats& c = it->second;
    d.cur_median = c.median;
    d.threshold = std::max(opts.rel_tolerance * b.median,
                           opts.mad_k * (b.mad + c.mad));
    const double delta = c.median - b.median;
    if (delta > d.threshold) {
      d.verdict = Verdict::kRegression;
      ++result.regressions;
    } else if (-delta > d.threshold) {
      d.verdict = Verdict::kImprovement;
      ++result.improvements;
    }
    result.deltas.push_back(std::move(d));
  }
  for (const auto& [name, c] : cur.cases) {
    if (base.cases.count(name)) continue;
    CaseDelta d;
    d.name = name;
    d.cur_median = c.median;
    d.verdict = Verdict::kNew;
    result.deltas.push_back(std::move(d));
  }
  std::sort(result.deltas.begin(), result.deltas.end(),
            [](const CaseDelta& a, const CaseDelta& b) {
              return a.name < b.name;
            });
  return result;
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kRegression: return "REGRESSION";
    case Verdict::kImprovement: return "improvement";
    case Verdict::kNew: return "new";
    case Verdict::kMissing: return "missing";
  }
  return "?";
}

const std::vector<BenchTarget>& bench_registry() {
  static const std::vector<BenchTarget> targets = {
      {"fig1_dispersion", "bench_fig1_dispersion.csv", false},
      {"fig2_interference", "bench_fig2_interference.csv", false},
      {"fig5_snapshots", "fig5_a.pgm ... fig5_h.pgm", true},
      {"table1_maj", "bench_table1_maj.csv", false},
      {"table2_xor", "bench_table2_xor.csv", false},
      {"table3_performance", "bench_table3_performance.csv", false},
      {"ablation_dimensions", "bench_ablation_dimensions.csv", false},
      {"ablation_robustness", "bench_ablation_robustness.csv", true},
      {"ablation_cascade", "bench_ablation_cascade.csv", false},
      {"ladder_vs_triangle", "bench_ladder_vs_triangle.csv", false},
      {"serve_resilience", "BENCH_serve_resilience.json", false},
      {"probe_overhead", "BENCH_probe_overhead.json", false},
  };
  return targets;
}

}  // namespace swsim::bench
