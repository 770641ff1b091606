// serve_sweep, and the served probe of llg_maj's traced run: an in-process
// serve::Server on a Unix socket and one serve::Client in a closed loop,
// everything on one CPU. The daemon is configured the way `swsim serve`
// configures it (metrics armed, default dispatchers, queue and cache), with
// one engine worker.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>

#include "bench.h"
#include "engine/batch_runner.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/workload.h"

namespace swbench {
namespace {

using serve::RequestType;

constexpr const char* kKinds[] = {"maj", "xor", "xnor", "and",
                                  "or",  "nand", "nor"};
constexpr std::size_t kYieldTrials = 40;  // loadgen's default trial count

// Mix weights. Each is chosen so p50 and p90 fall well inside one request
// kind's latency mode (swbench/README.md, "Steadiness").
struct HotMix {
  static constexpr double hello = 0.03, healthz = 0.02, maj = 0.75;
  // the rest: the six 2-input kinds
};
struct SweepMix {
  static constexpr double yield = 0.25, maj = 0.60;  // the rest: xor
};

struct Config {
  RequestType type = RequestType::kHello;
  std::uint8_t kind = 0;  // index into kKinds
  double lambda_nm = 0.0;
  double width_nm = 0.0;
};

bool is_workload(RequestType t) {
  return t == RequestType::kTruthTable || t == RequestType::kYield;
}

std::uint64_t config_key(const Config& c) {
  std::string bytes(2 + 2 * sizeof(double), '\0');
  bytes[0] = static_cast<char>(c.type);
  bytes[1] = static_cast<char>(c.kind);
  std::memcpy(&bytes[2], &c.lambda_nm, sizeof(double));
  std::memcpy(&bytes[2 + sizeof(double)], &c.width_nm, sizeof(double));
  return digest(bytes);
}

serve::GateParams gate_params(const Config& c) {
  serve::GateParams p;
  p.kind = kKinds[c.kind];
  p.lambda_nm = c.lambda_nm;
  p.width_nm = c.width_nm;
  return p;
}

serve::YieldParams yield_params(const Config& c) {
  serve::YieldParams p;
  p.kind = kKinds[c.kind];
  p.lambda_nm = c.lambda_nm;
  p.width_nm = c.width_nm;
  p.trials = kYieldTrials;
  return p;
}

serve::Request make_request(const Config& c, std::uint64_t id,
                            const std::string& tenant) {
  serve::Request r;
  r.type = c.type;
  r.id = id;
  r.client = tenant;
  if (c.type == RequestType::kTruthTable) r.gate = gate_params(c);
  if (c.type == RequestType::kYield) r.yield = yield_params(c);
  return r;
}

Config truth_table_config(const serve::GateParams& g) {
  Config c;
  c.type = RequestType::kTruthTable;
  c.kind = static_cast<std::uint8_t>(
      std::find_if(std::begin(kKinds), std::end(kKinds),
                   [&](const char* k) { return g.kind == k; }) -
      std::begin(kKinds));
  c.lambda_nm = g.lambda_nm;
  c.width_nm = g.width_nm.value_or(0.4 * g.lambda_nm);
  return c;
}

double round3(double x) { return std::round(x * 1e3) / 1e3; }

// ------------------------------------------------------------ generators

class Generator {
 public:
  virtual ~Generator() = default;
  virtual Config next() = 0;
};

// The served probe: draws from the fixed hot set (plus built-ins), so every
// truth table is a cache hit.
class HotGenerator final : public Generator {
 public:
  HotGenerator(const std::vector<serve::GateParams>& hot, std::uint64_t seed,
               std::uint64_t stream)
      : rng_(seed, stream) {
    for (const auto& g : hot) {
      const Config c = truth_table_config(g);
      (c.kind == 0 ? maj_ : two_input_).push_back(c);
    }
  }
  Config next() override {
    const double u = rng_.uniform();
    Config c;
    if (u < HotMix::hello) {
      c.type = RequestType::kHello;
    } else if (u < HotMix::hello + HotMix::healthz) {
      c.type = RequestType::kHealthz;
    } else if (u < HotMix::hello + HotMix::healthz + HotMix::maj) {
      c = maj_[rng_.below(maj_.size())];
    } else {
      c = two_input_[rng_.below(two_input_.size())];
    }
    return c;
  }

 private:
  Rng rng_;
  std::vector<Config> maj_, two_input_;
};

// serve_sweep: a never-repeating sweep of maj/xor truth tables mixed with
// Monte-Carlo yields. One stream feeds the cache fill, the warm-up and the
// measured phase. The i-th truth table takes the i-th step of a seeded
// stride through 10^6 wavelengths (40 nm + k * 0.04 pm), so no config
// repeats within 10^6 tables and no record of past keys is needed: the
// process's memory must not grow with the number of requests served.
class SweepGenerator final : public Generator {
 public:
  explicit SweepGenerator(std::uint64_t seed) : rng_(seed, 20) {
    offset_ = rng_.next() % kSteps;
    stride_ = rng_.next() % kSteps | 1;     // odd, and below made
    if (stride_ % 5 == 0) stride_ += 2;     // coprime to 10^6 = 2^6 5^6
  }
  Config truth_table(bool maj) {
    const std::uint64_t k = (offset_ + count_++ * stride_) % kSteps;
    Config c;
    c.type = RequestType::kTruthTable;
    c.kind = maj ? 0 : 1;
    c.lambda_nm = 40.0 + static_cast<double>(k) * (40.0 / kSteps);
    c.width_nm = round3(c.lambda_nm * rng_.uniform(0.3, 0.5));
    return c;
  }
  Config next() override {
    const double u = rng_.uniform();
    if (u < SweepMix::yield) {
      Config c;
      c.type = RequestType::kYield;
      c.kind = 0;
      c.lambda_nm = round3(rng_.uniform(45.0, 65.0));
      c.width_nm = round3(c.lambda_nm * rng_.uniform(0.35, 0.45));
      return c;
    }
    return truth_table(u < SweepMix::yield + SweepMix::maj);
  }

 private:
  static constexpr std::uint64_t kSteps = 1000000;
  Rng rng_;
  std::uint64_t offset_ = 0, stride_ = 1, count_ = 0;
};

// ---------------------------------------------------------------- daemon

class Daemon {
 public:
  explicit Daemon(const std::string& socket) {
    serve::ServerConfig cfg;
    cfg.socket_path = socket;
    cfg.engine.jobs = 1;
    cfg.engine.cell_jobs = 1;
    server_ = std::make_unique<serve::Server>(cfg);
    if (const auto st = server_->start(); !st.is_ok()) {
      throw std::runtime_error("serve start: " + st.str());
    }
    if (const auto st = client_.connect_unix(socket); !st.is_ok()) {
      throw std::runtime_error("client connect: " + st.str());
    }
  }
  ~Daemon() {
    client_.close();
    server_->shutdown();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  serve::Server& server() { return *server_; }
  serve::Client& client() { return client_; }

 private:
  std::unique_ptr<serve::Server> server_;
  serve::Client client_;
};

std::string socket_name() {
  return "swbench-" + std::to_string(::getpid()) + ".sock";
}

// -------------------------------------------------------------- the loop

struct Item {
  Config config;
  std::uint64_t id = 0;
  double t0 = 0.0, t1 = 0.0;  // Client::call
  double iter = 0.0;          // whole loop iteration (draw, call, record)
  std::uint64_t digest = 0;   // response text (workload requests)
  serve::Response::Timing timing;
  std::uint32_t bytes = 0;    // response frame size (0 = not sampled)
  swsim::robust::StatusCode code = swsim::robust::StatusCode::kInternal;
  bool transport_ok = false;
};
// Records are written and read back as raw bytes.
static_assert(std::is_trivially_copyable_v<Item>);

// Per-request records stream to an unlinked scratch file in the working
// directory rather than to memory, so the process's peak RSS is the
// program's and does not grow with the number of requests served.
using FilePtr = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

FilePtr scratch_file(const std::string& name) {
  FilePtr f(std::fopen(name.c_str(), "w+b"), &std::fclose);
  if (!f) throw std::runtime_error("cannot create '" + name + "'");
  ::unlink(name.c_str());
  std::setvbuf(f.get(), nullptr, _IOFBF, 1 << 16);
  return f;
}

struct LoopOut {
  FilePtr records{nullptr, &std::fclose};  // null: warm-up, not recorded
  std::size_t count = 0;
  double start = 0.0, end = 0.0;
  std::map<std::pair<int, int>, LayerInputs::Capture> captures;

  void write(const Item& it) {
    if (records) std::fwrite(&it, sizeof it, 1, records.get());
  }

  // Reads the records back (after the measured phases).
  std::vector<Item> read() const {
    std::vector<Item> items;
    if (!records) return items;
    std::fflush(records.get());
    std::rewind(records.get());
    items.resize(count);
    if (count > 0 && std::fread(items.data(), sizeof(Item), count,
                                records.get()) != count) {
      throw std::runtime_error("short read of the request records");
    }
    return items;
  }
};

void client_loop(serve::Client& cl, Generator& gen, const std::string& tenant,
                 std::uint64_t id_base, double t_end, std::size_t max_requests,
                 bool traced, LoopOut* out) {
  out->start = now_s();
  std::uint64_t id = id_base;
  while (out->count < max_requests && now_s() < t_end) {
    const double i0 = now_s();
    Item it;
    it.config = gen.next();
    it.id = ++id;
    const serve::Request req = make_request(it.config, it.id, tenant);
    serve::Response resp;
    it.t0 = now_s();
    const auto st = cl.call(req, &resp);
    it.t1 = now_s();
    it.transport_ok = st.is_ok();
    it.code = resp.status.code();
    it.timing = resp.timing;
    if (traced) {
      const auto key = std::make_pair(static_cast<int>(it.config.type),
                                      static_cast<int>(it.config.kind));
      const bool capture = !out->captures.count(key);
      // Re-serializing costs tens of microseconds, so frame sizes are
      // sampled: every 16th traced response, plus each captured one.
      if (capture || out->count % 16 == 0) {
        std::string bytes = serve::serialize_response(resp);
        it.bytes = static_cast<std::uint32_t>(bytes.size() + 4);
        if (capture) {
          out->captures[key] = {serve::serialize_request(req),
                                std::move(bytes), 0.0};
        }
      }
    }
    if (is_workload(it.config.type)) it.digest = digest(resp.text);
    ++out->count;
    it.iter = now_s() - i0;
    out->write(it);
  }
  out->end = now_s();
}

struct PhaseOut {
  LoopOut loop;
  bool traced = false;
};

// One closed-loop phase of the client, until `seconds` pass (0: no time
// limit) or it sent max_requests. Records only if `record`.
PhaseOut run_phase(Daemon& d, Generator& gen, const std::string& tenant,
                   double seconds, std::size_t max_requests, bool traced,
                   bool record, std::uint64_t phase) {
  PhaseOut p;
  p.traced = traced;
  if (record) {
    p.loop.records = scratch_file("records-" + std::to_string(::getpid()) +
                                  "-" + std::to_string(phase) + ".bin");
  }
  const double t_end = seconds > 0 ? now_s() + seconds : 1e300;
  client_loop(d.client(), gen, tenant, phase << 40, t_end, max_requests,
              traced, &p.loop);
  return p;
}

// ------------------------------------------------------------ correctness

// Recomputes the expected text of every distinct workload request through
// the same make_*_spec -> BatchRunner calls the daemon makes (one runner
// per thread).
class Checker {
 public:
  Checker(const std::vector<Config>& configs, std::size_t threads,
          bool negative_control) {
    std::vector<Config> todo;
    for (const Config& c : configs) {
      if (expected_.emplace(config_key(c), 0).second) todo.push_back(c);
    }
    std::vector<std::uint64_t> digests(todo.size());
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        engine::EngineConfig ec;
        ec.jobs = 1;
        ec.cell_jobs = 1;
        ec.use_cache = false;
        engine::BatchRunner local(ec);
        for (std::size_t i = t; i < todo.size(); i += threads) {
          digests[i] = digest(expected_text(local, todo[i]));
        }
      });
    }
    for (auto& th : pool) th.join();
    for (std::size_t i = 0; i < todo.size(); ++i) {
      expected_[config_key(todo[i])] = digests[i];
    }
    // Negative control: one wrong expected text must fail the run.
    if (negative_control && !todo.empty()) {
      expected_[config_key(todo.front())] ^= 1;
    }
  }

  bool check(const Item& it) const {
    if (!it.transport_ok || it.code != swsim::robust::StatusCode::kOk) {
      return false;
    }
    const auto expected = expected_.find(config_key(it.config));
    return expected != expected_.end() && it.digest == expected->second;
  }

 private:
  static std::string expected_text(engine::BatchRunner& local,
                                   const Config& c) {
    if (c.type == RequestType::kTruthTable) {
      const auto spec = serve::make_truth_table_spec(gate_params(c));
      return core::format_report(
          local.run_truth_table(spec->factory, spec->key));
    }
    const auto spec = serve::make_yield_spec(yield_params(c));
    return serve::render_yield(
        spec->kind, local.run_yield(spec->factory, spec->model, spec->trials));
  }
  std::unordered_map<std::uint64_t, std::uint64_t> expected_;
};

void add_request_spans(const Item& it, SpanLog* spans) {
  const double call = it.t1 - it.t0;
  const double total = std::max(0.0, it.timing.total_s);
  const double q = std::max(0.0, it.timing.queue_s);
  const double e = std::max(0.0, it.timing.engine_s);
  const double r = std::max(0.0, it.timing.render_s);
  spans->add({"request", it.id, 0, it.t0, it.t1, 0});
  // Children from the response timing block, laid out in order by length.
  double t = it.t0 + (call - total) / 2;
  const std::pair<const char*, double> parts[] = {
      {"serve.queue", q}, {"serve.engine", e}, {"serve.render", r},
      {"serve.session", total - q - e - r}};
  spans->add({"serve.transport", it.id, it.id, it.t0, t, 0});
  for (const auto& [name, d] : parts) {
    spans->add({name, it.id, it.id, t, t + d, 0});
    t += d;
  }
  spans->add({"serve.transport", it.id, it.id, t, it.t1, 0});
}

}  // namespace

std::vector<serve::GateParams> hot_set(std::uint64_t seed) {
  static const std::pair<double, double> kPoints[] = {
      {50.0, 20.0}, {55.0, 22.0}, {60.0, 24.0}, {70.0, 28.0}};
  std::vector<serve::GateParams> out;
  for (const char* kind : kKinds) {
    for (const auto& [lambda, width] : kPoints) {
      serve::GateParams g;
      g.kind = kind;
      g.lambda_nm = lambda;
      g.width_nm = width;
      out.push_back(g);
    }
  }
  Rng rng(seed, 1);
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.below(i)]);
  }
  return out;
}

std::vector<serve::GateParams> fresh_configs(std::uint64_t seed,
                                            std::size_t n) {
  SweepGenerator gen(seed);
  std::vector<serve::GateParams> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(gate_params(gen.truth_table(true)));
  }
  return out;
}

void served_probe(const std::vector<serve::GateParams>& hot,
                  std::uint64_t seed, std::size_t requests,
                  ServeSplit* split) {
  swsim::obs::MetricsRegistry::global().reset();
  swsim::obs::MetricsRegistry::arm();
  {
    Daemon d(socket_name());
    HotGenerator gen(hot, seed, 30);
    const PhaseOut p = run_phase(d, gen, "tenant0", 0.0, requests, false,
                                 true, 1);
    for (const Item& it : p.loop.read()) {
      split->add(it.t1 - it.t0, it.timing);
    }
  }
  swsim::obs::MetricsRegistry::disarm();
}

Result run_serve_sweep(const Options& opt, const Placement& place) {
  const std::vector<int>& cpus = place.cpus;
  Result res;
  SpanLog spans;
  SweepGenerator sweep(opt.seed);
  const std::string tenant = "tenant0";
  std::printf("env: engine_workers=1 cell_jobs=1 dispatchers=%zu "
              "cache_capacity=%zu clients=1 mix=sweep(maj tt .60, xor tt "
              ".15, yield@40 .25)\n",
              serve::ServerConfig{}.dispatchers,
              engine::EngineConfig{}.cache_capacity);

  // `swsim serve` runs with the metrics registry armed.
  swsim::obs::MetricsRegistry::global().reset();
  swsim::obs::MetricsRegistry::arm();

  // Set-up, several times: daemon start, client connects, cache fill and a
  // warm-up of the workload's own mix. The last daemon is kept.
  const int setups = opt.short_mode ? 1 : 5;
  const std::size_t warmup = opt.short_mode ? 100 : 500;
  const std::size_t capacity = engine::EngineConfig{}.cache_capacity;
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::uint64_t phase_id = 1;
  for (int k = 0; k < setups; ++k) {
    daemon.reset();
    const double t0 = now_s();
    daemon = std::make_unique<Daemon>(socket_name());
    // 8 rows per maj table: a little past capacity, so the cache is full
    // and already evicting when the measured phase starts.
    for (std::size_t i = 0; i < capacity / 8 + 8; ++i) {
      serve::Response resp;
      const auto st = daemon->client().call(
          make_request(sweep.truth_table(true), ++phase_id, "fill"), &resp);
      if (!st.is_ok() || !resp.status.is_ok()) {
        throw std::runtime_error("cache fill request failed: " +
                                 (st.is_ok() ? resp.status.str() : st.str()));
      }
    }
    run_phase(*daemon, sweep, tenant, 0.0, warmup, false, false, ++phase_id);
    setup_s.push_back(now_s() - t0);
    if (opt.trace) {
      spans.add({"setup", static_cast<std::uint64_t>(k), 0, t0, now_s(), 0});
    }
  }
  const auto cache_after_fill = daemon->server().runner().stats().cache;
  std::printf("setup: cache %zu entries in memory (capacity %zu), %zu "
              "evictions so far\n",
              cache_after_fill.insertions - cache_after_fill.evictions,
              capacity, cache_after_fill.evictions);

  // Measured phase. The traced run measures twice as long, alternating
  // untraced and traced sub-phases of half a run each.
  const auto stats0 = daemon->server().runner().stats();
  const HostSample h0 = sample_host(cpus);
  std::vector<PhaseOut> phases;
  if (opt.trace) {
    for (int i = 0; i < 4; ++i) {
      phases.push_back(run_phase(*daemon, sweep, tenant, opt.seconds / 2,
                                 SIZE_MAX, i % 2 == 1, true, ++phase_id));
    }
  } else {
    phases.push_back(run_phase(*daemon, sweep, tenant, opt.seconds, SIZE_MAX,
                               false, true, ++phase_id));
  }
  const HostSample h1 = sample_host(cpus);
  const auto stats1 = daemon->server().runner().stats();
  const double peak_rss = peak_rss_mb();
  daemon.reset();
  swsim::obs::MetricsRegistry::disarm();

  // Everything below is outside the timed window and outside setup_s. The
  // local recomputation may use every allowed CPU.
  const double check0 = now_s();
  // items[phase]
  std::vector<std::vector<Item>> items;
  std::vector<Config> configs;
  for (const PhaseOut& p : phases) {
    items.push_back(p.loop.read());
    for (const Item& it : items.back()) {
      if (is_workload(it.config.type)) configs.push_back(it.config);
    }
  }
  std::string error;
  if (!pin_process(place.allowed, &error)) throw std::runtime_error(error);
  const Checker checker(configs, std::min<std::size_t>(4, place.allowed.size()),
                        opt.negative_control);
  if (!pin_process(place.cpus, &error)) throw std::runtime_error(error);
  Measured meas;
  meas.setup_s = setup_s;
  meas.peak_rss = peak_rss;
  std::vector<double> lat_plain, lat_traced;
  std::map<std::string, std::vector<double>> by_kind;
  for (std::size_t pi = 0; pi < phases.size(); ++pi) {
    const PhaseOut& p = phases[pi];
    meas.wall += p.loop.end - p.loop.start;
    for (const Item& it : items[pi]) {
      const double d = it.t1 - it.t0;
      meas.latency.push_back(d);
      if (!opt.trace) meas.finish.push_back(it.t1 - p.loop.start);
      (p.traced ? lat_traced : lat_plain).push_back(d);
      by_kind[serve::to_string(it.config.type) + ":" + kKinds[it.config.kind]]
          .push_back(d);
      ++res.attempted;
      if (!checker.check(it)) ++res.failed;
    }
  }
  const std::size_t n_items = meas.latency.size();
  res.correct = res.failed == 0 && n_items > 0;
  std::printf("check: %zu responses recomputed locally in %.3f s, %llu "
              "mismatched\n",
              n_items, now_s() - check0,
              static_cast<unsigned long long>(res.failed));
  print_diagnostics(meas, h0, h1);
  // Each kind's latency mode, to check that p50 and p90 sit inside one.
  for (const auto& [kind, v] : by_kind) {
    std::printf("  %-18s n=%-7zu share=%.3f p10 %.4f p50 %.4f p90 %.4f ms\n",
                kind.c_str(), v.size(),
                static_cast<double>(v.size()) / static_cast<double>(n_items),
                quantile(v, 0.1) * 1e3, quantile(v, 0.5) * 1e3,
                quantile(v, 0.9) * 1e3);
  }
  if (!opt.trace) {
    set_end_to_end(meas, &res);
    return res;
  }

  // ------------------------------------------------------------ traced
  ServeSplit split;
  Phases ph;
  ph.basis = "client-thread seconds over traced sub-phases";
  double client_self = 0.0, bytes_sum = 0.0, bytes_n = 0.0;
  std::map<std::pair<int, int>, LayerInputs::Capture> captures;
  std::map<std::pair<int, int>, double> counts;
  bool have_yield = false;
  LayerInputs in;
  for (std::size_t pi = 0; pi < phases.size(); ++pi) {
    const PhaseOut& p = phases[pi];
    if (!p.traced) continue;
    ph.wall += p.loop.end - p.loop.start;
    for (const auto& [key, cap] : p.loop.captures) captures.emplace(key, cap);
    for (const Item& it : items[pi]) {
      split.add(it.t1 - it.t0, it.timing);
      client_self += it.iter - (it.t1 - it.t0);
      bytes_sum += it.bytes;
      bytes_n += it.bytes > 0;
      counts[{static_cast<int>(it.config.type), it.config.kind}] += 1.0;
      add_request_spans(it, &spans);
      if (it.config.type == RequestType::kTruthTable &&
          in.analytic.size() < 16) {
        in.analytic.push_back(gate_params(it.config));
      }
      if (it.config.type == RequestType::kYield && !have_yield) {
        in.yield = yield_params(it.config);
        have_yield = true;
      }
    }
  }
  for (auto& [key, cap] : captures) {
    cap.weight = counts[key];
    in.captures.push_back(cap);
  }
  // The layer calls' "most common" analytic config: the first maj one.
  std::stable_partition(in.analytic.begin(), in.analytic.end(),
                        [](const serve::GateParams& g) { return g.kind == "maj"; });
  // Never-requested configs for the cache-miss calls: the sweep stream
  // itself continues (it never repeats).
  for (int i = 0; i < 112; ++i) {
    in.fresh.push_back(gate_params(sweep.truth_table(true)));
  }
  {
    const auto spec = serve::make_truth_table_spec(in.analytic.front());
    auto gate = spec->factory();
    in.report = core::validate_gate(*gate);
  }

  ph.parts = {{"serve.transport", split.transport},
              {"serve.session", split.session},
              {"serve.queue", split.queue},
              {"serve.engine", split.engine},
              {"serve.render", split.render},
              {"bench.client (draw, digest, record)", client_self}};

  // The LLG layers: one reference truth table on this workload's CPU,
  // checked against the pinned `swsim micromag` digests like llg_maj.
  in.llg = llg_reference_table(1, &spans);
  const auto pinned = load_digests(opt.expected_digests);
  if (rows_matching(in.llg.report, pinned) != in.llg.report.rows.size()) {
    std::fprintf(stderr,
                 "swbench: reference LLG truth table differs from the "
                 "pinned swsim micromag digests\n");
    res.correct = false;
  }
  Metrics& m = res.metrics;
  run_layer_calls(in, opt.short_mode, &m);
  split.set_metrics(&m);
  m.set("serve.response_bytes", bytes_n > 0 ? bytes_sum / bytes_n : 0.0,
        "bytes");
  set_engine_counts(stats0, stats1, static_cast<double>(n_items), &m);
  m.set("bench.trace_overhead_pct", trace_overhead_pct(lat_plain, lat_traced),
        "%");
  ph.print();
  m.set("bench.unattributed_pct",
        ph.wall > 0 ? 100.0 * ph.unattributed() / ph.wall : 0.0, "%");
  write_trace(spans, opt.trace_out, phases.front().loop.start);
  return res;
}

}  // namespace swbench
