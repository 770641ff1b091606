// llg_maj: the default `swsim micromag` MAJ3 truth table, driven through
// serve::make_micromag_spec -> engine::BatchRunner exactly as the CLI does,
// with the benchmark's factory wrapping every row gate in a forwarding gate
// that times gate construction and FanoutGate::evaluate.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "core/micromag_gate.h"
#include "engine/batch_runner.h"
#include "serve/workload.h"

namespace swbench {
namespace {

// Collects the forwarding gates' row records; optionally hands one row's
// O1 probe series to the lock-in layer calls.
class RowTimer {
 public:
  void add(const RowRecord& r) {
    std::lock_guard<std::mutex> lock(mutex_);
    rows_.push_back(r);
  }
  std::vector<RowRecord> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RowRecord> out;
    out.swap(rows_);
    return out;
  }
  void want_series() {
    std::lock_guard<std::mutex> lock(mutex_);
    want_series_ = t_.empty();
  }
  bool claim_series() {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool claimed = want_series_;
    want_series_ = false;
    return claimed;
  }
  void set_series(const core::MicromagEvaluation& ev) {
    std::lock_guard<std::mutex> lock(mutex_);
    t_ = ev.probe_series.at(0).t;
    mx_ = ev.probe_series.at(0).mx;
    frequency_ = ev.frequency;
  }
  void series_into(LlgLayerData* d) {
    std::lock_guard<std::mutex> lock(mutex_);
    d->o1_t = t_;
    d->o1_mx = mx_;
    d->frequency = frequency_;
  }

 private:
  std::mutex mutex_;
  std::vector<RowRecord> rows_;
  bool want_series_ = false;
  std::vector<double> t_, mx_;
  double frequency_ = 0.0;
};

class TimedGate final : public core::FanoutGate {
 public:
  TimedGate(std::unique_ptr<core::FanoutGate> inner, double build0,
            double build1, RowTimer* timer)
      : inner_(std::move(inner)), build0_(build0), build1_(build1),
        timer_(timer) {}

  std::string name() const override { return inner_->name(); }
  std::size_t num_inputs() const override { return inner_->num_inputs(); }
  bool reference(const std::vector<bool>& inputs) const override {
    return inner_->reference(inputs);
  }
  int excitation_cells() const override { return inner_->excitation_cells(); }
  void set_cancel_token(const swsim::robust::CancelToken& token) override {
    inner_->set_cancel_token(token);
  }

  core::FanoutOutputs evaluate(const std::vector<bool>& inputs) override {
    RowRecord r;
    for (std::size_t b = 0; b < inputs.size(); ++b) {
      r.pattern |= static_cast<std::size_t>(inputs[b]) << b;
    }
    r.build0 = build0_;
    r.build1 = build1_;
    r.eval0 = now_s();
    core::FanoutOutputs out;
    auto* mm = dynamic_cast<core::MicromagTriangleGate*>(inner_.get());
    if (mm != nullptr && timer_->claim_series()) {
      // MicromagTriangleGate::evaluate is evaluate_full().outputs; the full
      // call also returns the probe series the lock-in layer calls use.
      const core::MicromagEvaluation ev = mm->evaluate_full(inputs);
      timer_->set_series(ev);
      out = ev.outputs;
    } else {
      out = inner_->evaluate(inputs);
    }
    r.eval1 = now_s();
    r.cpu = sched_getcpu();
    timer_->add(r);
    return out;
  }

 private:
  std::unique_ptr<core::FanoutGate> inner_;
  double build0_, build1_;
  RowTimer* timer_;
};

engine::BatchRunner::GateFactory timed_factory(
    const engine::BatchRunner::GateFactory& inner, RowTimer* timer) {
  return [inner, timer]() -> std::unique_ptr<core::FanoutGate> {
    const double b0 = now_s();
    auto gate = inner();
    const double b1 = now_s();
    return std::make_unique<TimedGate>(std::move(gate), b0, b1, timer);
  };
}

// Length of the union of [t0, t1] intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur0 = 0.0, cur1 = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > cur1) {
      if (cur1 > cur0) total += cur1 - cur0;
      cur0 = a;
      cur1 = b;
    } else {
      cur1 = std::max(cur1, b);
    }
  }
  if (cur1 > cur0) total += cur1 - cur0;
  return total;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

}  // namespace

std::vector<std::uint64_t> load_digests(const std::string& path) {
  std::vector<std::uint64_t> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream is(line);
    std::string word;
    if (is >> word) out.push_back(std::stoull(word, nullptr, 16));
  }
  return out;
}

// Number of rows of `report` whose report line (and the table frame
// around it) matches the pinned digests.
std::size_t rows_matching(const core::ValidationReport& report,
                          const std::vector<std::uint64_t>& pinned) {
  const auto lines = split_lines(core::format_report(report));
  if (lines.size() != pinned.size() || lines.size() < report.rows.size() + 1) {
    return 0;
  }
  const std::size_t first_row = lines.size() - report.rows.size() - 1;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const bool is_row = i >= first_row && i < first_row + report.rows.size();
    if (!is_row && digest(lines[i]) != pinned[i]) return 0;
  }
  std::size_t ok = 0;
  for (std::size_t r = 0; r < report.rows.size(); ++r) {
    ok += report.rows[r].status.is_ok() &&
          digest(lines[first_row + r]) == pinned[first_row + r];
  }
  return ok;
}

namespace {

struct Table {
  double t0 = 0.0, t1 = 0.0;
  bool traced = false;
  std::vector<RowRecord> rows;
};

std::vector<std::pair<double, double>> job_spans(
    const std::vector<RowRecord>& rows) {
  std::vector<std::pair<double, double>> iv;
  for (const auto& r : rows) iv.emplace_back(r.build0, r.eval1);
  return iv;
}

void add_row_spans(const Table& t, std::uint64_t table_id, SpanLog* spans) {
  spans->add({"engine.truth_table", table_id, 0, t.t0, t.t1, 0});
  int lane = 1;
  for (const auto& r : t.rows) {
    spans->add({"core.row", r.pattern, table_id, r.build0, r.eval1, lane});
    spans->add({"core.gate_build", r.pattern, table_id, r.build0, r.build1,
                lane});
    spans->add({"core.evaluate", r.pattern, table_id, r.eval0, r.eval1, lane});
    ++lane;
  }
}

}  // namespace

LlgLayerData llg_reference_table(std::size_t workers, SpanLog* spans) {
  engine::EngineConfig ec;
  ec.jobs = workers;
  ec.cell_jobs = 1;
  ec.use_cache = false;
  engine::BatchRunner runner(ec);
  const auto spec = serve::make_micromag_spec(serve::MicromagParams{});
  RowTimer timer;
  timer.want_series();
  double c0 = 0.0, c1 = 0.0;
  const auto prepare = [&] {
    c0 = now_s();
    spec->prepare();
    c1 = now_s();
  };
  Table t;
  t.t0 = now_s();
  LlgLayerData d;
  d.report = runner.run_truth_table(timed_factory(spec->factory, &timer),
                                    spec->key, prepare);
  t.t1 = now_s();
  t.traced = true;
  t.rows = timer.take();
  spans->add({"core.calibrate", 0, 1000, c0, c1, 1});
  add_row_spans(t, 1000, spans);
  auto iv = job_spans(t.rows);
  iv.emplace_back(c0, c1);
  d.calibrate_s = c1 - c0;
  std::vector<double> eval;
  for (const auto& r : t.rows) eval.push_back(r.eval1 - r.eval0);
  d.row_s = quantile(eval, 0.5);
  d.engine_self_ms = (t.t1 - t.t0 - union_length(iv)) * 1e3;
  timer.series_into(&d);
  return d;
}

Result run_llg_maj(const Options& opt, const Placement& place) {
  const std::vector<int>& cpus = place.cpus;
  constexpr std::size_t kWorkers = 2;
  Result res;
  SpanLog spans;
  const std::vector<std::uint64_t> pinned = [&] {
    auto d = load_digests(opt.expected_digests);
    // Negative control: one wrong expected row digest must fail the run.
    if (opt.negative_control && d.size() > 4) d[4] ^= 1;
    return d;
  }();
  if (pinned.empty()) {
    std::fprintf(stderr, "swbench: no pinned digests in '%s'\n",
                 opt.expected_digests.c_str());
    res.correct = false;
    return res;
  }

  engine::EngineConfig ec;
  ec.jobs = kWorkers;
  ec.cell_jobs = 1;
  ec.use_cache = false;  // every row is solved cold
  const serve::MicromagParams params;  // the `swsim micromag` defaults
  std::printf("env: engine_workers=%zu cell_jobs=1 cache=off gate=%s "
              "lambda_nm=%g width_nm=%g cell_nm=%g\n",
              kWorkers, params.kind.c_str(), params.lambda_nm,
              params.width_nm, params.cell_nm);

  // Set-up, several times: engine and gate construction plus the
  // calibration solve (the spec's prepare hook). The last one is kept.
  const int setups = opt.short_mode ? 1 : 3;
  std::vector<double> setup_s, calibrate_s;
  std::unique_ptr<engine::BatchRunner> runner;
  std::optional<serve::MicromagSpec> spec;
  for (int k = 0; k < setups; ++k) {
    runner.reset();
    spec.reset();
    const double t0 = now_s();
    runner = std::make_unique<engine::BatchRunner>(ec);
    spec = serve::make_micromag_spec(params);
    { const core::MicromagTriangleGate banner(spec->config); }
    const double c0 = now_s();
    spec->prepare();
    const double t1 = now_s();
    setup_s.push_back(t1 - t0);
    calibrate_s.push_back(t1 - c0);
    if (opt.trace) {
      spans.add({"setup", static_cast<std::uint64_t>(k), 0, t0, t1, 0});
      spans.add({"core.calibrate", static_cast<std::uint64_t>(k), 0, c0, t1,
                 0});
    }
  }

  // Measured phase: a closed loop of truth tables. The traced run measures
  // twice as long, alternating untraced and traced tables.
  RowTimer timer;
  const auto factory = timed_factory(spec->factory, &timer);
  std::vector<Table> tables;
  const double budget = opt.trace ? 2.0 * opt.seconds : opt.seconds;
  const auto stats0 = runner->stats();
  const HostSample h0 = sample_host(cpus);
  const double m0 = now_s();
  core::ValidationReport report;
  for (std::size_t i = 0;; ++i) {
    Table t;
    t.traced = opt.trace && i % 2 == 1;
    if (t.traced) timer.want_series();
    t.t0 = now_s();
    try {
      report = runner->run_truth_table(factory, spec->key);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "swbench: truth table failed: %s\n", e.what());
      res.attempted += 8;
      res.failed += 8;
      break;
    }
    t.t1 = now_s();
    t.rows = timer.take();
    std::printf("table %zu%s: %.3f s; rows (pattern:seconds@cpu)", i,
                t.traced ? " (traced)" : "", t.t1 - t.t0);
    for (const RowRecord& r : t.rows) {
      std::printf(" %zu:%.3f@%d", r.pattern, r.eval1 - r.build0, r.cpu);
    }
    std::printf("\n");
    const std::size_t ok = rows_matching(report, pinned);
    res.attempted += report.rows.size();
    res.failed += report.rows.size() - ok;
    tables.push_back(std::move(t));
    const bool both_kinds = !opt.trace || i >= 1;
    if (now_s() - m0 >= budget && both_kinds) break;
  }
  Measured meas;
  meas.wall = now_s() - m0;
  const HostSample h1 = sample_host(cpus);
  const auto stats1 = runner->stats();
  meas.peak_rss = peak_rss_mb();
  meas.setup_s = setup_s;

  std::vector<double> lat_plain, lat_traced;
  for (const Table& t : tables) {
    for (const RowRecord& r : t.rows) {
      meas.latency.push_back(r.eval1 - r.build0);
      (t.traced ? lat_traced : lat_plain).push_back(r.eval1 - r.build0);
    }
  }
  print_diagnostics(meas, h0, h1);
  res.correct = res.failed == 0 && !meas.latency.empty();
  if (!opt.trace) {
    set_end_to_end(meas, &res);
    return res;
  }

  // ------------------------------------------------------------ traced
  LayerInputs in;
  in.llg.calibrate_s = quantile(calibrate_s, 0.5);
  std::vector<double> eval;
  double self_sum = 0.0;
  std::size_t traced_tables = 0;
  Phases ph;
  ph.basis = "engine-worker seconds over traced tables";
  double build_sum = 0.0, eval_sum = 0.0, job_sum = 0.0;
  std::size_t traced_rows = 0;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    const Table& t = tables[i];
    if (!t.traced) continue;
    add_row_spans(t, i + 1, &spans);
    ++traced_tables;
    self_sum += t.t1 - t.t0 - union_length(job_spans(t.rows));
    ph.wall += (t.t1 - t.t0) * kWorkers;
    for (const RowRecord& r : t.rows) {
      eval.push_back(r.eval1 - r.eval0);
      build_sum += r.build1 - r.build0;
      eval_sum += r.eval1 - r.eval0;
      job_sum += r.eval1 - r.build0;
      ++traced_rows;
    }
  }
  in.llg.row_s = quantile(eval, 0.5);
  in.llg.engine_self_ms = traced_tables ? self_sum / traced_tables * 1e3 : 0.0;
  timer.series_into(&in.llg);
  in.report = report;
  in.analytic = hot_set(opt.seed);
  std::stable_partition(
      in.analytic.begin(), in.analytic.end(),
      [](const serve::GateParams& g) { return g.kind == "maj"; });
  in.fresh = fresh_configs(opt.seed, 112);
  in.yield.kind = "maj";
  in.yield.trials = 40;
  // The wire documents a served micromag request would exchange.
  serve::Request req;
  req.type = serve::RequestType::kMicromag;
  req.id = 1;
  req.client = "swbench";
  req.micromag = params;
  serve::Response resp;
  resp.id = 1;
  resp.text = core::format_report(report);
  resp.all_pass = report.all_pass ? 1.0 : 0.0;
  resp.max_asymmetry = report.max_output_asymmetry;
  resp.min_margin = report.min_margin;
  resp.timing.queue_s = 0.0;
  resp.timing.engine_s = tables.back().t1 - tables.back().t0;
  resp.timing.render_s = 0.0;
  resp.timing.total_s = resp.timing.engine_s;
  in.captures.push_back(
      {serve::serialize_request(req), serve::serialize_response(resp), 1.0});

  // The layer calls and the serve probe run on one CPU, as they do in the
  // serve workloads: on two, every engine batch pays a cross-CPU wake-up
  // and a lone thread can migrate between the CPUs' caches.
  std::string error;
  if (!pin_process({cpus.front()}, &error)) throw std::runtime_error(error);
  // Serve-plane timing: llg_maj serves nothing itself, so a short probe of
  // hot-set requests on a private daemon stands in.
  ServeSplit split;
  served_probe(in.analytic, opt.seed, opt.short_mode ? 100 : 400, &split);
  Metrics& m = res.metrics;
  run_layer_calls(in, opt.short_mode, &m);
  split.set_metrics(&m);
  m.set("serve.response_bytes",
        static_cast<double>(in.captures.front().response_bytes.size()),
        "bytes");
  set_engine_counts(stats0, stats1, static_cast<double>(meas.latency.size()),
                    &m);
  m.set("bench.trace_overhead_pct", trace_overhead_pct(lat_plain, lat_traced),
        "%");

  ph.parts = {{"core.gate_build", build_sum},
              {"core.evaluate", eval_sum},
              {"engine.self + idle workers", ph.wall - job_sum}};
  ph.print();
  // The step / non-step split of core.evaluate is an estimate: mag.step_us
  // is timed seconds apart from the rows, so host drift of a few percent
  // moves the remainder by tens of milliseconds per row.
  const double step_total = static_cast<double>(traced_rows) *
                            m.get("mag.steps_per_row") *
                            m.get("mag.step_us") * 1e-6;
  std::printf("  of core.evaluate: mag.step ~%.3f s (rows x steps x "
              "mag.step_us), core.row_nonstep ~%.3f s\n",
              step_total, eval_sum - step_total);
  m.set("bench.unattributed_pct",
        ph.wall > 0 ? 100.0 * ph.unattributed() / ph.wall : 0.0, "%");
  write_trace(spans, opt.trace_out, m0);
  return res;
}

}  // namespace swbench
