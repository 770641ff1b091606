// The traced run's layer calls: every per-layer metric in
// swbench/README.md, timed from outside through each layer's public
// functions on the workload's own inputs.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench.h"
#include "core/micromag_gate.h"
#include "core/variability.h"
#include "engine/batch_runner.h"
#include "engine/result_cache.h"
#include "mag/demod.h"
#include "mag/llg.h"
#include "mag/simulation.h"
#include "math/lockin.h"
#include "serve/admission.h"
#include "serve/codec.h"
#include "serve/workload.h"

namespace swbench {
namespace {

namespace mag = swsim::mag;

volatile std::size_t g_sink = 0;  // keeps timed results observable

// Mean of f(capture) weighted by each capture's share of the workload mix.
template <class F>
double weighted(const std::vector<LayerInputs::Capture>& caps, F&& f) {
  double num = 0.0, den = 0.0;
  for (const auto& c : caps) {
    num += c.weight * f(c);
    den += c.weight;
  }
  return den > 0 ? num / den : 0.0;
}

}  // namespace

void run_layer_calls(const LayerInputs& in, bool short_mode, Metrics* m) {
  const int rounds = short_mode ? 3 : 7;
  const double us = 1e6;

  // ------------------------------------------------------ mag and core LLG
  const auto spec = serve::make_micromag_spec(serve::MicromagParams{});
  const core::MicromagGateConfig& cfg = spec->config;
  m->set("core.gate_build_us",
         seconds_per_call(rounds, 3,
                          [&] {
                            const core::MicromagTriangleGate g(cfg);
                            g_sink = g_sink + g.grid().nx();
                          }) * us,
         "us");
  const core::MicromagTriangleGate gate(cfg);
  const double active = static_cast<double>(gate.body_mask().count());
  const double steps = std::round(gate.simulated_duration() / cfg.dt);
  m->set("mag.active_cells", active, "count");
  m->set("mag.steps_per_row", steps, "count");

  mag::Simulation sim(mag::System(gate.grid(), cfg.material, gate.body_mask()));
  sim.add_standard_terms();
  sim.set_stepper(mag::StepperKind::kRk4, cfg.dt);
  sim.set_magnetization(sim.system().uniform_magnetization({0.0, 0.0, 1.0}));
  const int block = short_mode ? 50 : 400;
  sim.run(block * cfg.dt);  // first solve compiles the kernel plan
  std::vector<double> per_step;
  for (int r = 0; r < rounds; ++r) {
    const std::size_t s0 = sim.stepper_stats().steps_taken;
    const double t0 = now_s();
    sim.run(block * cfg.dt);
    const double t1 = now_s();
    per_step.push_back((t1 - t0) /
                       static_cast<double>(sim.stepper_stats().steps_taken - s0));
  }
  const double step_s = quantile(per_step, 0.5);
  m->set("mag.step_us", step_s * us, "us");
  m->set("mag.active_cell_steps_per_s", active / step_s, "1/s");

  mag::VectorField field = sim.magnetization();
  m->set("mag.renormalize_us",
         seconds_per_call(rounds, 20,
                          [&] { mag::renormalize(sim.system(), field); }) * us,
         "us");

  const auto& t = in.llg.o1_t;
  const auto& mx = in.llg.o1_mx;
  double demod_us = 0.0, lockin_us = 0.0;
  if (t.size() > 2 && in.llg.frequency > 0) {
    const double f = in.llg.frequency;
    const double sample_dt = t[1] - t[0];
    const auto window = static_cast<std::size_t>(
        std::max(2.0, std::round(cfg.demod_periods / (sample_dt * f))));
    demod_us = seconds_per_call(rounds, 5, [&] {
                 mag::LockinDemodulator d(f, window);
                 for (std::size_t i = 0; i < t.size(); ++i) {
                   d.add_sample(t[i], mx[i]);
                 }
                 g_sink = g_sink + d.window_count();
               }) * us;
    lockin_us = seconds_per_call(rounds, 5, [&] {
                  const auto r = swsim::math::lockin(mx, sample_dt, f, t[0]);
                  g_sink = g_sink + (r.amplitude > 0);
                }) * us;
  }
  m->set("mag.demod_us", demod_us, "us");
  m->set("math.lockin_us", lockin_us, "us");
  m->set("core.calibrate_s", in.llg.calibrate_s, "s");
  m->set("core.row_s", in.llg.row_s, "s");
  m->set("core.row_nonstep_ms", (in.llg.row_s - steps * step_s) * 1e3, "ms");
  m->set("engine.self_ms", in.llg.engine_self_ms, "ms");

  // ------------------------------------------------------- analytic core
  m->set("core.format_report_us",
         seconds_per_call(rounds, 50,
                          [&] {
                            g_sink = g_sink + core::format_report(in.report).size();
                          }) * us,
         "us");
  const auto tt = serve::make_truth_table_spec(in.analytic.front());
  {
    auto g = tt->factory();
    m->set("core.analytic_tt_us",
           seconds_per_call(rounds, 50,
                            [&] {
                              g_sink = g_sink + core::validate_gate(*g).rows.size();
                            }) * us,
           "us");
  }
  const auto ys = serve::make_yield_spec(in.yield);
  {
    auto g = ys->factory();
    m->set("core.yield_ms",
           seconds_per_call(rounds, 3,
                            [&] {
                              g_sink = g_sink +
                                  core::estimate_yield(*g, ys->model, ys->trials)
                                      .passing;
                            }) * 1e3,
           "ms");
  }

  // -------------------------------------------------------------- engine
  engine::EngineConfig ec;
  ec.jobs = 1;
  ec.cell_jobs = 1;
  engine::BatchRunner runner(ec);
  runner.run_truth_table(tt->factory, tt->key);  // warm the hot key
  m->set("engine.tt_hit_us",
         seconds_per_call(rounds, 200,
                          [&] {
                            g_sink = g_sink +
                                runner.run_truth_table(tt->factory, tt->key)
                                    .rows.size();
                          }) * us,
         "us");
  // Fill the cache to capacity, then time never-seen keys: each call
  // misses, solves, inserts and evicts.
  Rng keys(0x5eed, 3);
  const std::vector<double> payload(10, 0.5);
  for (std::size_t i = 0; i < ec.cache_capacity; ++i) {
    runner.cache().insert(keys.next(), payload);
  }
  std::size_t next_fresh = 0;
  const int miss_calls =
      static_cast<int>(in.fresh.size()) / rounds;  // each key used once
  m->set("engine.tt_miss_us",
         seconds_per_call(rounds, std::max(1, miss_calls),
                          [&] {
                            const auto s = serve::make_truth_table_spec(
                                in.fresh[next_fresh++ % in.fresh.size()]);
                            g_sink = g_sink +
                                runner.run_truth_table(s->factory, s->key)
                                    .rows.size();
                          }) * us,
         "us");
  m->set("engine.yield_ms",
         seconds_per_call(rounds, 3,
                          [&] {
                            g_sink = g_sink +
                                runner.run_yield(ys->factory, ys->model,
                                                 ys->trials)
                                    .passing;
                          }) * 1e3,
         "ms");

  engine::ResultCache cache(ec.cache_capacity);
  std::vector<std::uint64_t> held;
  for (std::size_t i = 0; i < ec.cache_capacity; ++i) {
    held.push_back(keys.next());
    cache.insert(held.back(), payload);
  }
  std::size_t probe = 0;
  m->set("engine.cache_lookup_us",
         seconds_per_call(rounds, 4096,
                          [&] {
                            g_sink = g_sink +
                                cache.lookup(held[(probe += 7919) % held.size()])
                                    .has_value();
                          }) * us,
         "us");
  m->set("engine.cache_insert_us",
         seconds_per_call(rounds, 4096,
                          [&] { cache.insert(keys.next(), payload); }) * us,
         "us");

  // --------------------------------------------------------------- serve
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    std::perror("socketpair");
  }
  std::string err, frame;
  m->set("serve.codec_us",
         weighted(in.captures,
                  [&](const LayerInputs::Capture& c) {
                    return seconds_per_call(rounds, 100, [&] {
                      serve::write_frame(fds[0], c.response_bytes, &err);
                      serve::read_frame(fds[1], &frame, &err);
                    });
                  }) * us,
         "us");
  ::close(fds[0]);
  ::close(fds[1]);
  m->set("serve.parse_request_us",
         weighted(in.captures,
                  [&](const LayerInputs::Capture& c) {
                    return seconds_per_call(rounds, 200, [&] {
                      serve::Request r;
                      g_sink = g_sink +
                          serve::parse_request_text(c.request_bytes, &r).is_ok();
                    });
                  }) * us,
         "us");
  m->set("serve.serialize_response_us",
         weighted(in.captures,
                  [&](const LayerInputs::Capture& c) {
                    serve::Response r;
                    serve::parse_response_text(c.response_bytes, &r);
                    return seconds_per_call(rounds, 200, [&] {
                      g_sink = g_sink + serve::serialize_response(r).size();
                    });
                  }) * us,
         "us");
  m->set("serve.parse_response_us",
         weighted(in.captures,
                  [&](const LayerInputs::Capture& c) {
                    return seconds_per_call(rounds, 200, [&] {
                      serve::Response r;
                      g_sink = g_sink +
                          serve::parse_response_text(c.response_bytes, &r).is_ok();
                    });
                  }) * us,
         "us");
  if (in.captures.empty()) {
    throw std::runtime_error("layer calls need at least one captured exchange");
  }
  const auto& main_capture = *std::max_element(
      in.captures.begin(), in.captures.end(),
      [](const auto& a, const auto& b) { return a.weight < b.weight; });
  serve::Request admitted;
  serve::parse_request_text(main_capture.request_bytes, &admitted);
  serve::AdmissionQueue queue(64);
  m->set("serve.admission_us",
         seconds_per_call(rounds, 1000,
                          [&] {
                            auto p = std::make_unique<serve::PendingRequest>();
                            p->request = admitted;
                            queue.push(std::move(p));
                            g_sink = g_sink + (queue.pop() != nullptr);
                          }) * us,
         "us");
}

}  // namespace swbench
