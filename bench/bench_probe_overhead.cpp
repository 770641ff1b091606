// Overhead accounting for the in-situ physics telemetry: what one LLG
// solve pays for (a) live lock-in demodulation + convergence tracking +
// physics metrics while armed, and (b) live probe-stream subscribers on
// top, versus a fully disarmed solve. The same run proves the bounded
// fan-out contract: an abandoned slow subscriber loses its oldest frames
// (dropped counter) and can never hang the solver or the stream.
//
// Disarmed and armed solves alternate for a fixed number of pairs, so host
// speed drift lands on both sides alike; every sample is recorded.
// Self-gating: the median paired armed overhead must stay <= 5% and
// hung_streams == 0.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "core/micromag_gate.h"
#include "math/constants.h"
#include "obs/metrics.h"
#include "obs/physics.h"

using namespace swsim;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

core::MicromagGateConfig bench_config(bool live_probes, bool quick) {
  core::MicromagGateConfig cfg;
  cfg.params =
      geom::TriangleGateParams::reduced_maj3(math::nm(50), math::nm(20));
  cfg.cell_size = math::nm(5);
  // Fixed short duration (not the auto transit-based one): long enough for
  // several completed demodulation windows, short enough to repeat. The
  // telemetry cost per step is what's measured; logic margins are not.
  cfg.duration = quick ? 0.8e-9 : 1.5e-9;
  cfg.live_probes = live_probes;
  return cfg;
}

// Wall time of one LLG evaluation with a pre-injected calibration, so
// only the solve itself is timed.
double time_solve(const core::MicromagGateConfig& cfg,
                  const core::MicromagCalibration& calib) {
  core::MicromagTriangleGate gate(cfg);
  gate.set_calibration(calib);
  const double t0 = now_s();
  (void)gate.evaluate_full({true, false, true});
  return now_s() - t0;
}

double pct_over(double value, double base) {
  return base > 0.0 ? (value - base) / base * 100.0 : 0.0;
}

double median(const std::vector<double>& samples) {
  return bench::compute_stats(samples).median;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("probe_overhead", &argc, argv);
  const bool quick = harness.quick();
  const int pairs = quick ? 3 : 9;

  // One calibration feeds every timed solve; live_probes is passive, so
  // the reference run is identical for both configurations.
  core::MicromagCalibration calib;
  {
    core::MicromagTriangleGate gate(bench_config(false, quick));
    calib = gate.calibrate();
  }

  // (a) Disarmed (no live demodulators, metrics off) against (b) armed
  // (per-probe online lock-in, convergence tracking, gauges, counters,
  // energy series — everything but a stream consumer), one pair at a time.
  std::vector<double> base_s, armed_s, overhead_pct;
  for (int i = 0; i < pairs; ++i) {
    obs::MetricsRegistry::disarm();
    base_s.push_back(time_solve(bench_config(false, quick), calib));
    obs::MetricsRegistry::arm();
    armed_s.push_back(time_solve(bench_config(true, quick), calib));
    overhead_pct.push_back(pct_over(armed_s.back(), base_s.back()));
  }
  const double armed_overhead_pct = median(overhead_pct);

  // (c) Streaming on top: one live consumer draining frames, plus an
  // abandoned subscriber (capacity 2, never drained) that must shed its
  // oldest frames instead of ever blocking the publisher.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> consumed{0};
  auto sub = obs::ProbeHub::global().subscribe();
  auto slow = obs::ProbeHub::global().subscribe(2);
  std::thread consumer([&] {
    obs::ProbeHub::Frame frame;
    while (!stop.load(std::memory_order_relaxed)) {
      if (sub->next(&frame, 0.05)) {
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<double> streamed_s;
  for (int i = 0; i < pairs; ++i) {
    streamed_s.push_back(time_solve(bench_config(true, quick), calib));
  }
  stop.store(true, std::memory_order_relaxed);
  const double j0 = now_s();
  consumer.join();  // bounded: next() waits at most 50 ms per round
  const double join_s = now_s() - j0;
  const std::uint64_t frames_streamed = consumed.load();
  const std::uint64_t frames_dropped = slow->dropped();
  const int hung_streams = join_s > 5.0 ? 1 : 0;
  sub.reset();
  slow.reset();
  obs::MetricsRegistry::disarm();

  harness.record_samples("disarmed_solve", "s", base_s);
  harness.record_samples("armed_solve", "s", armed_s);
  harness.record_samples("streamed_solve", "s", streamed_s);
  harness.add_scalar("armed_overhead_pct", armed_overhead_pct);
  harness.add_scalar("streaming_overhead_pct",
                     pct_over(median(streamed_s), median(armed_s)));
  harness.add_scalar("frames_streamed", static_cast<double>(frames_streamed));
  harness.add_scalar("frames_dropped_slow",
                     static_cast<double>(frames_dropped));
  harness.add_scalar("hung_streams", static_cast<double>(hung_streams));

  std::printf(
      "probe overhead (medians of %d): disarmed %.3f s, armed %.3f s "
      "(paired %+.2f%%), streamed %.3f s; %llu frames consumed, %llu "
      "dropped by the abandoned subscriber\n",
      pairs, median(base_s), median(armed_s), armed_overhead_pct,
      median(streamed_s),
      static_cast<unsigned long long>(frames_streamed),
      static_cast<unsigned long long>(frames_dropped));

  bool ok = harness.finish();
  if (armed_overhead_pct > 5.0) {
    std::fprintf(stderr,
                 "bench_probe_overhead: median paired armed overhead %.2f%% "
                 "exceeds the 5%% budget\n",
                 armed_overhead_pct);
    ok = false;
  }
  if (hung_streams != 0) {
    std::fprintf(stderr,
                 "bench_probe_overhead: stream consumer took %.1f s to stop "
                 "(hung)\n",
                 join_s);
    ok = false;
  }
  if (frames_streamed == 0) {
    std::fprintf(stderr,
                 "bench_probe_overhead: no frames reached the consumer — "
                 "the publish path is dead\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
