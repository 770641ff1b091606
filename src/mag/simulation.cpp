#include "mag/simulation.h"

#include <cmath>
#include <stdexcept>

#include "obs/obs.h"

#include "mag/anisotropy_field.h"
#include "mag/demag_field.h"
#include "mag/exchange_field.h"
#include "math/constants.h"

namespace swsim::mag {

Simulation::Simulation(System system)
    : system_(std::move(system)),
      m_(system_.uniform_magnetization({0, 0, 1})),
      stepper_(std::make_unique<Stepper>(StepperKind::kRk4,
                                         swsim::math::ps(0.05))) {}

void Simulation::set_magnetization(const VectorField& m) {
  if (!(m.grid() == system_.grid())) {
    throw std::invalid_argument("Simulation: magnetization grid mismatch");
  }
  // Vacuum is exactly +0.0 (system.h): whatever m holds there, including
  // -0.0, is dropped, so every stepper path sees the same bytes. Built
  // aside first, since m may be this simulation's own magnetization.
  VectorField canonical(system_.grid());
  for (const std::uint32_t i : system_.active_cells()) canonical[i] = m[i];
  m_ = std::move(canonical);
  renormalize(system_, m_);
}

FieldTerm& Simulation::add_term(std::unique_ptr<FieldTerm> term) {
  if (!term) throw std::invalid_argument("Simulation: null field term");
  terms_.push_back(std::move(term));
  return *terms_.back();
}

void Simulation::add_standard_terms() {
  add_term(std::make_unique<ExchangeField>());
  add_term(std::make_unique<UniaxialAnisotropyField>(Vec3{0, 0, 1}));
  add_term(std::make_unique<ThinFilmDemagField>());
}

RegionProbe& Simulation::add_probe(const std::string& name,
                                   const swsim::math::Mask& region,
                                   double sample_dt) {
  probes_.push_back(std::make_unique<RegionProbe>(name, region, sample_dt));
  return *probes_.back();
}

RegionProbe& Simulation::probe(const std::string& name) {
  for (auto& p : probes_) {
    if (p->name() == name) return *p;
  }
  throw std::invalid_argument("Simulation: no probe named '" + name + "'");
}

void Simulation::set_stepper(StepperKind kind, double dt, double tolerance) {
  stepper_ = std::make_unique<Stepper>(kind, dt, tolerance);
  stepper_->set_watchdog(watchdog_);
}

void Simulation::set_watchdog(const robust::WatchdogConfig& config) {
  watchdog_ = config;
  stepper_->set_watchdog(config);
}

void Simulation::set_cancel_token(const robust::CancelToken& token) {
  cancel_token_ = token;
}

void Simulation::set_convergence(const obs::ConvergencePolicy& policy,
                                 bool early_stop) {
  convergence_ = policy;
  early_stop_ = early_stop;
  trackers_.assign(probes_.size(), obs::ConvergenceTracker(policy));
}

void Simulation::set_telemetry_label(std::string label) {
  telemetry_label_ = std::move(label);
}

bool Simulation::all_converged() const {
  if (!convergence_ || trackers_.empty() ||
      trackers_.size() != probes_.size()) {
    return false;
  }
  for (const auto& tracker : trackers_) {
    if (!tracker.converged()) return false;
  }
  return true;
}

void Simulation::ensure_trackers() {
  if (!convergence_) {
    trackers_.clear();
    return;
  }
  if (trackers_.size() != probes_.size()) {
    trackers_.assign(probes_.size(), obs::ConvergenceTracker(*convergence_));
  }
}

void Simulation::on_window_completed(std::size_t i) {
  RegionProbe& p = *probes_[i];
  const LockinDemodulator* demod = p.demodulator();
  if (!demod || demod->window_count() == 0) return;
  const std::uint64_t window = demod->window_count();
  const double wt = demod->times().back();
  const double amplitude = demod->amplitude().back();
  const double phase = demod->phase().back();

  obs::PhysicsRegistry::global().record_window(p.name(), amplitude, phase);
  if (obs::metrics_armed()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("mag.probe.windows").add();
    // Gauges are integral; export the tiny normalized amplitudes in nano
    // units and phases in milliradians.
    reg.gauge("mag.probe." + p.name() + ".amplitude_nano")
        .set(static_cast<std::int64_t>(std::llround(amplitude * 1e9)));
    reg.gauge("mag.probe." + p.name() + ".phase_mrad")
        .set(static_cast<std::int64_t>(std::llround(phase * 1e3)));
  }

  if (convergence_ && i < trackers_.size()) {
    if (trackers_[i].add_window(wt, amplitude, phase)) {
      obs::PhysicsRegistry::global().record_converged(p.name(), wt);
      obs::MetricsRegistry::global().counter("mag.probe.converged").add();
      auto& elog = obs::EventLog::global();
      if (elog.enabled(obs::LogLevel::kInfo)) {
        elog.event(obs::LogLevel::kInfo, "probe.converged_at")
            .str("probe", p.name())
            .num("t_sim_s", wt)
            .uint("window", window)
            .emit();
      }
    }
  }

  auto& hub = obs::ProbeHub::global();
  if (hub.active()) {
    obs::ProbeHub::Frame frame;
    frame.job = telemetry_label_;
    frame.probe = p.name();
    frame.window = window;
    frame.t = wt;
    frame.amplitude = amplitude;
    frame.phase = phase;
    if (convergence_ && i < trackers_.size() && trackers_[i].converged()) {
      frame.converged = true;
      frame.converged_at = trackers_[i].converged_at();
    }
    hub.publish(frame);
  }
}

const StepperStats& Simulation::stepper_stats() const {
  return stepper_->stats();
}

void Simulation::run(double duration) {
  if (!(duration >= 0.0)) {
    throw std::invalid_argument("Simulation::run: negative duration");
  }
  const double t_end = time_ + duration;
  energy_watchdog_.reset();
  ensure_trackers();
  std::size_t steps = 0;
  obs::Span span("sim.run", "mag");
  // Per-step spans would swamp the trace (tens of thousands of RK4 steps);
  // instead buffer blocks of steps and emit one complete event per block.
  constexpr std::size_t kTraceBlock = 256;
  double block_t0_us = 0.0;
  std::size_t block_steps = 0;
  // Record the initial state so probes always hold the t = start sample.
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    if (probes_[i]->maybe_record(system_, m_, time_)) on_window_completed(i);
  }
  // The kernel path keeps the state in slot order for the whole run: m_
  // is written when a probe sample or the energy check reads it, and when
  // this scope ends, however run() leaves.
  Stepper::Resident resident(*stepper_, m_);
  while (time_ < t_end - 1e-18) {
    if (cancel_token_.cancelled()) {
      throw robust::SolveError(robust::Status::error(
          robust::StatusCode::kCancelled,
          "cancelled at t = " + std::to_string(time_) + " s"));
    }
    if (obs::tracing()) {
      if (block_steps == 0) block_t0_us = obs::now_us();
      if (++block_steps == kTraceBlock) {
        obs::record_complete("llg.steps x" + std::to_string(block_steps),
                             "mag", block_t0_us);
        block_steps = 0;
      }
    }
    const double taken = stepper_->step(system_, terms_, m_, time_);
    time_ += taken;
    obs::ProgressReporter::global().on_llg_steps(1);
    for (const auto& p : probes_) {
      if (p->due(time_)) {
        resident.sync();
        break;
      }
    }
    bool window_done = false;
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      if (probes_[i]->maybe_record(system_, m_, time_)) {
        on_window_completed(i);
        window_done = true;
      }
    }
    if (window_done && early_stop_ && time_ < t_end - 1e-18 &&
        all_converged()) {
      // Every port's envelope has settled: the remainder of the solve
      // cannot change the detector verdicts, so stop integrating and
      // report the steps the decision saved.
      const auto saved = static_cast<std::uint64_t>(
          (t_end - time_) / stepper_->dt());
      early_stop_saved_steps_ += saved;
      obs::PhysicsRegistry::global().record_early_stop(saved);
      obs::MetricsRegistry::global()
          .counter("mag.early_stop.saved_steps")
          .add(saved);
      auto& elog = obs::EventLog::global();
      if (elog.enabled(obs::LogLevel::kInfo)) {
        elog.event(obs::LogLevel::kInfo, "early_stop")
            .num("t_sim_s", time_)
            .num("t_end_s", t_end)
            .uint("saved_steps", saved)
            .emit();
      }
      break;
    }
    if (watchdog_.cadence > 0 && ++steps % watchdog_.cadence == 0) {
      obs::Span check_span("watchdog.energy", "robust");
      resident.sync();
      double exchange_j = 0.0;
      const double energy_j = total_energy(&exchange_j);
      obs::PhysicsRegistry::global().record_energy(energy_j, exchange_j);
      const robust::Status health =
          energy_watchdog_.check(energy_j,
                                 watchdog_.energy_growth_factor,
                                 watchdog_.energy_warmup_checks);
      if (!health.is_ok()) {
        obs::MetricsRegistry::global()
            .counter("robust.watchdog_trips")
            .add();
        auto& elog = obs::EventLog::global();
        if (elog.enabled(obs::LogLevel::kWarn)) {
          elog.event(obs::LogLevel::kWarn, "watchdog_trip")
              .str("kind", "energy")
              .num("t_sim_s", time_)
              .uint("step", steps)
              .str("message", health.message())
              .emit();
        }
        throw robust::SolveError(health.with_context(
            "t = " + std::to_string(time_) + " s"));
      }
    }
  }
  if (block_steps > 0 && obs::tracing()) {
    obs::record_complete("llg.steps x" + std::to_string(block_steps), "mag",
                         block_t0_us);
  }
}

robust::Status Simulation::run_guarded(double duration) {
  // Checkpoint everything a failed attempt mutates: the magnetization, the
  // clock, the probe records, and the convergence trackers riding on them.
  // Field terms are stateless across steps for the conservative physics;
  // stochastic terms redraw per step anyway.
  const VectorField m0 = m_;
  const double t0 = time_;
  std::vector<RegionProbe::Checkpoint> probe_cps;
  probe_cps.reserve(probes_.size());
  for (const auto& p : probes_) probe_cps.push_back(p->checkpoint());
  ensure_trackers();
  std::vector<obs::ConvergenceTracker::Checkpoint> tracker_cps;
  tracker_cps.reserve(trackers_.size());
  for (const auto& tracker : trackers_) tracker_cps.push_back(tracker.checkpoint());
  const std::uint64_t saved_steps0 = early_stop_saved_steps_;

  double dt = stepper_->dt();
  for (std::size_t halvings = 0;; ++halvings) {
    try {
      run(duration);
      return robust::Status::ok();
    } catch (const robust::SolveError& e) {
      const robust::Status& failure = e.status();
      const bool divergence = failure.code() ==
                              robust::StatusCode::kNumericalDivergence;
      if (!divergence || halvings >= watchdog_.max_step_halvings) {
        return failure;
      }
      obs::MetricsRegistry::global().counter("robust.step_halvings").add();
      {
        auto& elog = obs::EventLog::global();
        if (elog.enabled(obs::LogLevel::kWarn)) {
          elog.event(obs::LogLevel::kWarn, "step_halving")
              .uint("halvings", halvings + 1)
              .num("dt_new_s", dt * 0.5)
              .str("message", failure.message())
              .emit();
        }
      }
      // Rewind and re-solve the interval at half the step size.
      m_ = m0;
      time_ = t0;
      for (std::size_t i = 0; i < probes_.size(); ++i) {
        probes_[i]->restore(probe_cps[i]);
      }
      for (std::size_t i = 0; i < trackers_.size(); ++i) {
        trackers_[i].restore(tracker_cps[i]);
      }
      early_stop_saved_steps_ = saved_steps0;
      dt *= 0.5;
      set_stepper(stepper_->kind(), dt, stepper_->tolerance());
    }
  }
}

double Simulation::relax(double max_time, double torque_tol,
                         double relax_alpha) {
  obs::Span span("sim.relax", "mag");
  // Integrate a high-damping copy of the system; probes are not advanced
  // (relaxation is preparation, not physics being measured).
  Material relax_mat = system_.material();
  relax_mat.alpha = relax_alpha;
  System relax_sys(system_.grid(), relax_mat, system_.mask());
  relax_sys.set_ms_scale(system_.ms_scale());

  Stepper stepper(StepperKind::kRk4, swsim::math::ps(0.1));
  double t = 0.0;
  double torque = max_torque();
  while (t < max_time && torque > torque_tol) {
    t += stepper.step(relax_sys, terms_, m_, time_);
    torque = max_torque();
  }
  return torque;
}

double Simulation::total_energy(double* exchange_j) const {
  double e = 0.0;
  double exchange = 0.0;
  for (const auto& term : terms_) {
    const double te = term->energy(system_, m_);
    if (!std::isnan(te)) {
      e += te;
      if (exchange_j && term->name() == "exchange") exchange += te;
    }
  }
  if (exchange_j) *exchange_j = exchange;
  return e;
}

double Simulation::max_torque() {
  VectorField h(system_.grid());
  effective_field(system_, terms_, m_, time_, h);
  double worst = 0.0;
  const auto& mask = system_.mask();
  for (std::size_t i = 0; i < m_.size(); ++i) {
    if (!mask[i]) continue;
    worst = std::max(worst, norm(cross(m_[i], h[i])));
  }
  return worst;
}

}  // namespace swsim::mag
