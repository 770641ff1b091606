#include "core/micromag_gate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/logic.h"
#include "mag/zeeman_field.h"
#include "mag/thermal_field.h"
#include "math/constants.h"
#include "math/lockin.h"

namespace swsim::core {

using namespace swsim::math;
using geom::Port;

namespace {

// Rasterizes a layout-space shape onto the simulation grid, whose origin
// (cell 0,0 corner) sits at layout coordinates (ox, oy).
Mask rasterize_shifted(const Grid& g, const geom::Shape& shape, double ox,
                       double oy) {
  Mask mask(g);
  for (std::size_t iy = 0; iy < g.ny(); ++iy) {
    for (std::size_t ix = 0; ix < g.nx(); ++ix) {
      Vec3 c = g.cell_center(ix, iy, 0);
      c.x += ox;
      c.y += oy;
      if (!shape.contains(c)) continue;
      for (std::size_t iz = 0; iz < g.nz(); ++iz) {
        mask.set(g.index(ix, iy, iz), true);
      }
    }
  }
  return mask;
}

// Lock-in over the tail of a probe's record.
LockinResult tail_lockin(const std::vector<double>& t,
                         const std::vector<double>& x, double f0,
                         double settle_fraction) {
  if (t.size() < 8) {
    throw std::runtime_error(
        "MicromagTriangleGate: too few probe samples for lock-in");
  }
  const auto i0 = static_cast<std::size_t>(
      settle_fraction * static_cast<double>(t.size()));
  const std::vector<double> window(x.begin() + static_cast<long>(i0), x.end());
  const double dt = t[1] - t[0];
  return lockin(window, dt, f0, t[i0]);
}

}  // namespace

MicromagTriangleGate::MicromagTriangleGate(const MicromagGateConfig& config)
    : config_(config),
      layout_(config.params),
      dispersion_(config.material, config.film_thickness) {
  if (!(config_.cell_size > 0.0)) {
    throw std::invalid_argument("MicromagTriangleGate: cell_size must be > 0");
  }
  if (config_.cell_size > config_.params.wavelength / 4.0) {
    throw std::invalid_argument(
        "MicromagTriangleGate: need >= 4 cells per wavelength");
  }
  if (!(config_.settle_fraction > 0.0) || config_.settle_fraction >= 0.95) {
    throw std::invalid_argument(
        "MicromagTriangleGate: settle_fraction must be in (0, 0.95)");
  }

  const double k = wavenet::Dispersion::k_of_lambda(config_.params.wavelength);
  frequency_ = dispersion_.frequency(k);

  // Absorber tails: one behind each antenna, one beyond each detector.
  const double tail_len =
      config_.absorber_wavelengths * config_.params.wavelength;
  for (const geom::PortSite& site : layout_.ports()) {
    // I3 sits transparently in the middle of the axis: no tail there (it
    // would sever the waveguide). Its backward-launched wave is absorbed in
    // the input-arm tails after passing V.
    if (site.port == Port::kIn3) continue;
    const bool is_output =
        site.port == Port::kOut1 || site.port == Port::kOut2;
    tails_.push_back(Tail{site.center,
                          is_output ? site.direction : -1.0 * site.direction});
  }

  const geom::Rect bb = layout_.bounding_box(config_.margin);
  double x0 = bb.x0(), y0 = bb.y0(), x1 = bb.x1(), y1 = bb.y1();
  for (const Tail& tail : tails_) {
    const Vec3 end = tail.start + tail.dir * (tail_len + config_.margin);
    x0 = std::min(x0, end.x - config_.params.width);
    y0 = std::min(y0, end.y - config_.params.width);
    x1 = std::max(x1, end.x + config_.params.width);
    y1 = std::max(y1, end.y + config_.params.width);
  }
  origin_x_ = x0;
  origin_y_ = y0;
  const auto nx =
      static_cast<std::size_t>(std::ceil((x1 - x0) / config_.cell_size));
  const auto ny =
      static_cast<std::size_t>(std::ceil((y1 - y0) / config_.cell_size));
  grid_ = Grid::film(nx, ny, config_.cell_size, config_.cell_size,
                     config_.film_thickness);

  body_ = rasterize_shifted(grid_, layout_.body(), origin_x_, origin_y_);
  for (const Tail& tail : tails_) {
    const geom::Segment seg(
        Vec3{tail.start.x - origin_x_, tail.start.y - origin_y_, 0},
        Vec3{tail.start.x + tail.dir.x * tail_len - origin_x_,
             tail.start.y + tail.dir.y * tail_len - origin_y_, 0},
        config_.params.width);
    body_ |= geom::rasterize(grid_, seg);
  }
  if (config_.roughness) {
    body_ = geom::apply_edge_roughness(body_, *config_.roughness);
  }

  // Per-cell damping: quadratic ramp from the material value at each tail
  // mouth to absorber_alpha at the tail end.
  alpha_ = ScalarField(grid_, config_.material.alpha);
  const double alpha0 = config_.material.alpha;
  const double alpha1 = std::max(alpha0, config_.absorber_alpha);
  for (std::size_t iy = 0; iy < grid_.ny(); ++iy) {
    for (std::size_t ix = 0; ix < grid_.nx(); ++ix) {
      const std::size_t i = grid_.index(ix, iy, 0);
      if (!body_[i]) continue;
      Vec3 pos = grid_.cell_center(ix, iy, 0);
      pos.x += origin_x_;
      pos.y += origin_y_;
      double worst = alpha0;
      for (const Tail& tail : tails_) {
        const Vec3 rel = pos - tail.start;
        const double along = dot(rel, tail.dir);
        const double across =
            std::fabs(rel.x * (-tail.dir.y) + rel.y * tail.dir.x);
        if (along <= 0.0 || along > tail_len ||
            across > config_.params.width) {
          continue;
        }
        const double s = std::min(1.0, along / tail_len);
        worst = std::max(worst, alpha0 + (alpha1 - alpha0) * s * s);
      }
      for (std::size_t iz = 0; iz < grid_.nz(); ++iz) {
        alpha_[grid_.index(ix, iy, iz)] = worst;
      }
    }
  }

  // Longest input->output path sets the transit time (the convergence
  // trackers' earliest-decision floor, and the default duration).
  double longest = 0.0;
  for (Port in : {Port::kIn1, Port::kIn2, Port::kIn3}) {
    if (in == Port::kIn3 && !config_.params.has_third_input) continue;
    for (Port out : {Port::kOut1, Port::kOut2}) {
      longest = std::max(longest, layout_.path_length(in, out));
    }
  }
  transit_time_ = longest / dispersion_.group_velocity(k);

  if (config_.duration > 0.0) {
    duration_ = config_.duration;
  } else {
    // Give the wave twice the transit time plus a generous settled window
    // for the lock-in.
    duration_ = 2.0 * transit_time_ + 20.0 / frequency_;
  }
}

std::string MicromagTriangleGate::name() const {
  return config_.params.has_third_input ? "micromag-triangle-MAJ3"
                                        : "micromag-triangle-XOR";
}

bool MicromagTriangleGate::reference(const std::vector<bool>& inputs) const {
  if (config_.params.has_third_input) {
    return maj3(inputs.at(0), inputs.at(1), inputs.at(2));
  }
  return xor2(inputs.at(0), inputs.at(1));
}

MicromagEvaluation MicromagTriangleGate::run(const std::vector<bool>& inputs) {
  swsim::mag::System sys(grid_, config_.material, body_);
  sys.set_alpha_field(alpha_);
  swsim::mag::Simulation sim(std::move(sys));
  sim.add_standard_terms();
  if (config_.temperature > 0.0) {
    sim.add_term(std::make_unique<swsim::mag::ThermalField>(
        config_.temperature, config_.thermal_seed));
    sim.set_stepper(swsim::mag::StepperKind::kHeun, config_.dt);
  } else {
    sim.set_stepper(swsim::mag::StepperKind::kRk4, config_.dt);
  }

  const double extent =
      config_.antenna_extent_factor * config_.params.wavelength;
  const Port in_ports[3] = {Port::kIn1, Port::kIn2, Port::kIn3};
  for (std::size_t i = 0; i < num_inputs(); ++i) {
    const geom::PortSite& site = layout_.port(in_ports[i]);
    const Vec3 half = site.direction * (extent / 2.0);
    const geom::Segment patch(
        Vec3{site.center.x - half.x - origin_x_,
             site.center.y - half.y - origin_y_, 0},
        Vec3{site.center.x + half.x - origin_x_,
             site.center.y + half.y - origin_y_, 0},
        config_.params.width);
    Mask region = geom::rasterize(grid_, patch);
    region &= body_;
    if (region.count() == 0) {
      throw std::runtime_error(name() + ": antenna region " +
                               geom::to_string(in_ports[i]) +
                               " rasterized to zero cells");
    }
    sim.add_term(std::make_unique<swsim::mag::AntennaField>(
        std::move(region), config_.drive_amplitude, Vec3{1, 0, 0},
        frequency_, logic_phase(inputs[i])));
  }

  const double sample_dt = 1.0 / (32.0 * frequency_);
  for (Port out : {Port::kOut1, Port::kOut2}) {
    const geom::PortSite& site = layout_.port(out);
    const Vec3 half = site.direction * (extent / 2.0);
    const geom::Segment patch(
        Vec3{site.center.x - half.x - origin_x_,
             site.center.y - half.y - origin_y_, 0},
        Vec3{site.center.x + half.x - origin_x_,
             site.center.y + half.y - origin_y_, 0},
        config_.params.width);
    Mask region = geom::rasterize(grid_, patch);
    region &= body_;
    if (region.count() == 0) {
      throw std::runtime_error(name() + ": detector region " +
                               geom::to_string(out) +
                               " rasterized to zero cells");
    }
    sim.add_probe(geom::to_string(out), region, sample_dt);
  }

  if (config_.live_probes) {
    // 32 samples per drive period (sample_dt above), so demod_periods
    // drive periods span demod_periods * 32 samples per tumbling window.
    const auto window = static_cast<std::size_t>(std::max(
        2.0, std::round(config_.demod_periods / (sample_dt * frequency_))));
    for (const char* out : {"O1", "O2"}) {
      sim.probe(out).arm_demodulator(frequency_, window);
    }
    swsim::obs::ConvergencePolicy policy = config_.convergence;
    if (policy.min_time <= 0.0) {
      // Never decide before the wave has reached the farthest output and
      // had a few periods to settle.
      policy.min_time = transit_time_ + 8.0 / frequency_;
    }
    sim.set_convergence(policy, config_.early_stop);
    std::string label = name() + " ";
    for (const bool b : inputs) label += b ? '1' : '0';
    sim.set_telemetry_label(std::move(label));
  }

  sim.set_watchdog(config_.watchdog);
  sim.set_cancel_token(cancel_token_);
  const robust::Status solve = sim.run_guarded(duration_);
  if (!solve.is_ok()) {
    std::string in_bits;
    for (const bool b : inputs) in_bits += b ? '1' : '0';
    throw robust::SolveError(
        solve.with_context(name() + " inputs=" + in_bits));
  }

  MicromagEvaluation ev;
  ev.frequency = frequency_;
  const auto& p1 = sim.probe("O1");
  const auto& p2 = sim.probe("O2");
  const LockinResult l1 =
      tail_lockin(p1.times(), p1.mx(), frequency_, config_.settle_fraction);
  const LockinResult l2 =
      tail_lockin(p2.times(), p2.mx(), frequency_, config_.settle_fraction);
  ev.o1_amplitude = l1.amplitude;
  ev.o2_amplitude = l2.amplitude;
  ev.o1_phase = l1.phase;
  ev.o2_phase = l2.phase;

  ev.snapshot_mx = ScalarField(grid_);
  const auto& m = sim.magnetization();
  for (std::size_t i = 0; i < m.size(); ++i) ev.snapshot_mx[i] = m[i].x;
  ev.body = body_;
  for (const auto* p : {&p1, &p2}) {
    ev.probe_series.push_back(
        {p->name(), p->times(), p->mx(), p->my(), p->mz()});
  }
  ev.saved_steps = sim.early_stop_saved_steps();
  return ev;
}

void MicromagTriangleGate::ensure_calibration() {
  if (calibrated_) return;
  const std::vector<bool> zeros(num_inputs(), false);
  const MicromagEvaluation ref = run(zeros);
  ref_amplitude_ = std::max(ref.o1_amplitude, ref.o2_amplitude);
  if (!(ref_amplitude_ > 0.0)) {
    throw std::runtime_error(name() +
                             ": calibration run produced zero output "
                             "amplitude - no wave reached the detectors");
  }
  ref_phase_o1_ = ref.o1_phase;
  ref_phase_o2_ = ref.o2_phase;
  calibrated_ = true;
}

MicromagCalibration MicromagTriangleGate::calibrate() {
  ensure_calibration();
  return {ref_amplitude_, ref_phase_o1_, ref_phase_o2_};
}

std::optional<MicromagCalibration> MicromagTriangleGate::calibration() const {
  if (!calibrated_) return std::nullopt;
  return MicromagCalibration{ref_amplitude_, ref_phase_o1_, ref_phase_o2_};
}

void MicromagTriangleGate::set_calibration(const MicromagCalibration& c) {
  if (!(c.ref_amplitude > 0.0)) {
    throw std::invalid_argument(
        name() + ": injected calibration needs ref_amplitude > 0");
  }
  ref_amplitude_ = c.ref_amplitude;
  ref_phase_o1_ = c.ref_phase_o1;
  ref_phase_o2_ = c.ref_phase_o2;
  calibrated_ = true;
}

MicromagEvaluation MicromagTriangleGate::evaluate_full(
    const std::vector<bool>& inputs) {
  if (inputs.size() != num_inputs()) {
    throw std::invalid_argument(name() + ": expected " +
                                std::to_string(num_inputs()) + " inputs");
  }
  ensure_calibration();
  MicromagEvaluation ev = run(inputs);

  auto detect = [&](double amplitude, double phase, double ref_phase) {
    wavenet::Detection d;
    d.amplitude = amplitude;
    d.phase = wrap_phase(phase - ref_phase);
    if (config_.params.has_third_input) {
      // Phase detection relative to the logic-0 calibration phase.
      const double dist0 = phase_distance(d.phase, 0.0);
      const double dist1 = phase_distance(d.phase, kPi);
      d.logic = dist1 < dist0;
      d.margin = std::fabs(dist0 - dist1) / 2.0;
    } else {
      // Threshold detection on the normalized amplitude (paper: 0.5).
      const double normalized = amplitude / ref_amplitude_;
      d.logic = !(normalized > 0.5);
      d.margin = std::fabs(normalized - 0.5);
    }
    return d;
  };

  ev.outputs.o1 = detect(ev.o1_amplitude, ev.o1_phase, ref_phase_o1_);
  ev.outputs.o2 = detect(ev.o2_amplitude, ev.o2_phase, ref_phase_o2_);
  ev.outputs.normalized_o1 = ev.o1_amplitude / ref_amplitude_;
  ev.outputs.normalized_o2 = ev.o2_amplitude / ref_amplitude_;
  return ev;
}

FanoutOutputs MicromagTriangleGate::evaluate(const std::vector<bool>& inputs) {
  return evaluate_full(inputs).outputs;
}

}  // namespace swsim::core
