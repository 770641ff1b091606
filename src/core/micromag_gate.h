// Micromagnetic-backend triangle gate: the same FanoutGate interface as the
// analytical gates, but every evaluation is a full LLG simulation of the
// rasterized device — our equivalent of the paper's MuMax3 validation
// (Fig. 5, Tables I/II).
//
// The device is the same triangle layout at reduced scale (dimension rules
// in units of lambda preserved; see DESIGN.md) so a full run is CPU
// feasible: the film is discretized, antennas drive the input regions with
// phase 0 or pi, the wave propagates and interferes, and lock-in analysis
// at the drive frequency extracts amplitude and phase at the two detector
// regions. Phase reference and normalization amplitude come from a
// calibration run with all inputs at logic 0.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/gate.h"
#include "geom/gate_layout.h"
#include "geom/roughness.h"
#include "mag/simulation.h"
#include "math/field.h"
#include "wavenet/dispersion.h"

namespace swsim::core {

struct MicromagGateConfig {
  geom::TriangleGateParams params =
      geom::TriangleGateParams::reduced_maj3(swsim::math::nm(50),
                                             swsim::math::nm(20));
  swsim::mag::Material material = swsim::mag::Material::fecob();
  double film_thickness = swsim::math::nm(1);
  double cell_size = swsim::math::nm(4);       // in-plane discretization
  double drive_amplitude = 4.0e3;              // antenna field [A/m]
  double antenna_extent_factor = 0.25;         // antenna length in lambda
  // Total simulated time; must cover transit to the outputs plus enough
  // settled periods for the lock-in window. <= 0 chooses automatically from
  // the group velocity and the longest path.
  double duration = 0.0;
  double dt = swsim::math::ps(0.25);           // RK4 step
  double settle_fraction = 0.6;  // lock-in uses the last (1 - this) of t
  double temperature = 0.0;                    // K; > 0 adds thermal noise
  std::uint64_t thermal_seed = 7;
  std::optional<geom::RoughnessParams> roughness;  // edge-roughness injection
  double margin = swsim::math::nm(20);         // vacuum margin around device
  // Absorbing boundary layers: waveguide tails appended behind every
  // antenna and beyond every detector, with Gilbert damping ramped
  // quadratically from the material value to absorber_alpha. They suppress
  // end reflections so the device operates on travelling waves (the same
  // technique device-scale MuMax3 studies use).
  double absorber_wavelengths = 2.0;  // tail length in units of lambda
  double absorber_alpha = 0.5;        // damping at the tail end
  // Numerical health policy for every LLG solve this gate runs: scan
  // cadence, divergence thresholds, and the step-halving retry budget
  // (see robust/watchdog.h). Part of the cache key: a recovered solve can
  // legitimately differ bit-for-bit from an unguarded one.
  swsim::robust::WatchdogConfig watchdog;
  // Live telemetry: with live_probes each detector probe runs an online
  // lock-in demodulator at the drive frequency (tumbling window of
  // demod_periods drive periods) feeding convergence tracking, the
  // physics block of swsim.profile/1, and the serve-plane probe stream.
  // Passive observation: the stored probe series and the offline lock-in
  // that decides logic are untouched, so output bytes do not change.
  bool live_probes = true;
  double demod_periods = 4.0;
  // Convergence policy for the live envelopes. min_time <= 0 is replaced
  // per solve by the wave transit time to the farthest output plus a
  // settling allowance, so a port the wave has not reached cannot count
  // as decided.
  swsim::obs::ConvergencePolicy convergence;
  // Terminate each LLG solve once both detector envelopes have settled.
  // This shortens the series the offline lock-in sees, so raw amplitudes
  // (and output bytes) may differ from a full-length solve; detected
  // *logic* must not. Off by default.
  bool early_stop = false;
};

// The calibration run's distilled output: the all-zero-input reference
// that normalizes amplitudes and anchors phase detection. Deterministic
// for a given MicromagGateConfig, so it can be computed once and injected
// into sibling gate instances (the engine's parallel truth-table path runs
// one calibration job, and the per-row evaluation jobs only after it).
struct MicromagCalibration {
  double ref_amplitude = 0.0;
  double ref_phase_o1 = 0.0;
  double ref_phase_o2 = 0.0;
};

struct MicromagEvaluation {
  FanoutOutputs outputs;
  double o1_amplitude = 0.0;  // raw lock-in amplitude (m_x precession)
  double o2_amplitude = 0.0;
  double o1_phase = 0.0;      // raw lock-in phase [rad]
  double o2_phase = 0.0;
  double frequency = 0.0;     // drive frequency used [Hz]
  // Final m_x map for Fig. 5-style snapshot rendering.
  swsim::math::ScalarField snapshot_mx;
  swsim::math::Mask body;
  // Detector time series as recorded (for --probe-out / offline spectra).
  struct ProbeSeries {
    std::string name;
    std::vector<double> t, mx, my, mz;
  };
  std::vector<ProbeSeries> probe_series;
  // Integration steps skipped by early stop (0 when disabled or the solve
  // ran to full duration).
  std::uint64_t saved_steps = 0;
};

class MicromagTriangleGate final : public FanoutGate {
 public:
  explicit MicromagTriangleGate(const MicromagGateConfig& config);

  std::string name() const override;
  std::size_t num_inputs() const override {
    return config_.params.has_third_input ? 3 : 2;
  }
  FanoutOutputs evaluate(const std::vector<bool>& inputs) override;
  bool reference(const std::vector<bool>& inputs) const override;
  int excitation_cells() const override {
    return static_cast<int>(num_inputs());
  }

  // Full evaluation with raw observables and the snapshot field.
  MicromagEvaluation evaluate_full(const std::vector<bool>& inputs);

  // Runs the calibration simulation now (evaluate() otherwise runs it
  // lazily on first use) and returns the result; idempotent.
  MicromagCalibration calibrate();
  // The calibration if one has been run or injected.
  std::optional<MicromagCalibration> calibration() const;
  // Injects a calibration computed by another instance with the SAME
  // config (same content hash); skips this instance's calibration run.
  void set_calibration(const MicromagCalibration& c);

  // Polled by every LLG solve; a fired token aborts evaluate() with
  // robust::SolveError(kCancelled).
  void set_cancel_token(const swsim::robust::CancelToken& token) override {
    cancel_token_ = token;
  }

  double drive_frequency() const { return frequency_; }
  const swsim::math::Grid& grid() const { return grid_; }
  const swsim::math::Mask& body_mask() const { return body_; }
  const geom::TriangleGateLayout& layout() const { return layout_; }
  double simulated_duration() const { return duration_; }

 private:
  // Runs one simulation for the given input logic values; fills raw
  // amplitudes/phases and the snapshot.
  MicromagEvaluation run(const std::vector<bool>& inputs);
  void ensure_calibration();

  MicromagGateConfig config_;
  geom::TriangleGateLayout layout_;
  wavenet::Dispersion dispersion_;
  double frequency_ = 0.0;
  double duration_ = 0.0;
  double transit_time_ = 0.0;  // longest input->output path / group velocity
  swsim::math::Grid grid_;
  swsim::math::Mask body_;
  swsim::math::ScalarField alpha_;          // per-cell damping (absorbers)
  double origin_x_ = 0.0, origin_y_ = 0.0;  // layout -> grid offset

  struct Tail {
    swsim::math::Vec3 start;  // layout coordinates
    swsim::math::Vec3 dir;    // outward unit vector
  };
  std::vector<Tail> tails_;

  swsim::robust::CancelToken cancel_token_;
  bool calibrated_ = false;
  double ref_amplitude_ = 0.0;
  double ref_phase_o1_ = 0.0;
  double ref_phase_o2_ = 0.0;
};

}  // namespace swsim::core
