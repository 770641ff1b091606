// External (Zeeman) field terms.
//
// UniformZeemanField: a constant applied field.
// AntennaField: the excitation transducer model — a spatially localized,
// time-dependent in-plane field h(t) = A * env(t) * sin(2 pi f t + phase)
// applied in an antenna region. Phase pi vs 0 encodes logic 1 vs 0 exactly
// as in the paper (Sec. III-A step (i)).
#pragma once

#include <functional>
#include <utility>

#include "mag/field_term.h"

namespace swsim::mag {

class UniformZeemanField final : public FieldTerm {
 public:
  explicit UniformZeemanField(const Vec3& h_applied);

  std::string name() const override { return "zeeman"; }
  void accumulate(const System& sys, const VectorField& m, double t,
                  VectorField& h) override;
  double energy(const System& sys, const VectorField& m) const override;
  bool compile_kernel(const System& sys, kernels::TermOp& op) const override;

 private:
  Vec3 h_;
};

// Temporal envelope of an antenna drive. `continuous()` runs forever;
// `pulse(t_on, t_off, ramp)` switches on/off with optional cosine ramps to
// avoid exciting a broadband transient.
class Envelope {
 public:
  using Fn = std::function<double(double)>;

  static Envelope continuous();
  static Envelope pulse(double t_on, double t_off, double ramp = 0.0);

  double operator()(double t) const { return fn_(t); }

 private:
  explicit Envelope(Fn fn) : fn_(std::move(fn)) {}
  Fn fn_;
};

class AntennaField final : public FieldTerm {
 public:
  // region: cells the antenna drives (must live on the system grid).
  // amplitude: field amplitude [A/m]; direction: field direction (normalized
  // internally, typically in-plane x for an out-of-plane-magnetized film).
  // frequency [Hz], phase [rad].
  AntennaField(swsim::math::Mask region, double amplitude,
               const Vec3& direction, double frequency, double phase,
               Envelope envelope = Envelope::continuous());

  std::string name() const override { return "antenna"; }
  void accumulate(const System& sys, const VectorField& m, double t,
                  VectorField& h) override;
  bool compile_kernel(const System& sys, kernels::TermOp& op) const override;

  double phase() const { return phase_; }
  double frequency() const { return frequency_; }

 private:
  // The region and its driven cells (region ∧ mask) per System.
  mutable RegionCells cells_;
  double amplitude_;
  Vec3 direction_;
  double frequency_;
  double phase_;
  Envelope envelope_;
};

}  // namespace swsim::mag
