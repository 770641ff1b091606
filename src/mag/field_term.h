// Effective-field term interface.
//
// The LLG effective field H_eff is the sum of independent contributions
// (exchange, anisotropy, demag, Zeeman, antennas, thermal noise). Each term
// accumulates its contribution in A/m into a shared field buffer; the solver
// owns the loop. Terms may be time-dependent (antennas, thermal).
#pragma once

#include <string>

#include "mag/system.h"

namespace swsim::obs {
class Counter;
}

namespace swsim::mag {

namespace kernels {
struct TermOp;
}

class FieldTerm {
 public:
  virtual ~FieldTerm() = default;

  virtual std::string name() const = 0;

  // Adds this term's field (A/m) for magnetization state m at time t into h.
  // Implementations must only touch cells inside the system mask.
  virtual void accumulate(const System& sys, const VectorField& m, double t,
                          VectorField& h) = 0;

  // Total energy of this term [J] for state m, or NaN when the term has no
  // meaningful energy (e.g. the stochastic thermal field).
  virtual double energy(const System& sys, const VectorField& m) const;

  // Called once per accepted solver step; stochastic terms use it to draw
  // the next noise realization (noise must be held fixed within one step's
  // stages for the integrator to converge).
  virtual void advance_step(double dt);

  // Lowers this term into a kernel TermOp for the fused SoA solve path.
  // Returns false (the default) when the term cannot be expressed as one —
  // the solver then runs the whole term set through the scalar reference
  // path, so refusing is always safe. Implementations must produce a field
  // bit-identical to accumulate() (see docs/PERFORMANCE.md).
  virtual bool compile_kernel(const System& sys, kernels::TermOp& op) const;

  // The "mag.term.<name>.us" counter that effective_field() times this
  // term's accumulate() into while metrics are armed; looked up in the
  // registry on first use, then held.
  obs::Counter& time_us() const;

 private:
  mutable obs::Counter* time_us_ = nullptr;
};

}  // namespace swsim::mag
