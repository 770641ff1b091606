// Per-stepper solve context: a compiled KernelPlan plus every SoA scratch
// buffer a stepper needs (state, stage buffers k1..k6), each indexed by
// slot and sized by the active-cell count, not the grid. Owning the
// buffers here is itself a win: the reference steppers allocate and zero
// up to seven grid-sized VectorFields per step; the context allocates
// once per solve.
//
// The context is cached by Stepper and rebuilt when its plan goes stale
// (different System, mutated per-cell fields, changed term set) — see
// KernelPlan::matches.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "mag/kernels/plan.h"
#include "mag/kernels/soa.h"
#include "mag/kernels/sweep.h"

namespace swsim::mag::kernels {

class SolveContext {
 public:
  // Returns nullptr when any term refuses to lower (the solver then stays
  // on the scalar reference path).
  static std::unique_ptr<SolveContext> create(
      const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms);

  bool matches(const System& sys,
               const std::vector<std::unique_ptr<FieldTerm>>& terms) const {
    return plan_->matches(sys, terms);
  }

  const KernelPlan& plan() const { return *plan_; }

  // AoS <-> SoA at the step boundary: gather the magnetic cells into
  // slots, scatter them back. Vacuum cells of m are never written.
  void load_m(const swsim::math::VectorField& m) {
    gather(m_, m, *plan_->active);
  }
  void store_m(swsim::math::VectorField& m) const {
    scatter(m_, *plan_->active, m);
  }

  // One effective-field + rhs evaluation of `state` at time t into dmdt,
  // every slot through the host's fused sweep variant, armed or not.
  void eval(const SoaVec& state, double t, SoaVec& dmdt);

  // out = base + k * s over every slot (chunked when parallel).
  void stage1(SoaVec& out, const SoaVec& base, double s, const SoaVec& k);

  // out = base + (c0*k0 + ...) * h over every slot.
  template <int N>
  void combine(SoaVec& out, const SoaVec& base, double h, const double (&c)[N],
               const SoaVec* const (&k)[N]) {
    pfor(plan_->slots(), kSlotGrain,
         [&](std::size_t b, std::size_t e) { combine_range(out, base, h, c, k, b, e); });
  }

  // RKF45 max-norm error of h * (c0*k0 + ... + c4*k4) over every slot;
  // per-chunk maxima are folded in chunk order.
  double err_max(double h, const double (&c)[5], const SoaVec* const (&k)[5]);

  // State and stage buffers, exposed to the stepper loops in llg.cpp.
  SoaVec m_, tmp_, k1_, k2_, k3_, k4_, k5_, k6_;

  // Fixed chunk size — part of the determinism contract: boundaries
  // depend on the active-cell count, never on the job count.
  static constexpr std::size_t kSlotGrain = 1024;

 private:
  explicit SolveContext(std::unique_ptr<KernelPlan> plan);

  // Runs fn over [0, n) — serial, or chunked on the intra-solve pool.
  void pfor(std::size_t n, std::size_t grain,
            const std::function<void(std::size_t, std::size_t)>& fn);

  std::unique_ptr<KernelPlan> plan_;
  std::vector<EvalOp> eval_ops_;
};

}  // namespace swsim::mag::kernels
