// Per-stepper solve context: a compiled KernelPlan plus every SoA buffer
// a stepper needs (the state, the next state, the stage temporaries and
// the stage buffers k1..kN), each indexed by slot and sized by the
// active-cell count, not the grid. Owning the buffers here is itself a
// win: the reference steppers allocate and zero up to seven grid-sized
// VectorFields per step; the context allocates once per solve.
//
// The state m_ is resident: it holds the solve's magnetization from the
// first kernel step of a Stepper::Resident scope to the scope's end, and
// the AoS field is written only when a reader needs it (llg.h).
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
#include "robust/status.h"

namespace swsim::mag::kernels {

class SolveContext {
 public:
  // `stages` is the owning stepper's k-buffer count (2 Heun, 4 RK4,
  // 6 RKF45); only those are allocated. Returns nullptr when any term
  // refuses to lower (the solver then stays on the scalar reference path).
  static std::unique_ptr<SolveContext> create(
      const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms,
      std::size_t stages);

  bool matches(const System& sys,
               const std::vector<std::unique_ptr<FieldTerm>>& terms) const {
    return plan_->matches(sys, terms);
  }

  const KernelPlan& plan() const { return *plan_; }

  // AoS <-> SoA at a residency boundary: gather the magnetic cells into
  // the state's slots, scatter them back. Vacuum cells of m are never
  // written.
  void load_m(const swsim::math::VectorField& m) {
    gather(m_, m, *plan_->active);
  }
  void store_m(swsim::math::VectorField& m) const {
    scatter(m_, *plan_->active, m);
  }

  // One effective-field + rhs evaluation of `state` at time t into dmdt,
  // every slot through the host's fused sweep, armed or not. With an
  // epilogue (kernels::stage) the same pass writes the stage combine;
  // throws std::invalid_argument when its output aliases the state,
  // base or dmdt.
  void eval(const SoaVec& state, double t, SoaVec& dmdt,
            const Epilogue& epi = {});

  // out = base + (c0*k0 + ...) * h over every slot: RKF45's accepted
  // update, which has to wait for err_max.
  template <int N>
  void combine(SoaVec& out, const SoaVec& base, double h, const double (&c)[N],
               const SoaVec* const (&k)[N]) {
    pfor(plan_->slots(), kSlotGrain,
         [&](std::size_t b, std::size_t e) { combine_range(out, base, h, c, k, b, e); });
  }

  // RKF45 max-norm error of h * (c0*k0 + ... + c4*k4) over every slot;
  // per-chunk maxima are folded in chunk order.
  double err_max(double h, const double (&c)[5], const SoaVec* const (&k)[5]);

  // The step tail on the state's slots. scan() is robust::scan_magnetization
  // over slots: the first slot, in slot (= ascending cell) order, that
  // fails robust::check_cell, reported under its flat cell index.
  robust::Status scan(double norm_drift_tol) const;
  void renormalize();

  // Buffers, exposed to the stepper loops in llg.cpp: the state, the
  // next state (the final update writes it, then it is swapped in), two
  // stage temporaries that alternate (an epilogue's output cannot be its
  // own sweep's state), and the k buffers; tmp2_ only past two stages,
  // and k1_..k6_ up to `stages`.
  SoaVec m_, next_, tmp_, tmp2_, k1_, k2_, k3_, k4_, k5_, k6_;

  // Fixed chunk size — part of the determinism contract: boundaries
  // depend on the active-cell count, never on the job count.
  static constexpr std::size_t kSlotGrain = 1024;

 private:
  SolveContext(std::unique_ptr<KernelPlan> plan, std::size_t stages);

  // Runs fn over [0, n) — serial, or chunked on the intra-solve pool.
  void pfor(std::size_t n, std::size_t grain,
            const std::function<void(std::size_t, std::size_t)>& fn);

  std::unique_ptr<KernelPlan> plan_;
  std::vector<EvalOp> eval_ops_;
};

}  // namespace swsim::mag::kernels
