#include "mag/kernels/context.h"

#include <algorithm>
#include <stdexcept>

#include "engine/thread_pool.h"
#include "mag/kernels/runtime.h"
#include "robust/watchdog.h"

namespace swsim::mag::kernels {

SolveContext::SolveContext(std::unique_ptr<KernelPlan> plan,
                           std::size_t stages)
    : plan_(std::move(plan)) {
  const std::size_t n = plan_->slots();
  SoaVec* const ks[] = {&k1_, &k2_, &k3_, &k4_, &k5_, &k6_};
  for (SoaVec* v : {&m_, &next_, &tmp_}) v->assign_zero(n);
  if (stages > 2) tmp2_.assign_zero(n);
  for (std::size_t j = 0; j < stages && j < 6; ++j) ks[j]->assign_zero(n);
  eval_ops_.reserve(plan_->ops.size());
}

std::unique_ptr<SolveContext> SolveContext::create(
    const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms,
    std::size_t stages) {
  auto plan = build_plan(sys, terms);
  if (!plan) return nullptr;
  return std::unique_ptr<SolveContext>(
      new SolveContext(std::move(plan), stages));
}

void SolveContext::pfor(std::size_t n, std::size_t grain,
                        const std::function<void(std::size_t, std::size_t)>& fn) {
  if (engine::ThreadPool* pool = intra_pool()) {
    pool->parallel_for(n, grain, fn);
  } else if (n > 0) {
    fn(0, n);
  }
}

void SolveContext::eval(const SoaVec& state, double t, SoaVec& dmdt,
                        const Epilogue& epi) {
  if (epi.out && (epi.out == &state || epi.out == epi.base ||
                  epi.out == &dmdt)) {
    throw std::invalid_argument(
        "SolveContext::eval: the epilogue's output aliases its input");
  }
  resolve_ops(*plan_, t, eval_ops_);
  // Chunk boundaries depend only on the slot count, so any thread count
  // slices the same work the same way, and every slot is written by
  // exactly one chunk.
  const FusedSweep sweep = make_sweep(*plan_, state, eval_ops_, dmdt, epi);
  const auto fused = sweep_variant().fused;
  pfor(plan_->slots(), kSlotGrain,
       [&](std::size_t b, std::size_t e) { fused(sweep, b, e); });
}

double SolveContext::err_max(double h, const double (&c)[5],
                             const SoaVec* const (&k)[5]) {
  const std::size_t n = plan_->slots();
  const std::size_t chunks = (n + kSlotGrain - 1) / kSlotGrain;
  std::vector<double> partial(chunks, 0.0);
  pfor(n, kSlotGrain, [&](std::size_t b, std::size_t e) {
    partial[b / kSlotGrain] = err_max_range(h, c, k, b, e);
  });
  // Chunk-order fold; max of non-NaN partials is schedule-independent.
  double worst = 0.0;
  for (const double p : partial) worst = std::max(worst, p);
  return worst;
}

robust::Status SolveContext::scan(double norm_drift_tol) const {
  const std::vector<std::uint32_t>& active = *plan_->active;
  for (std::size_t s = 0; s < m_.size(); ++s) {
    robust::Status health = robust::check_cell(
        {m_.x[s], m_.y[s], m_.z[s]}, active[s], norm_drift_tol);
    if (!health.is_ok()) return health;
  }
  return robust::Status::ok();
}

void SolveContext::renormalize() {
  pfor(plan_->slots(), kSlotGrain,
       [&](std::size_t b, std::size_t e) { renormalize_range(m_, b, e); });
}

}  // namespace swsim::mag::kernels
