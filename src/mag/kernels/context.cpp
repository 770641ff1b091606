#include "mag/kernels/context.h"

#include <algorithm>

#include "engine/thread_pool.h"
#include "mag/kernels/runtime.h"

namespace swsim::mag::kernels {

SolveContext::SolveContext(std::unique_ptr<KernelPlan> plan)
    : plan_(std::move(plan)) {
  const std::size_t n = plan_->slots();
  m_.assign_zero(n);
  tmp_.assign_zero(n);
  k1_.assign_zero(n);
  k2_.assign_zero(n);
  k3_.assign_zero(n);
  k4_.assign_zero(n);
  k5_.assign_zero(n);
  k6_.assign_zero(n);
  eval_ops_.reserve(plan_->ops.size());
}

std::unique_ptr<SolveContext> SolveContext::create(
    const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms) {
  auto plan = build_plan(sys, terms);
  if (!plan) return nullptr;
  return std::unique_ptr<SolveContext>(new SolveContext(std::move(plan)));
}

void SolveContext::pfor(std::size_t n, std::size_t grain,
                        const std::function<void(std::size_t, std::size_t)>& fn) {
  if (engine::ThreadPool* pool = intra_pool()) {
    pool->parallel_for(n, grain, fn);
  } else if (n > 0) {
    fn(0, n);
  }
}

void SolveContext::eval(const SoaVec& state, double t, SoaVec& dmdt) {
  resolve_ops(*plan_, t, eval_ops_);
  // Chunk boundaries depend only on the slot count, so any thread count
  // slices the same work the same way, and every slot is written by
  // exactly one chunk.
  const FusedSweep sweep = make_sweep(*plan_, state, eval_ops_, dmdt);
  const auto fused = sweep_variant().fused;
  pfor(plan_->slots(), kSlotGrain,
       [&](std::size_t b, std::size_t e) { fused(sweep, b, e); });
}

void SolveContext::stage1(SoaVec& out, const SoaVec& base, double s,
                          const SoaVec& k) {
  pfor(plan_->slots(), kSlotGrain, [&](std::size_t b, std::size_t e) {
    axpy(out, base, s, k, b, e);
  });
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

}  // namespace swsim::mag::kernels
