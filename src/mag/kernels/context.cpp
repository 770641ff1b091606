#include "mag/kernels/context.h"

#include <algorithm>
#include <cmath>

#include "engine/thread_pool.h"
#include "mag/kernels/runtime.h"
#include "mag/zeeman_field.h"
#include "math/constants.h"

namespace swsim::mag::kernels {

using swsim::math::kTwoPi;

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

void SolveContext::resolve_ops(double t) {
  eval_ops_.clear();
  std::uint8_t antenna_bit = 1;
  for (const TermOp& op : plan_->ops) {
    EvalOp e;
    e.kind = op.kind;
    switch (op.kind) {
      case OpKind::kExchange:
        e.pref = op.pref;
        break;
      case OpKind::kAnisotropy:
        e.pref = op.pref;
        e.ax = op.ax;
        e.ay = op.ay;
        e.az = op.az;
        break;
      case OpKind::kThinFilmDemag:
        break;
      case OpKind::kUniformZeeman:
        e.dx = op.hx;
        e.dy = op.hy;
        e.dz = op.hz;
        break;
      case OpKind::kAntenna: {
        e.bit = antenna_bit;
        antenna_bit = static_cast<std::uint8_t>(antenna_bit << 1);
        e.gate = &op.gate;
        const double env = (*op.envelope)(t);
        if (env == 0.0) {
          // Reference accumulate() returns before touching h.
          e.skip = true;
          break;
        }
        // Exactly the reference drive: direction * (A * env * sin(w t + p)),
        // the scalar factor collapsed first as in the Vec3 * double operator.
        const double s =
            op.amplitude * env * std::sin(kTwoPi * op.frequency * t + op.phase);
        e.dx = op.ax * s;
        e.dy = op.ay * s;
        e.dz = op.az * s;
        break;
      }
    }
    eval_ops_.push_back(e);
  }
}

void SolveContext::eval(const SoaVec& state, double t, SoaVec& dmdt) {
  resolve_ops(t);
  // The parallel domain is interior slots (run table order) followed by
  // edge slots; chunk boundaries depend only on the plan, so any thread
  // count slices the same work the same way, and every cell is written by
  // exactly one chunk.
  const std::size_t interior = plan_->interior_total;
  const std::size_t domain = interior + plan_->edge_slots.size();
  pfor(domain, kSlotGrain, [&](std::size_t b, std::size_t e) {
    if (b < interior) {
      const std::size_t ie = std::min(e, interior);
      const auto& pre = plan_->run_prefix;
      std::size_t r = static_cast<std::size_t>(
          std::upper_bound(pre.begin(), pre.end(), b) - pre.begin() - 1);
      std::size_t pos = b;
      while (pos < ie) {
        const KernelPlan::Run& run = plan_->runs[r];
        const std::size_t off = pos - pre[r];
        const std::size_t take =
            std::min(ie - pos, (run.e - run.b) - off);
        fused_run(*plan_, state, eval_ops_, dmdt, run, run.b + off,
                  run.b + off + take);
        pos += take;
        ++r;
      }
    }
    if (e > interior) {
      fused_edge(*plan_, state, eval_ops_, dmdt,
                 b > interior ? b - interior : 0, e - interior);
    }
  });
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
