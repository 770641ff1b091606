#include "serve/workload.h"

#include <memory>
#include <sstream>

#include "core/derived_gates.h"
#include "core/multi_input_gate.h"
#include "core/triangle_gate.h"
#include "engine/hash.h"
#include "io/table.h"
#include "math/constants.h"

namespace swsim::serve {

namespace {

geom::TriangleGateParams triangle_params(const GateParams& p, bool maj) {
  auto params = maj ? geom::TriangleGateParams::paper_maj3()
                    : geom::TriangleGateParams::paper_xor();
  params.wavelength = math::nm(p.lambda_nm);
  params.width = math::nm(p.width_nm.value_or(0.4 * p.lambda_nm));
  return params;
}

}  // namespace

std::optional<TruthTableSpec> make_truth_table_spec(const GateParams& p) {
  TruthTableSpec spec;
  core::TriangleGateConfig cfg;
  cfg.params = triangle_params(p, /*maj=*/true);
  if (p.kind == "maj") {
    spec.factory = [cfg] {
      return std::make_unique<core::TriangleMajGate>(cfg);
    };
  } else if (p.kind == "xor" || p.kind == "xnor") {
    cfg.params = triangle_params(p, /*maj=*/false);
    cfg.inverted = p.kind == "xnor";
    spec.factory = [cfg] {
      return std::make_unique<core::TriangleXorGate>(cfg);
    };
  } else if (p.kind == "and" || p.kind == "or" || p.kind == "nand" ||
             p.kind == "nor") {
    const core::TwoInputFunction fn =
        p.kind == "and"    ? core::TwoInputFunction::kAnd
        : p.kind == "or"   ? core::TwoInputFunction::kOr
        : p.kind == "nand" ? core::TwoInputFunction::kNand
                           : core::TwoInputFunction::kNor;
    spec.factory = [cfg, fn] {
      return std::make_unique<core::ControlledMajGate>(cfg, fn);
    };
  } else if (p.kind == "maj5" || p.kind == "maj7") {
    core::MultiInputMajConfig mcfg;
    mcfg.num_inputs = p.kind == "maj5" ? 5 : 7;
    mcfg.params = cfg.params;
    spec.factory = [mcfg] {
      return std::make_unique<core::MultiInputMajGate>(mcfg);
    };
  } else {
    return std::nullopt;
  }
  // The gate kind is part of the key: "and" and "or" share a
  // TriangleGateConfig but differ in control constant / inversion.
  spec.key = engine::combine(engine::Fnv1a().str(p.kind).digest(),
                             engine::hash_of(cfg));
  return spec;
}

std::optional<YieldSpec> make_yield_spec(const YieldParams& p) {
  YieldSpec spec;
  spec.kind = p.kind;
  spec.model.sigma_phase = core::VariabilityModel::phase_sigma_for_length(
      math::nm(p.sigma_length_nm), math::nm(p.lambda_nm));
  spec.model.sigma_amplitude = p.sigma_amp;
  spec.trials = p.trials;

  GateParams gp;
  gp.kind = p.kind;
  gp.lambda_nm = p.lambda_nm;
  gp.width_nm = p.width_nm;
  core::TriangleGateConfig cfg;
  if (p.kind == "maj") {
    cfg.params = triangle_params(gp, /*maj=*/true);
    spec.factory = [cfg] {
      return std::make_unique<core::TriangleMajGate>(cfg);
    };
  } else if (p.kind == "xor") {
    cfg.params = triangle_params(gp, /*maj=*/false);
    spec.factory = [cfg] {
      return std::make_unique<core::TriangleXorGate>(cfg);
    };
  } else {
    return std::nullopt;
  }
  return spec;
}

std::optional<MicromagSpec> make_micromag_spec(const MicromagParams& p) {
  if (p.kind != "maj" && p.kind != "xor") return std::nullopt;
  core::MicromagGateConfig cfg;
  const double lambda = math::nm(p.lambda_nm);
  const double width = math::nm(p.width_nm);
  cfg.params = p.kind == "xor"
                   ? geom::TriangleGateParams::reduced_xor(lambda, width)
                   : geom::TriangleGateParams::reduced_maj3(lambda, width);
  cfg.cell_size = math::nm(p.cell_nm);
  cfg.early_stop = p.early_stop;

  MicromagSpec spec;
  spec.config = cfg;
  // One calibration job (the all-zero reference LLG run), run by the
  // engine before any row job, feeds every row, so the reference solve
  // happens once instead of once per row.
  auto calib = std::make_shared<std::optional<core::MicromagCalibration>>();
  spec.factory = [cfg, calib] {
    auto gate = std::make_unique<core::MicromagTriangleGate>(cfg);
    if (calib->has_value()) gate->set_calibration(**calib);
    return gate;
  };
  spec.prepare = [cfg, calib] {
    core::MicromagTriangleGate gate(cfg);
    *calib = gate.calibrate();
  };
  spec.key = engine::hash_of(cfg);
  return spec;
}

std::string render_yield(const std::string& kind,
                         const core::YieldReport& r) {
  using swsim::io::Table;
  std::ostringstream os;
  os << "gate " << kind << ", " << r.trials << " virtual devices:\n"
     << "  yield               " << Table::num(r.yield * 100, 1) << "%\n"
     << "  row failures        " << r.worst_row_failures << '\n'
     << "  mean worst margin   " << Table::num(r.mean_worst_margin, 3)
     << '\n';
  return os.str();
}

}  // namespace swsim::serve
