#include "core/multi_input_gate.h"

#include <stdexcept>

#include "core/logic.h"

namespace swsim::core {

using wavenet::NodeId;

MultiInputMajGate::MultiInputMajGate(const MultiInputMajConfig& config)
    : config_(config),
      dispersion_(config.material, config.film_thickness) {
  if (config_.num_inputs < 3 || config_.num_inputs % 2 == 0) {
    throw std::invalid_argument(
        "MultiInputMajGate: need an odd input count >= 3");
  }
  config_.params.validate();
  model_ = wavenet::PropagationModel::from_dispersion(
      dispersion_, config_.params.wavelength, config_.split);

  // All n inputs are merge arms into V ("more inputs can be added below I2
  // or above I1"): by symmetry every input arrives at the splitter with
  // exactly the same weight, so the sign of the phasor sum is the strict
  // n-input majority at any attenuation level — unlike a mixed arm/tap
  // arrangement, whose unequal weights break down beyond n = 3.
  const auto& p = config_.params;
  const NodeId v = net_.add_junction("V");
  const NodeId s = net_.add_junction("S");
  out1_ = net_.add_detector("O1");
  out2_ = net_.add_detector("O2");

  for (std::size_t i = 0; i < config_.num_inputs; ++i) {
    const NodeId src = net_.add_source('I' + std::to_string(i + 1));
    net_.connect(src, v, p.d1());
    sources_.push_back(src);
  }
  net_.connect(v, s, p.d2());
  net_.connect(s, out1_, p.branch_out());
  net_.connect(s, out2_, p.branch_out());
}

std::string MultiInputMajGate::name() const {
  return "triangle-FO2-MAJ" + std::to_string(config_.num_inputs);
}

bool MultiInputMajGate::reference(const std::vector<bool>& inputs) const {
  return majority(inputs);
}

FanoutOutputs MultiInputMajGate::evaluate(const std::vector<bool>& inputs) {
  if (inputs.size() != config_.num_inputs) {
    throw std::invalid_argument(name() + ": expected " +
                                std::to_string(config_.num_inputs) +
                                " inputs");
  }
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    net_.excite(sources_[i], 1.0, logic_phase(inputs[i]));
  }
  const auto solved = net_.solve(model_);
  const auto p1 = solved.detector_phasor.at(out1_);
  const auto p2 = solved.detector_phasor.at(out2_);

  if (reference_amplitude_ < 0.0) {
    for (const NodeId src : sources_) net_.excite(src, 1.0, 0.0);
    const auto ref = net_.solve(model_);
    reference_amplitude_ =
        std::max(std::abs(ref.detector_phasor.at(out1_)),
                 std::abs(ref.detector_phasor.at(out2_)));
    if (!(reference_amplitude_ > 0.0)) {
      throw std::runtime_error(name() + ": zero reference amplitude");
    }
  }

  const wavenet::PhaseDetector det;
  FanoutOutputs out;
  out.o1 = det.detect(p1);
  out.o2 = det.detect(p2);
  out.normalized_o1 = std::abs(p1) / reference_amplitude_;
  out.normalized_o2 = std::abs(p2) / reference_amplitude_;
  return out;
}

}  // namespace swsim::core
