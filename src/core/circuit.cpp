#include "core/circuit.h"

#include <algorithm>
#include <stdexcept>

#include "core/logic.h"

namespace swsim::core {

std::string to_string(CircuitGateKind kind) {
  switch (kind) {
    case CircuitGateKind::kMaj3: return "MAJ3";
    case CircuitGateKind::kXor2: return "XOR2";
    case CircuitGateKind::kNot: return "NOT";
    case CircuitGateKind::kRepeater: return "REP";
  }
  return "?";
}

Circuit::Circuit(int max_fanout) : max_fanout_(max_fanout) {
  if (max_fanout < 1) {
    throw std::invalid_argument("Circuit: max_fanout must be >= 1");
  }
}

Signal Circuit::input(std::string name) {
  Node n;
  n.kind = NodeKind::kInput;
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  inputs_.push_back(nodes_.size() - 1);
  return nodes_.size() - 1;
}

Signal Circuit::constant(bool value) {
  Node n;
  n.kind = NodeKind::kConst;
  n.name = value ? '1' : '0';
  n.const_value = value;
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

void Circuit::check(Signal s) const {
  if (s >= nodes_.size()) {
    throw std::invalid_argument("Circuit: unknown signal");
  }
}

void Circuit::use(Signal s) {
  check(s);
  Node& n = nodes_[s];
  // Primary inputs and constants are boundary transducers that can be
  // replicated freely; gate outputs are bound by the device's fan-out.
  if (n.kind == NodeKind::kGate && n.fanout >= max_fanout_) {
    throw std::runtime_error(
        "Circuit: fan-out budget of signal '" + n.name +
        "' exhausted (max " + std::to_string(max_fanout_) +
        "): insert a repeater or replicate the driving gate");
  }
  ++n.fanout;
}

Signal Circuit::add_gate(CircuitGateKind kind, std::vector<Signal> operands,
                         bool inverted) {
  std::size_t depth = 0;
  for (Signal s : operands) {
    use(s);
    depth = std::max(depth, nodes_[s].depth);
  }
  Node n;
  n.kind = NodeKind::kGate;
  n.name = to_string(kind) + "#" + std::to_string(gates_.size());
  n.gate_kind = kind;
  n.inverted = inverted;
  n.operands = std::move(operands);
  // NOT is a detection-side trick (half-wavelength tap), not a new wave
  // stage; everything else adds a pipeline stage.
  n.depth = depth + (kind == CircuitGateKind::kNot ? 0 : 1);
  nodes_.push_back(std::move(n));
  gates_.push_back(nodes_.size() - 1);
  return nodes_.size() - 1;
}

Signal Circuit::add_maj3(Signal a, Signal b, Signal c, bool inverted) {
  return add_gate(CircuitGateKind::kMaj3, {a, b, c}, inverted);
}

Signal Circuit::add_xor2(Signal a, Signal b, bool inverted) {
  return add_gate(CircuitGateKind::kXor2, {a, b}, inverted);
}

Signal Circuit::add_not(Signal a) {
  return add_gate(CircuitGateKind::kNot, {a}, true);
}

Signal Circuit::add_repeater(Signal a) {
  return add_gate(CircuitGateKind::kRepeater, {a}, false);
}

void Circuit::mark_output(Signal s, std::string name) {
  use(s);
  outputs_.emplace_back(s, std::move(name));
}

int Circuit::fanout_of(Signal s) const {
  check(s);
  return nodes_[s].fanout;
}

std::vector<bool> Circuit::evaluate(
    const std::vector<bool>& input_values) const {
  if (input_values.size() != inputs_.size()) {
    throw std::invalid_argument("Circuit::evaluate: expected " +
                                std::to_string(inputs_.size()) + " inputs");
  }
  std::vector<bool> value(nodes_.size(), false);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    value[inputs_[i]] = input_values[i];
  }
  // Nodes are created in topological order by construction.
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    const Node& n = nodes_[s];
    switch (n.kind) {
      case NodeKind::kInput:
        break;
      case NodeKind::kConst:
        value[s] = n.const_value;
        break;
      case NodeKind::kGate: {
        bool v = false;
        switch (n.gate_kind) {
          case CircuitGateKind::kMaj3:
            v = maj3(value[n.operands[0]], value[n.operands[1]],
                     value[n.operands[2]]);
            break;
          case CircuitGateKind::kXor2:
            v = xor2(value[n.operands[0]], value[n.operands[1]]);
            break;
          case CircuitGateKind::kNot:
          case CircuitGateKind::kRepeater:
            v = value[n.operands[0]];
            break;
        }
        value[s] = n.inverted && n.gate_kind != CircuitGateKind::kNot
                       ? !v
                       : (n.gate_kind == CircuitGateKind::kNot ? !v : v);
        break;
      }
    }
  }
  std::vector<bool> out;
  out.reserve(outputs_.size());
  for (const auto& [s, name] : outputs_) out.push_back(value[s]);
  return out;
}

CircuitCost Circuit::cost(const perf::TransducerModel& t) const {
  t.validate();
  CircuitCost c;
  std::size_t max_depth = 0;
  for (Signal s : gates_) {
    const Node& n = nodes_[s];
    max_depth = std::max(max_depth, n.depth);
    switch (n.gate_kind) {
      case CircuitGateKind::kMaj3:
        ++c.maj_gates;
        c.excitation_cells += 3;
        break;
      case CircuitGateKind::kXor2:
        ++c.xor_gates;
        c.excitation_cells += 2;
        break;
      case CircuitGateKind::kRepeater:
        ++c.repeaters;
        c.excitation_cells += 1;
        break;
      case CircuitGateKind::kNot:
        break;  // free: a half-wavelength output tap
    }
  }
  c.detection_cells = static_cast<int>(outputs_.size());
  c.energy = c.excitation_cells * t.excitation_energy();
  c.depth = max_depth;
  c.delay = static_cast<double>(max_depth) * t.delay;
  return c;
}

FullAdderSignals build_full_adder(Circuit& c) {
  FullAdderSignals fa;
  fa.a = c.input("a");
  fa.b = c.input("b");
  fa.cin = c.input("cin");
  const Signal ab = c.add_xor2(fa.a, fa.b);
  fa.sum = c.add_xor2(ab, fa.cin);
  fa.cout = c.add_maj3(fa.a, fa.b, fa.cin);
  return fa;
}

RippleAdderSignals build_ripple_adder(Circuit& c, std::size_t bits) {
  if (bits == 0) {
    throw std::invalid_argument("build_ripple_adder: bits must be >= 1");
  }
  RippleAdderSignals r;
  for (std::size_t i = 0; i < bits; ++i) {
    r.a.push_back(c.input('a' + std::to_string(i)));
  }
  for (std::size_t i = 0; i < bits; ++i) {
    r.b.push_back(c.input('b' + std::to_string(i)));
  }
  r.cin = c.constant(false);
  Signal carry = r.cin;
  for (std::size_t i = 0; i < bits; ++i) {
    const Signal ab = c.add_xor2(r.a[i], r.b[i]);
    r.sum.push_back(c.add_xor2(ab, carry));
    // The FO2 MAJ: this single structure's two outputs serve the next
    // stage's carry input and (in a carry-select variant) a lookahead tap,
    // so no replication is needed.
    carry = c.add_maj3(r.a[i], r.b[i], carry);
  }
  r.cout = carry;
  return r;
}

Signal build_tmr_voter(Circuit& c, Signal m0, Signal m1, Signal m2) {
  return c.add_maj3(m0, m1, m2);
}

}  // namespace swsim::core
