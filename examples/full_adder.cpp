// Full adder and ripple-carry adder built from the paper's FO2 gates.
//
// The carry of a full adder is MAJ3(a, b, cin) — the paper's motivating
// primitive — and the sum is a ^ b ^ cin from two XOR stages. The fan-out
// of 2 matters structurally: each carry signal feeds exactly two loads in
// the next stage (its XOR and its MAJ), so the FO2 gate drives a ripple
// chain with no replication and no repeaters.
//
//   $ ./full_adder [bits]     (default: 8)
#include <cstdlib>
#include <iostream>

#include "core/circuit.h"
#include "core/logic.h"
#include "core/triangle_gate.h"
#include "io/table.h"
#include "math/constants.h"

using namespace swsim;
using swsim::io::Table;

int main(int argc, char** argv) {
  const std::size_t bits =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 8;
  if (bits == 0 || bits > 20) {
    std::cerr << "bits must be in [1, 20]\n";
    return 1;
  }

  std::cout << "=== " << bits << "-bit ripple-carry adder from FO2 spin-wave "
            << "gates ===\n\n";

  // 1. Device-level check: one full adder evaluated gate-by-gate on the
  //    analytical spin-wave backend (every gate is a physical simulation).
  std::cout << "1. one full adder, gate-by-gate on the wave backend\n\n";
  core::TriangleMajGate maj = core::TriangleMajGate::paper_device();
  core::TriangleXorGate x1 = core::TriangleXorGate::paper_device();
  core::TriangleXorGate x2 = core::TriangleXorGate::paper_device();

  Table fa_table({"a", "b", "cin", "sum", "cout", "ok"});
  bool fa_ok = true;
  for (const auto& p : core::all_input_patterns(3)) {
    const bool a = p[0], b = p[1], cin = p[2];
    // sum = (a ^ b) ^ cin; each XOR's two outputs would feed the next
    // stage and a test port in hardware — we use output O1 here.
    const bool ab = x1.evaluate({a, b}).o1.logic;
    const bool sum = x2.evaluate({ab, cin}).o1.logic;
    const bool cout = maj.evaluate({a, b, cin}).o1.logic;
    const int total = static_cast<int>(a) + b + cin;
    const bool ok = sum == ((total & 1) != 0) && cout == (total >= 2);
    fa_ok = fa_ok && ok;
    fa_table.add_row({a ? "1" : "0", b ? "1" : "0", cin ? "1" : "0",
                      sum ? "1" : "0", cout ? "1" : "0", ok ? "yes" : "NO"});
  }
  std::cout << fa_table.str() << '\n';

  // 2. Word-level adder on the netlist model, verified exhaustively (small
  //    widths) or on a corner/sample sweep.
  std::cout << "2. " << bits << "-bit ripple-carry netlist\n\n";
  core::Circuit circuit(/*max_fanout=*/2);
  const core::RippleAdderSignals adder = core::build_ripple_adder(circuit, bits);
  for (std::size_t i = 0; i < bits; ++i) {
    circuit.mark_output(adder.sum[i], 's' + std::to_string(i));
  }
  circuit.mark_output(adder.cout, "cout");

  auto add = [&](std::size_t a, std::size_t b) {
    std::vector<bool> in;
    for (std::size_t i = 0; i < bits; ++i) in.push_back((a >> i) & 1);
    for (std::size_t i = 0; i < bits; ++i) in.push_back((b >> i) & 1);
    const auto out = circuit.evaluate(in);
    std::size_t r = 0;
    for (std::size_t i = 0; i <= bits; ++i) {
      r |= static_cast<std::size_t>(out[i]) << i;
    }
    return r;
  };

  const std::size_t limit = std::size_t{1} << bits;
  std::size_t checked = 0, wrong = 0;
  if (bits <= 6) {
    for (std::size_t a = 0; a < limit; ++a) {
      for (std::size_t b = 0; b < limit; ++b) {
        if (add(a, b) != a + b) ++wrong;
        ++checked;
      }
    }
  } else {
    // Corners plus a deterministic stride sample.
    const std::size_t samples[] = {0, 1, 2, limit / 2, limit - 2, limit - 1};
    for (std::size_t a : samples) {
      for (std::size_t b : samples) {
        if (add(a, b) != a + b) ++wrong;
        ++checked;
      }
    }
    for (std::size_t a = 3; a < limit; a += limit / 97 + 1) {
      for (std::size_t b = 5; b < limit; b += limit / 89 + 1) {
        if (add(a, b) != a + b) ++wrong;
        ++checked;
      }
    }
  }
  std::cout << "verified " << checked << " operand pairs, " << wrong
            << " wrong\n\n";

  // 3. Cost roll-up under the paper's ME-cell model.
  const core::CircuitCost cost = circuit.cost();
  std::cout << "3. cost (ME-cell model of Table III)\n\n"
            << "  MAJ gates:        " << cost.maj_gates << '\n'
            << "  XOR gates:        " << cost.xor_gates << '\n'
            << "  repeaters:        " << cost.repeaters
            << "  (FO2 suffices for the carry chain)\n"
            << "  excitation cells: " << cost.excitation_cells << '\n'
            << "  energy/op:        " << math::to_aj(cost.energy) << " aJ\n"
            << "  critical path:    " << cost.depth << " stages = "
            << math::to_ns(cost.delay) << " ns\n";

  const bool ok = fa_ok && wrong == 0;
  std::cout << "\nfull_adder " << (ok ? "PASSED" : "FAILED") << '\n';
  return ok ? 0 : 1;
}
