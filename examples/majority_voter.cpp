// Triple-modular-redundancy (TMR) voting with spin-wave majority gates —
// the error-masking application the paper's introduction motivates ("most
// of the error detection and correction schemes rely on n-input
// majorities").
//
// Builds a TMR voter per output bit of a redundant 4-bit adder, injects
// single-module faults, and shows the MAJ3 gates mask every one of them;
// then builds a 9-input majority from a tree of FO2 MAJ3 gates and measures
// its fault-masking statistics under random multi-bit faults.
//
//   $ ./majority_voter
#include <iostream>

#include "core/circuit.h"
#include "core/logic.h"
#include "io/table.h"
#include "math/constants.h"
#include "math/rng.h"

using namespace swsim;
using swsim::io::Table;

namespace {

// A software model of one protected module: a 4-bit adder that may have a
// stuck output bit.
struct Module {
  int stuck_bit = -1;  // -1: healthy
  bool stuck_value = false;

  std::size_t run(std::size_t a, std::size_t b) const {
    std::size_t r = (a + b) & 0x1F;
    if (stuck_bit >= 0) {
      r &= ~(std::size_t{1} << stuck_bit);
      if (stuck_value) r |= std::size_t{1} << stuck_bit;
    }
    return r;
  }
};

}  // namespace

int main() {
  std::cout << "=== TMR voting with FO2 spin-wave MAJ3 gates ===\n\n";

  // 1. Per-bit TMR voter circuit: 5 voted output bits.
  core::Circuit circuit(/*max_fanout=*/2);
  std::vector<core::Signal> m0, m1, m2, voted;
  for (int bit = 0; bit < 5; ++bit) {
    m0.push_back(circuit.input("m0b" + std::to_string(bit)));
    m1.push_back(circuit.input("m1b" + std::to_string(bit)));
    m2.push_back(circuit.input("m2b" + std::to_string(bit)));
  }
  for (int bit = 0; bit < 5; ++bit) {
    const core::Signal v = core::build_tmr_voter(
        circuit, m0[static_cast<std::size_t>(bit)],
        m1[static_cast<std::size_t>(bit)], m2[static_cast<std::size_t>(bit)]);
    circuit.mark_output(v, 'v' + std::to_string(bit));
    voted.push_back(v);
  }

  auto vote = [&](std::size_t r0, std::size_t r1, std::size_t r2) {
    // Inputs were created interleaved (m0, m1, m2 per bit): pack to match.
    std::vector<bool> in;
    for (int bit = 0; bit < 5; ++bit) {
      in.push_back((r0 >> bit) & 1);
      in.push_back((r1 >> bit) & 1);
      in.push_back((r2 >> bit) & 1);
    }
    const auto out = circuit.evaluate(in);
    std::size_t r = 0;
    for (int bit = 0; bit < 5; ++bit) {
      r |= static_cast<std::size_t>(out[static_cast<std::size_t>(bit)]) << bit;
    }
    return r;
  };

  std::cout << "1. single-module fault injection (stuck output bits)\n\n";
  Table table({"faulty module", "stuck bit", "stuck at", "masked ops",
               "total ops", "ok"});
  bool all_masked = true;
  for (int victim = 0; victim < 3; ++victim) {
    for (int bit : {0, 2, 4}) {
      for (bool value : {false, true}) {
        Module mods[3];
        mods[victim].stuck_bit = bit;
        mods[victim].stuck_value = value;
        std::size_t masked = 0, total = 0;
        for (std::size_t a = 0; a < 16; a += 3) {
          for (std::size_t b = 0; b < 16; b += 3) {
            const std::size_t truth = (a + b) & 0x1F;
            const std::size_t v =
                vote(mods[0].run(a, b), mods[1].run(a, b), mods[2].run(a, b));
            if (v == truth) ++masked;
            ++total;
          }
        }
        all_masked = all_masked && masked == total;
        table.add_row({std::to_string(victim), std::to_string(bit),
                       value ? "1" : "0", std::to_string(masked),
                       std::to_string(total),
                       masked == total ? "yes" : "NO"});
      }
    }
  }
  std::cout << table.str() << '\n';

  // 2. 9-input majority tree from FO2 MAJ3 gates: MAJ9 approximated by the
  //    classic two-level MAJ3 network MAJ3(MAJ3(g1), MAJ3(g2), MAJ3(g3)).
  std::cout << "2. 9-input majority tree (two MAJ3 levels)\n\n";
  core::Circuit tree(/*max_fanout=*/2);
  std::vector<core::Signal> leaves;
  for (int i = 0; i < 9; ++i) {
    leaves.push_back(tree.input('x' + std::to_string(i)));
  }
  const core::Signal g1 = tree.add_maj3(leaves[0], leaves[1], leaves[2]);
  const core::Signal g2 = tree.add_maj3(leaves[3], leaves[4], leaves[5]);
  const core::Signal g3 = tree.add_maj3(leaves[6], leaves[7], leaves[8]);
  tree.mark_output(tree.add_maj3(g1, g2, g3), "maj9");

  // Exhaustive: how often does the tree agree with true 9-input majority?
  std::size_t agree = 0, total = 0, masked_le2 = 0, cases_le2 = 0;
  for (std::size_t pattern = 0; pattern < 512; ++pattern) {
    std::vector<bool> in(9);
    int ones = 0;
    for (int i = 0; i < 9; ++i) {
      in[static_cast<std::size_t>(i)] = (pattern >> i) & 1;
      ones += (pattern >> i) & 1;
    }
    const bool tree_out = tree.evaluate(in)[0];
    const bool true_maj = ones > 4;
    if (tree_out == true_maj) ++agree;
    ++total;
    // The fault-masking guarantee: with <= 2 faulty inputs against a
    // unanimous background, the tree always votes correctly.
    if (ones <= 2 || ones >= 7) {
      ++cases_le2;
      if (tree_out == (ones >= 7)) ++masked_le2;
    }
  }
  std::cout << "  agreement with exact MAJ9:      " << agree << "/" << total
            << " (the 2-level tree is a well-known approximation)\n"
            << "  <=2 faults always outvoted:     " << masked_le2 << "/"
            << cases_le2 << '\n';

  const core::CircuitCost tree_cost = tree.cost();
  std::cout << "  tree cost: " << tree_cost.maj_gates << " MAJ3 gates, "
            << math::to_aj(tree_cost.energy) << " aJ/op, "
            << math::to_ns(tree_cost.delay) << " ns\n";

  const bool ok = all_masked && masked_le2 == cases_le2;
  std::cout << "\nmajority_voter " << (ok ? "PASSED" : "FAILED") << '\n';
  return ok ? 0 : 1;
}
