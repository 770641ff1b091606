#include "core/circuit.h"

#include <gtest/gtest.h>

#include "core/logic.h"
#include "math/constants.h"

namespace swsim::core {
namespace {

TEST(Circuit, SingleMajEvaluates) {
  Circuit c;
  const Signal a = c.input("a");
  const Signal b = c.input("b");
  const Signal d = c.input("d");
  c.mark_output(c.add_maj3(a, b, d), "y");
  for (const auto& p : all_input_patterns(3)) {
    EXPECT_EQ(c.evaluate(p)[0], maj3(p[0], p[1], p[2]));
  }
}

TEST(Circuit, XorAndNot) {
  Circuit c;
  const Signal a = c.input("a");
  const Signal b = c.input("b");
  const Signal x = c.add_xor2(a, b);
  c.mark_output(c.add_not(x), "xnor");
  for (const auto& p : all_input_patterns(2)) {
    EXPECT_EQ(c.evaluate(p)[0], !xor2(p[0], p[1]));
  }
}

TEST(Circuit, AndOrViaControlledMaj) {
  Circuit c;
  const Signal a = c.input("a");
  const Signal b = c.input("b");
  c.mark_output(c.add_and2(a, b), "and");
  c.mark_output(c.add_or2(a, b), "or");
  for (const auto& p : all_input_patterns(2)) {
    const auto out = c.evaluate(p);
    EXPECT_EQ(out[0], p[0] && p[1]);
    EXPECT_EQ(out[1], p[0] || p[1]);
  }
}

TEST(Circuit, InvertedMaj) {
  Circuit c;
  const Signal a = c.input("a");
  const Signal b = c.input("b");
  const Signal d = c.input("d");
  c.mark_output(c.add_maj3(a, b, d, /*inverted=*/true), "minority");
  for (const auto& p : all_input_patterns(3)) {
    EXPECT_EQ(c.evaluate(p)[0], !maj3(p[0], p[1], p[2]));
  }
}

TEST(Circuit, FanoutLimitEnforced) {
  Circuit c(/*max_fanout=*/2);
  const Signal a = c.input("a");
  const Signal b = c.input("b");
  const Signal d = c.input("d");
  const Signal m = c.add_maj3(a, b, d);
  const Signal x1 = c.add_xor2(m, a);   // load 1
  const Signal x2 = c.add_xor2(m, b);   // load 2
  (void)x1;
  (void)x2;
  EXPECT_EQ(c.fanout_of(m), 2);
  EXPECT_THROW(c.add_xor2(m, d), std::runtime_error);  // load 3: FO2 exceeded
}

TEST(Circuit, RepeaterResetsFanout) {
  Circuit c(2);
  const Signal a = c.input("a");
  const Signal b = c.input("b");
  const Signal d = c.input("d");
  const Signal m = c.add_maj3(a, b, d);
  c.add_xor2(m, a);
  const Signal r = c.add_repeater(m);  // second (and last) load on m
  // Repeater output has a fresh fan-out budget.
  c.add_xor2(r, b);
  c.add_xor2(r, d);
  EXPECT_THROW(c.add_xor2(r, a), std::runtime_error);
}

TEST(Circuit, InputsHaveUnlimitedFanout) {
  Circuit c(2);
  const Signal a = c.input("a");
  const Signal b = c.input("b");
  for (int i = 0; i < 10; ++i) c.add_xor2(a, b);
  SUCCEED();
}

TEST(Circuit, EvaluateChecksInputCount) {
  Circuit c;
  c.input("a");
  EXPECT_THROW(c.evaluate({true, false}), std::invalid_argument);
}

TEST(Circuit, RejectsBadFanoutLimit) {
  EXPECT_THROW(Circuit(0), std::invalid_argument);
}

TEST(Circuit, CostRollUp) {
  Circuit c;
  const Signal a = c.input("a");
  const Signal b = c.input("b");
  const Signal d = c.input("d");
  const Signal m = c.add_maj3(a, b, d);      // 3 excitations, depth 1
  const Signal x = c.add_xor2(m, a);         // 2 excitations, depth 2
  c.mark_output(x, "y");
  const CircuitCost cost = c.cost();
  EXPECT_EQ(cost.maj_gates, 1);
  EXPECT_EQ(cost.xor_gates, 1);
  EXPECT_EQ(cost.excitation_cells, 5);
  EXPECT_EQ(cost.detection_cells, 1);
  EXPECT_EQ(cost.depth, 2u);
  const perf::TransducerModel t = perf::TransducerModel::me_cell();
  EXPECT_NEAR(cost.energy, 5.0 * t.excitation_energy(), 1e-30);
  EXPECT_NEAR(cost.delay, 2.0 * t.delay, 1e-18);
}

TEST(Circuit, NotIsFree) {
  Circuit c;
  const Signal a = c.input("a");
  const Signal b = c.input("b");
  const Signal x = c.add_xor2(a, b);
  c.mark_output(c.add_not(x), "y");
  const CircuitCost cost = c.cost();
  EXPECT_EQ(cost.excitation_cells, 2);  // only the XOR
  EXPECT_EQ(cost.depth, 1u);            // NOT adds no stage
}

TEST(FullAdder, ExhaustiveTruth) {
  Circuit c;
  const FullAdderSignals fa = build_full_adder(c);
  c.mark_output(fa.sum, "sum");
  c.mark_output(fa.cout, "cout");
  for (const auto& p : all_input_patterns(3)) {
    const auto out = c.evaluate(p);
    const int total = static_cast<int>(p[0]) + p[1] + p[2];
    EXPECT_EQ(out[0], (total & 1) != 0) << "sum";
    EXPECT_EQ(out[1], total >= 2) << "cout";
  }
}

TEST(FullAdder, UsesOneMajAndTwoXors) {
  Circuit c;
  build_full_adder(c);
  const CircuitCost cost = c.cost();
  EXPECT_EQ(cost.maj_gates, 1);
  EXPECT_EQ(cost.xor_gates, 2);
}

class RippleAdderTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RippleAdderTest, AddsAllOperandPairs) {
  const std::size_t bits = GetParam();
  Circuit c;
  const RippleAdderSignals r = build_ripple_adder(c, bits);
  for (std::size_t i = 0; i < bits; ++i) {
    c.mark_output(r.sum[i], 's' + std::to_string(i));
  }
  c.mark_output(r.cout, "cout");

  const std::size_t limit = std::size_t{1} << bits;
  for (std::size_t a = 0; a < limit; ++a) {
    for (std::size_t b = 0; b < limit; ++b) {
      std::vector<bool> in;
      for (std::size_t i = 0; i < bits; ++i) in.push_back((a >> i) & 1);
      for (std::size_t i = 0; i < bits; ++i) in.push_back((b >> i) & 1);
      const auto out = c.evaluate(in);
      std::size_t result = 0;
      for (std::size_t i = 0; i < bits; ++i) {
        result |= static_cast<std::size_t>(out[i]) << i;
      }
      result |= static_cast<std::size_t>(out[bits]) << bits;
      EXPECT_EQ(result, a + b) << a << " + " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, RippleAdderTest, ::testing::Values(1, 2, 3, 4));

TEST(RippleAdder, CarryChainFitsWithinFanout2) {
  // The critical design point: every carry signal drives exactly two loads
  // (the next stage's XOR and MAJ) — the FO2 structure suffices with no
  // repeaters.
  Circuit c(2);
  EXPECT_NO_THROW(build_ripple_adder(c, 8));
  const CircuitCost cost = c.cost();
  EXPECT_EQ(cost.repeaters, 0);
  EXPECT_EQ(cost.maj_gates, 8);
  EXPECT_EQ(cost.xor_gates, 16);
}

TEST(RippleAdder, RejectsZeroBits) {
  Circuit c;
  EXPECT_THROW(build_ripple_adder(c, 0), std::invalid_argument);
}

TEST(RippleAdder, DepthGrowsLinearly) {
  Circuit c4;
  build_ripple_adder(c4, 4);
  Circuit c8;
  build_ripple_adder(c8, 8);
  EXPECT_GT(c8.cost().depth, c4.cost().depth);
}

TEST(TmrVoter, MasksSingleFault) {
  Circuit c;
  const Signal m0 = c.input("m0");
  const Signal m1 = c.input("m1");
  const Signal m2 = c.input("m2");
  c.mark_output(build_tmr_voter(c, m0, m1, m2), "voted");
  // Any single corrupted module copy is outvoted.
  for (bool truth : {false, true}) {
    for (int faulty = 0; faulty < 3; ++faulty) {
      std::vector<bool> in(3, truth);
      in[static_cast<std::size_t>(faulty)] = !truth;
      EXPECT_EQ(c.evaluate(in)[0], truth);
    }
  }
}

}  // namespace
}  // namespace swsim::core
