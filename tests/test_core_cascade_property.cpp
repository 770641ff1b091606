// Property test: for randomly generated MAJ netlists, the wave-level
// cascade (with a normalizing repeater after every gate) computes exactly
// what the logic-level Circuit computes — the physical and logical models
// agree on arbitrary topologies, not just the hand-picked examples.
#include <gtest/gtest.h>

#include <vector>

#include "core/circuit.h"
#include "core/logic.h"
#include "core/wave_cascade.h"
#include "math/rng.h"

namespace swsim::core {
namespace {

using swsim::math::Pcg32;

struct RandomNetlist {
  Circuit circuit{2};
  WaveCascade cascade;
  std::vector<Signal> circuit_signals;
  std::vector<WaveCascade::SignalId> wave_signals;
  std::size_t primaries = 0;
  Signal out_logic = 0;
  WaveCascade::SignalId out_wave = 0;
};

// Builds the same random MAJ DAG in both models. Every gate output is
// repeatered in the wave model (normalization) and counted once in the
// fan-out budget of both models, keeping the structures legal.
RandomNetlist build_random(std::uint64_t seed, std::size_t n_primary,
                           std::size_t n_gates) {
  RandomNetlist net;
  Pcg32 rng(seed);

  for (std::size_t i = 0; i < n_primary; ++i) {
    net.circuit_signals.push_back(net.circuit.input('p' + std::to_string(i)));
    net.wave_signals.push_back(net.cascade.primary());
  }
  net.primaries = n_primary;

  // Track remaining fan-out budget per signal (primaries unlimited).
  std::vector<int> budget(n_primary, 1 << 20);

  auto pick = [&](std::size_t count) {
    // Choose among signals with remaining budget.
    for (;;) {
      const auto idx = rng.bounded(static_cast<std::uint32_t>(count));
      if (budget[idx] > 0) return static_cast<std::size_t>(idx);
    }
  };

  for (std::size_t g = 0; g < n_gates; ++g) {
    const std::size_t count = net.circuit_signals.size();
    const std::size_t a = pick(count);
    --budget[a];
    const std::size_t b = pick(count);
    --budget[b];
    const std::size_t c = pick(count);
    --budget[c];

    const Signal lo = net.circuit.add_maj3(net.circuit_signals[a],
                                           net.circuit_signals[b],
                                           net.circuit_signals[c]);
    auto [wo, wo2] = net.cascade.add_maj3(net.wave_signals[a],
                                          net.wave_signals[b],
                                          net.wave_signals[c]);
    (void)wo2;
    // Normalize so downstream gates see clean unit waves.
    const auto wr = net.cascade.add_repeater(wo);

    net.circuit_signals.push_back(lo);
    net.wave_signals.push_back(wr);
    // The logic output has budget 2, but one slot of the wave output is
    // consumed by the repeater, so advertise min(2, 2) on logic and 2 on
    // the repeater; use the smaller (2) for both to stay legal.
    budget.push_back(2);
  }

  net.out_logic = net.circuit_signals.back();
  net.out_wave = net.wave_signals.back();
  net.circuit.mark_output(net.out_logic, "y");
  return net;
}

class RandomCascade : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCascade, WaveModelMatchesLogicModel) {
  const std::uint64_t seed = GetParam();
  RandomNetlist net = build_random(seed, 4, 6);

  Pcg32 rng(seed ^ 0xabcdef);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<bool> inputs(net.primaries);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      inputs[i] = rng.bounded(2) == 1;
    }
    const bool logic = net.circuit.evaluate(inputs)[0];
    net.cascade.evaluate(inputs);
    const bool wave = net.cascade.read_phase(net.out_wave).logic;
    EXPECT_EQ(wave, logic) << "seed " << seed << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCascade,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace swsim::core
