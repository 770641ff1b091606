#include "wavenet/network.h"

#include <gtest/gtest.h>

#include <cmath>

#include "math/constants.h"

namespace swsim::wavenet {
namespace {

using namespace swsim::math;

// A lossless model at lambda = 100 (arbitrary units): k = 2 pi / 100.
PropagationModel lossless() {
  PropagationModel m;
  m.k = kTwoPi / 100.0;
  m.attenuation_length = 0.0;  // no decay
  m.split = SplitPolicy::kLossless;
  return m;
}

PropagationModel damped(double latt = 2000.0) {
  PropagationModel m = lossless();
  m.attenuation_length = latt;
  m.split = SplitPolicy::kUnitary;
  return m;
}

TEST(WaveNetwork, SingleLinePropagatesPhase) {
  WaveNetwork net;
  const NodeId src = net.add_source("S");
  const NodeId det = net.add_detector("D");
  net.connect(src, det, 100.0);  // exactly one wavelength
  net.excite(src, 1.0, 0.0);
  const auto r = net.solve(lossless());
  const Complex p = r.detector_phasor.at(det);
  EXPECT_NEAR(p.real(), 1.0, 1e-9);
  EXPECT_NEAR(p.imag(), 0.0, 1e-9);
}

TEST(WaveNetwork, HalfWavelengthInvertsPhase) {
  WaveNetwork net;
  const NodeId src = net.add_source("S");
  const NodeId det = net.add_detector("D");
  net.connect(src, det, 150.0);  // (1 + 1/2) lambda
  net.excite(src, 1.0, 0.0);
  const auto r = net.solve(lossless());
  EXPECT_NEAR(r.detector_phasor.at(det).real(), -1.0, 1e-9);
}

TEST(WaveNetwork, QuarterWavelengthGivesQuadrature) {
  WaveNetwork net;
  const NodeId src = net.add_source("S");
  const NodeId det = net.add_detector("D");
  net.connect(src, det, 25.0);
  net.excite(src, 1.0, 0.0);
  const auto r = net.solve(lossless());
  const Complex p = r.detector_phasor.at(det);
  EXPECT_NEAR(p.real(), 0.0, 1e-9);
  EXPECT_NEAR(p.imag(), -1.0, 1e-9);  // e^{-ikL}
}

TEST(WaveNetwork, ConstructiveInterference) {
  // Two in-phase sources merging at a junction: amplitudes add.
  WaveNetwork net;
  const NodeId a = net.add_source("A");
  const NodeId b = net.add_source("B");
  const NodeId j = net.add_junction("J");
  const NodeId d = net.add_detector("D");
  net.connect(a, j, 100.0);
  net.connect(b, j, 100.0);
  net.connect(j, d, 100.0);
  net.excite(a, 1.0, 0.0);
  net.excite(b, 1.0, 0.0);
  const auto r = net.solve(lossless());
  EXPECT_NEAR(std::abs(r.detector_phasor.at(d)), 2.0, 1e-9);
}

TEST(WaveNetwork, DestructiveInterference) {
  WaveNetwork net;
  const NodeId a = net.add_source("A");
  const NodeId b = net.add_source("B");
  const NodeId j = net.add_junction("J");
  const NodeId d = net.add_detector("D");
  net.connect(a, j, 100.0);
  net.connect(b, j, 100.0);
  net.connect(j, d, 100.0);
  net.excite(a, 1.0, 0.0);
  net.excite(b, 1.0, kPi);  // antiphase
  const auto r = net.solve(lossless());
  EXPECT_NEAR(std::abs(r.detector_phasor.at(d)), 0.0, 1e-9);
}

TEST(WaveNetwork, PathLengthDifferenceInterference) {
  // Same phase but paths differing by lambda/2: destructive.
  WaveNetwork net;
  const NodeId a = net.add_source("A");
  const NodeId b = net.add_source("B");
  const NodeId j = net.add_junction("J");
  const NodeId d = net.add_detector("D");
  net.connect(a, j, 100.0);
  net.connect(b, j, 150.0);
  net.connect(j, d, 100.0);
  net.excite(a, 1.0, 0.0);
  net.excite(b, 1.0, 0.0);
  const auto r = net.solve(lossless());
  EXPECT_NEAR(std::abs(r.detector_phasor.at(d)), 0.0, 1e-9);
}

TEST(WaveNetwork, AttenuationDecaysAmplitude) {
  WaveNetwork net;
  const NodeId src = net.add_source("S");
  const NodeId det = net.add_detector("D");
  net.connect(src, det, 500.0);
  net.excite(src, 1.0, 0.0);
  const auto r = net.solve(damped(1000.0));
  EXPECT_NEAR(std::abs(r.detector_phasor.at(det)), std::exp(-0.5), 1e-9);
}

TEST(WaveNetwork, EdgeWeightScalesAmplitude) {
  WaveNetwork net;
  const NodeId src = net.add_source("S");
  const NodeId det = net.add_detector("D");
  net.connect(src, det, 100.0, /*weight=*/0.25);
  net.excite(src, 1.0, 0.0);
  const auto r = net.solve(lossless());
  EXPECT_NEAR(std::abs(r.detector_phasor.at(det)), 0.25, 1e-9);
}

TEST(WaveNetwork, UnitarySplitConservesEnergy) {
  // One source feeding a symmetric 1 -> 2 splitter.
  WaveNetwork net;
  const NodeId src = net.add_source("S");
  const NodeId j = net.add_junction("J");
  const NodeId d1 = net.add_detector("D1");
  const NodeId d2 = net.add_detector("D2");
  net.connect(src, j, 100.0);
  net.connect(j, d1, 100.0);
  net.connect(j, d2, 100.0);
  net.excite(src, 1.0, 0.0);
  PropagationModel m = lossless();
  m.split = SplitPolicy::kUnitary;
  const auto r = net.solve(m);
  const double e1 = std::norm(r.detector_phasor.at(d1));
  const double e2 = std::norm(r.detector_phasor.at(d2));
  EXPECT_NEAR(e1 + e2, 1.0, 1e-9);
  EXPECT_NEAR(e1, e2, 1e-12);
}

TEST(WaveNetwork, LosslessSplitDuplicates) {
  WaveNetwork net;
  const NodeId src = net.add_source("S");
  const NodeId j = net.add_junction("J");
  const NodeId d1 = net.add_detector("D1");
  const NodeId d2 = net.add_detector("D2");
  net.connect(src, j, 100.0);
  net.connect(j, d1, 100.0);
  net.connect(j, d2, 100.0);
  net.excite(src, 1.0, 0.0);
  const auto r = net.solve(lossless());
  EXPECT_NEAR(std::abs(r.detector_phasor.at(d1)), 1.0, 1e-9);
  EXPECT_NEAR(std::abs(r.detector_phasor.at(d2)), 1.0, 1e-9);
}

TEST(WaveNetwork, SourceAbsorbsIncomingWaves) {
  // A wave reaching another source terminates there (transducer loading);
  // nothing bounces back to the detector.
  WaveNetwork net;
  const NodeId a = net.add_source("A");
  const NodeId b = net.add_source("B");
  const NodeId j = net.add_junction("J");
  const NodeId d = net.add_detector("D");
  net.connect(a, j, 100.0);
  net.connect(b, j, 100.0);
  net.connect(j, d, 100.0);
  net.excite(a, 1.0, 0.0);
  net.excite(b, 0.0, 0.0);  // silent transducer still absorbs
  const auto r = net.solve(lossless());
  EXPECT_NEAR(std::abs(r.detector_phasor.at(d)), 1.0, 1e-9);
}

TEST(WaveNetwork, TapInjectsAndPassesThrough) {
  // src --- tap --- det: the tap's own wave and the source's wave both
  // arrive; with everything at integer lambda they add.
  WaveNetwork net;
  const NodeId src = net.add_source("S");
  const NodeId tap = net.add_tap("T");
  const NodeId det = net.add_detector("D");
  net.connect(src, tap, 100.0);
  net.connect(tap, det, 100.0);
  net.excite(src, 1.0, 0.0);
  net.excite(tap, 1.0, 0.0);
  const auto r = net.solve(lossless());
  EXPECT_NEAR(std::abs(r.detector_phasor.at(det)), 2.0, 1e-9);
}

TEST(WaveNetwork, SilentTapIsTransparent) {
  WaveNetwork net;
  const NodeId src = net.add_source("S");
  const NodeId tap = net.add_tap("T");
  const NodeId det = net.add_detector("D");
  net.connect(src, tap, 100.0);
  net.connect(tap, det, 100.0);
  net.excite(src, 1.0, 0.0);
  const auto r = net.solve(lossless());
  EXPECT_NEAR(std::abs(r.detector_phasor.at(det)), 1.0, 1e-9);
}

TEST(WaveNetwork, RepeaterRegeneratesAmplitude) {
  WaveNetwork net;
  const NodeId src = net.add_source("S");
  const NodeId rep = net.add_repeater("R");
  const NodeId det = net.add_detector("D");
  net.connect(src, rep, 1000.0);
  net.connect(rep, det, 100.0);
  net.excite(src, 1.0, 0.0);
  PropagationModel m = damped(500.0);  // heavy decay before the repeater
  const auto r = net.solve(m);
  // The repeater restores unit amplitude; only the final hop decays.
  EXPECT_NEAR(std::abs(r.detector_phasor.at(det)), std::exp(-100.0 / 500.0),
              1e-6);
}

TEST(WaveNetwork, DeadEndJunctionDropsWave) {
  WaveNetwork net;
  const NodeId src = net.add_source("S");
  const NodeId j = net.add_junction("J");
  const NodeId det = net.add_detector("D");
  net.connect(src, j, 100.0);
  net.excite(src, 1.0, 0.0);
  (void)det;
  const auto r = net.solve(lossless());
  EXPECT_NEAR(std::abs(r.detector_phasor.at(det)), 0.0, 1e-12);
}

TEST(WaveNetwork, DetectorsAlwaysReported) {
  WaveNetwork net;
  const NodeId det = net.add_detector("D");
  const NodeId src = net.add_source("S");
  net.excite(src, 0.0, 0.0);
  const auto r = net.solve(lossless());
  EXPECT_EQ(r.detector_phasor.count(det), 1u);
  EXPECT_EQ(std::abs(r.detector_phasor.at(det)), 0.0);
}

TEST(WaveNetwork, ResonantLosslessLoopThrows) {
  // A lossless ring with lossless splitting never decays: the event guard
  // must fire instead of hanging.
  WaveNetwork net;
  const NodeId src = net.add_source("S");
  const NodeId a = net.add_junction("A");
  const NodeId b = net.add_junction("B");
  const NodeId c = net.add_junction("C");
  net.connect(src, a, 100.0);
  net.connect(a, b, 100.0);
  net.connect(b, c, 100.0);
  net.connect(c, a, 100.0);
  net.excite(src, 1.0, 0.0);
  PropagationModel m = lossless();
  m.max_events = 10000;
  EXPECT_THROW(net.solve(m), std::runtime_error);
}

TEST(WaveNetwork, DampedLoopConverges) {
  WaveNetwork net;
  const NodeId src = net.add_source("S");
  const NodeId a = net.add_junction("A");
  const NodeId b = net.add_junction("B");
  const NodeId c = net.add_junction("C");
  const NodeId d = net.add_detector("D");
  net.connect(src, a, 100.0);
  net.connect(a, b, 100.0);
  net.connect(b, c, 100.0);
  net.connect(c, a, 100.0);
  net.connect(b, d, 100.0);
  net.excite(src, 1.0, 0.0);
  const auto r = net.solve(damped(300.0));
  EXPECT_GT(std::abs(r.detector_phasor.at(d)), 0.0);
  EXPECT_LT(r.events, 100000u);
}

TEST(WaveNetwork, ExciteLogicUsesPhaseEncoding) {
  WaveNetwork net;
  const NodeId src = net.add_source("S");
  const NodeId det = net.add_detector("D");
  net.connect(src, det, 100.0);
  net.excite_logic(src, true);
  const auto r1 = net.solve(lossless());
  EXPECT_NEAR(r1.detector_phasor.at(det).real(), -1.0, 1e-9);  // phase pi
  net.excite_logic(src, false);
  const auto r0 = net.solve(lossless());
  EXPECT_NEAR(r0.detector_phasor.at(det).real(), 1.0, 1e-9);
}

TEST(WaveNetwork, ArgumentValidation) {
  WaveNetwork net;
  const NodeId a = net.add_source("A");
  const NodeId j = net.add_junction("J");
  EXPECT_THROW(net.connect(a, a, 10.0), std::invalid_argument);
  EXPECT_THROW(net.connect(a, 99, 10.0), std::out_of_range);
  EXPECT_THROW(net.connect(a, j, -1.0), std::invalid_argument);
  EXPECT_THROW(net.connect(a, j, 10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(net.excite(j, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(net.excite(a, -1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(net.find("nope"), std::invalid_argument);
  EXPECT_EQ(net.find("A"), a);
  PropagationModel bad;
  bad.k = 0.0;
  EXPECT_THROW(net.solve(bad), std::invalid_argument);
}

TEST(WaveNetwork, NodeMetadata) {
  WaveNetwork net;
  const NodeId a = net.add_source("A");
  const NodeId j = net.add_junction("J");
  EXPECT_EQ(net.kind(a), NodeKind::kSource);
  EXPECT_EQ(net.kind(j), NodeKind::kJunction);
  EXPECT_EQ(net.name(a), "A");
  EXPECT_EQ(net.node_count(), 2u);
  net.connect(a, j, 5.0);
  EXPECT_EQ(net.edge_count(), 1u);
}

// Property sweep: N equal-amplitude sources with phases 0/pi merging at a
// junction produce |sum of signs| — the physical basis of the majority gate.
class MajoritySuperposition : public ::testing::TestWithParam<int> {};

TEST_P(MajoritySuperposition, AmplitudeIsSignSum) {
  const int pattern = GetParam();
  WaveNetwork net;
  const NodeId j = net.add_junction("J");
  const NodeId d = net.add_detector("D");
  net.connect(j, d, 100.0);
  int sign_sum = 0;
  for (int i = 0; i < 3; ++i) {
    const NodeId s = net.add_source('S' + std::to_string(i));
    net.connect(s, j, 100.0);
    const bool one = (pattern >> i) & 1;
    net.excite_logic(s, one);
    sign_sum += one ? -1 : 1;
  }
  const auto r = net.solve(lossless());
  EXPECT_NEAR(std::abs(r.detector_phasor.at(d)),
              std::fabs(static_cast<double>(sign_sum)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, MajoritySuperposition,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace swsim::wavenet
