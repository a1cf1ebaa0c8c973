// Tests for the reliability analysis (sim/reliability.h): analytic
// single-fault survival, multi-fault recovery, and Monte Carlo bounds.
#include "sim/reliability.h"

#include <gtest/gtest.h>

#include <cmath>

#include "assay/assay_library.h"
#include "assay/scheduler.h"
#include "core/greedy_placer.h"

namespace dmfb {
namespace {

Schedule single_module_schedule() {
  Schedule s;
  const ModuleSpec spec{"m", ModuleKind::kMixer, 2, 2, 10.0};  // 4x4
  s.add(ScheduledModule{0, "A", spec, 0.0, 10.0, -1, -1});
  return s;
}

TEST(ReliabilityTest, ZeroFailureProbabilityIsCertainSurvival) {
  Placement p(single_module_schedule(), 8, 4);
  p.set_anchor(0, {0, 0});
  const auto r = single_fault_reliability(p, Rect{0, 0, 8, 4}, 0.0);
  EXPECT_DOUBLE_EQ(r.p_no_fault, 1.0);
  EXPECT_DOUBLE_EQ(r.survival_probability(), 1.0);
}

TEST(ReliabilityTest, FullCoverageSurvivesAnySingleFault) {
  // FTI = 1 region: survival = P(0 faults) + P(exactly 1 fault).
  Placement p(single_module_schedule(), 8, 4);
  p.set_anchor(0, {0, 0});
  const Rect array{0, 0, 8, 4};
  const double prob = 0.01;
  const auto r = single_fault_reliability(p, array, prob);
  const double n = 32.0;
  EXPECT_NEAR(r.p_no_fault, std::pow(1 - prob, n), 1e-12);
  EXPECT_NEAR(r.p_one_fault_survived,
              n * prob * std::pow(1 - prob, n - 1), 1e-12);
}

TEST(ReliabilityTest, ZeroFtiMeansOnlyNoFaultTermSurvives) {
  Placement p(single_module_schedule(), 4, 4);
  p.set_anchor(0, {0, 0});
  const auto r = single_fault_reliability(p, Rect{0, 0, 4, 4}, 0.01);
  EXPECT_DOUBLE_EQ(r.p_one_fault_survived, 0.0);
  EXPECT_LT(r.survival_probability(), 1.0);
}

TEST(ReliabilityTest, SurvivalDecreasesWithFailureProbability) {
  const auto assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const Placement p = place_greedy(schedule, 16, 16);
  const Rect array = p.bounding_box();
  double last = 1.1;
  for (const double prob : {0.001, 0.005, 0.02, 0.05}) {
    const double survival =
        single_fault_reliability(p, array, prob).survival_probability();
    EXPECT_LT(survival, last);
    last = survival;
  }
}

TEST(ReliabilityTest, MultiFaultRecoveryAvoidsAllFaults) {
  Placement p(single_module_schedule(), 12, 4);
  p.set_anchor(0, {0, 0});
  const Rect array{0, 0, 12, 4};
  const Reconfigurator reconfig;
  const std::vector<Point> faults{{1, 1}, {5, 2}};
  const auto result = recover_from_defect_map(p, faults, array, reconfig);
  ASSERT_TRUE(result.success) << result.failure_reason;
  for (const Point& f : faults) {
    EXPECT_FALSE(result.placement.module(0).footprint().contains(f));
  }
  EXPECT_TRUE(result.placement.feasible());
}

TEST(ReliabilityTest, MultiFaultRecoveryFailsWhenFaultsBlockEverything) {
  // Faults spread so every 4x4 window of the 12x4 strip contains one.
  Placement p(single_module_schedule(), 12, 4);
  p.set_anchor(0, {0, 0});
  const Rect array{0, 0, 12, 4};
  const Reconfigurator reconfig;
  const std::vector<Point> faults{{2, 1}, {6, 2}, {10, 1}};
  const auto result = recover_from_defect_map(p, faults, array, reconfig);
  EXPECT_FALSE(result.success);
}

TEST(ReliabilityTest, MonteCarloAgreesWithAnalyticAtTinyP) {
  // With p so small that two faults are (almost) never sampled, the Monte
  // Carlo estimate must match the analytic single-fault survival closely.
  const auto assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const Placement p = place_greedy(schedule, 16, 16);
  const Rect array = p.bounding_box();
  const double prob = 0.002;
  Rng rng(7);
  const auto mc = monte_carlo_reliability(p, array, prob, 2000, rng);
  const auto analytic = single_fault_reliability(p, array, prob);
  EXPECT_NEAR(mc.survival_probability(), analytic.survival_probability(),
              0.03);
  EXPECT_EQ(mc.trials, 2000);
}

TEST(ReliabilityTest, MonteCarloZeroProbabilityAlwaysSurvives) {
  Placement p(single_module_schedule(), 4, 4);
  p.set_anchor(0, {0, 0});
  Rng rng(9);
  const auto mc =
      monte_carlo_reliability(p, Rect{0, 0, 4, 4}, 0.0, 100, rng);
  EXPECT_EQ(mc.survived, 100);
  EXPECT_DOUBLE_EQ(mc.mean_faults_per_trial, 0.0);
}

TEST(ReliabilityTest, MeanFaultsTracksExpectation) {
  Placement p(single_module_schedule(), 8, 8);
  p.set_anchor(0, {0, 0});
  const Rect array{0, 0, 8, 8};
  const double prob = 0.05;
  Rng rng(11);
  const auto mc = monte_carlo_reliability(p, array, prob, 3000, rng);
  EXPECT_NEAR(mc.mean_faults_per_trial, 64.0 * prob, 0.3);
}

}  // namespace
}  // namespace dmfb
