// Tests for target-concentration mixing-tree synthesis
// (assay/mixing_tree.h): the generated assay, executed on the simulator,
// must hit the requested concentration exactly.
#include "assay/mixing_tree.h"

#include <gtest/gtest.h>

#include "assay/scheduler.h"
#include "core/greedy_placer.h"
#include "sim/sim_engine.h"

namespace dmfb {
namespace {

double simulate_final_concentration(const AssayCase& assay) {
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const Placement placement = place_greedy(schedule, 24, 24);
  const Chip chip(24, 24);
  EventSimEngine engine;
  const auto run =
      engine.run(assay.graph, schedule, placement, chip).result;
  EXPECT_TRUE(run.success) << run.failure_reason;
  // The last dilute op's output is the target droplet.
  double fraction = -1.0;
  for (const auto& op : assay.graph.operations()) {
    if (op.type != OperationType::kDilute) continue;
    const auto it = run.op_outputs.find(op.id);
    if (it != run.op_outputs.end()) {
      fraction = it->second.fraction_of("sample");
    }
  }
  return fraction;
}

TEST(MixingTreeTest, ValidityPredicate) {
  EXPECT_TRUE(is_valid_ratio(MixRatio{1, 1}));
  EXPECT_TRUE(is_valid_ratio(MixRatio{3, 2}));
  EXPECT_FALSE(is_valid_ratio(MixRatio{0, 3}));
  EXPECT_FALSE(is_valid_ratio(MixRatio{8, 3}));   // k == 2^d
  EXPECT_FALSE(is_valid_ratio(MixRatio{9, 3}));   // k > 2^d
  EXPECT_FALSE(is_valid_ratio(MixRatio{1, 0}));
  EXPECT_FALSE(is_valid_ratio(MixRatio{1, 17}));
}

TEST(MixingTreeTest, StepCountReducesEvenNumerators) {
  EXPECT_EQ(mixing_steps_required(MixRatio{1, 1}), 1);   // 1/2
  EXPECT_EQ(mixing_steps_required(MixRatio{2, 2}), 1);   // 2/4 = 1/2
  EXPECT_EQ(mixing_steps_required(MixRatio{4, 4}), 2);   // 4/16 = 1/4
  EXPECT_EQ(mixing_steps_required(MixRatio{3, 4}), 4);   // 3/16 (odd)
}

TEST(MixingTreeTest, InvalidRatioThrows) {
  const auto lib = ModuleLibrary::standard();
  EXPECT_THROW(mixing_tree_assay(MixRatio{0, 2}, lib),
               std::invalid_argument);
  EXPECT_THROW(mixing_tree_assay(MixRatio{4, 2}, lib),
               std::invalid_argument);
}

TEST(MixingTreeTest, HalfIsOneStep) {
  const auto lib = ModuleLibrary::standard();
  const auto assay = mixing_tree_assay(MixRatio{1, 1}, lib);
  int dilutes = 0;
  for (const auto& op : assay.graph.operations()) {
    if (op.type == OperationType::kDilute) ++dilutes;
  }
  EXPECT_EQ(dilutes, 1);
  EXPECT_NEAR(simulate_final_concentration(assay), 0.5, 1e-12);
}

class MixingTreeRatioSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MixingTreeRatioSweep, SimulatedConcentrationHitsTarget) {
  const auto [numerator, depth] = GetParam();
  const MixRatio ratio{numerator, depth};
  const auto lib = ModuleLibrary::standard();
  const auto assay = mixing_tree_assay(ratio, lib);
  EXPECT_TRUE(assay.graph.is_acyclic());
  EXPECT_TRUE(validate_binding(assay.graph, assay.binding).empty());
  const double measured = simulate_final_concentration(assay);
  EXPECT_NEAR(measured, ratio.value(), 1e-12)
      << numerator << "/2^" << depth;
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, MixingTreeRatioSweep,
    ::testing::Values(std::pair{1, 2}, std::pair{3, 2}, std::pair{1, 3},
                      std::pair{3, 3}, std::pair{5, 3}, std::pair{7, 3},
                      std::pair{5, 4}, std::pair{11, 4}, std::pair{9, 5},
                      std::pair{21, 5}, std::pair{6, 4}, std::pair{12, 5}));

TEST(MixingTreeTest, DetectorAppendedWhenRequested) {
  const auto lib = ModuleLibrary::standard();
  const auto assay = mixing_tree_assay(MixRatio{3, 3}, lib,
                                       /*add_detector=*/true);
  bool has_detector = false;
  for (const auto& op : assay.graph.operations()) {
    if (op.type == OperationType::kDetect) has_detector = true;
  }
  EXPECT_TRUE(has_detector);
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  EXPECT_TRUE(schedule.validate_against(assay.graph).empty());
}

TEST(MixingTreeTest, ChainUsesMinimalSteps) {
  const auto lib = ModuleLibrary::standard();
  for (const auto& [k, d] : std::vector<std::pair<int, int>>{
           {1, 4}, {2, 4}, {8, 4}, {3, 4}}) {
    const auto assay = mixing_tree_assay(MixRatio{k, d}, lib);
    int dilutes = 0;
    for (const auto& op : assay.graph.operations()) {
      if (op.type == OperationType::kDilute) ++dilutes;
    }
    EXPECT_EQ(dilutes, mixing_steps_required(MixRatio{k, d}))
        << k << "/2^" << d;
  }
}

}  // namespace
}  // namespace dmfb
