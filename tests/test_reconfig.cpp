// Tests for the partial-reconfiguration engine (core/reconfig.h).
#include "core/reconfig.h"

#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/scheduler.h"
#include "core/fti.h"
#include "core/greedy_placer.h"
#include "sim/fault.h"

namespace dmfb {
namespace {

Schedule single_module_schedule() {
  Schedule s;
  const ModuleSpec spec{"m", ModuleKind::kMixer, 2, 2, 10.0};  // 4x4
  s.add(ScheduledModule{0, "A", spec, 0.0, 10.0, -1, -1});
  return s;
}

TEST(ReconfigTest, RelocatesIntoSpareColumn) {
  Placement p(single_module_schedule(), 8, 4);
  p.set_anchor(0, {0, 0});
  const Reconfigurator reconfig;
  const Rect array{0, 0, 8, 4};
  const auto outcome = reconfig.relocate_module(p, 0, Point{1, 1}, array);
  ASSERT_TRUE(outcome.has_value());
  // New footprint must avoid the fault and stay in the array.
  const Rect new_fp = footprint_rect(p.module(0).spec, outcome->new_anchor,
                                     outcome->new_rotated);
  EXPECT_FALSE(new_fp.contains(Point{1, 1}));
  EXPECT_TRUE(array.contains(new_fp));
  EXPECT_EQ(outcome->module_label, "A");
  EXPECT_GT(outcome->move_distance, 0);
}

TEST(ReconfigTest, FailsWhenNoRoom) {
  Placement p(single_module_schedule(), 4, 4);
  p.set_anchor(0, {0, 0});
  const Reconfigurator reconfig;
  const auto outcome =
      reconfig.relocate_module(p, 0, Point{1, 1}, Rect{0, 0, 4, 4});
  EXPECT_FALSE(outcome.has_value());
}

TEST(ReconfigTest, RecoverMovesEveryAffectedModule) {
  // Two modules at different times sharing cells: a fault under both must
  // relocate both.
  Schedule s;
  const ModuleSpec spec{"m", ModuleKind::kMixer, 2, 2, 10.0};
  s.add(ScheduledModule{0, "A", spec, 0.0, 10.0, -1, -1});
  s.add(ScheduledModule{1, "B", spec, 10.0, 20.0, -1, -1});
  Placement p(s, 10, 4);
  p.set_anchor(0, {0, 0});
  p.set_anchor(1, {0, 0});  // same cells, later
  const Reconfigurator reconfig;
  const auto result = reconfig.recover(p, Point{1, 1}, Rect{0, 0, 10, 4});
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.relocations.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(result.placement.module(i).footprint().contains(
        Point{1, 1}));
  }
  EXPECT_TRUE(result.placement.feasible());
}

TEST(ReconfigTest, RecoverOnUnusedCellIsNoop) {
  Placement p(single_module_schedule(), 8, 4);
  p.set_anchor(0, {0, 0});
  const Reconfigurator reconfig;
  const auto result = reconfig.recover(p, Point{6, 2}, Rect{0, 0, 8, 4});
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.relocations.empty());
  EXPECT_EQ(result.placement.module(0).anchor, (Point{0, 0}));
}

TEST(ReconfigTest, FailureRollsBackPlacement) {
  Placement p(single_module_schedule(), 4, 4);
  p.set_anchor(0, {0, 0});
  const Reconfigurator reconfig;
  const auto result = reconfig.recover(p, Point{2, 2}, Rect{0, 0, 4, 4});
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.failure_reason.empty());
  EXPECT_EQ(result.placement.module(0).anchor, (Point{0, 0}));
}

TEST(ReconfigTest, NearestPolicyMinimizesDistance) {
  // Spare room on both sides; the nearer one must win.
  Schedule s;
  const ModuleSpec spec{"m", ModuleKind::kMixer, 1, 1, 5.0};  // 3x3
  s.add(ScheduledModule{0, "A", spec, 0.0, 5.0, -1, -1});
  Placement p(s, 20, 3);
  p.set_anchor(0, {3, 0});  // 3 columns left, 14 right
  const Reconfigurator nearest({}, RelocationPolicy::kNearest);
  const auto outcome =
      nearest.relocate_module(p, 0, Point{4, 1}, Rect{0, 0, 20, 3});
  ASSERT_TRUE(outcome.has_value());
  // The fault at x=4 forbids anchors x in {2,3,4}; the nearest legal
  // anchors are x=1 (left) and x=5 (right), both at distance 2.
  EXPECT_EQ(outcome->move_distance, 2);
  const Rect new_fp = footprint_rect(p.module(0).spec, outcome->new_anchor,
                                     outcome->new_rotated);
  EXPECT_FALSE(new_fp.contains(Point{4, 1}));
}

TEST(ReconfigTest, BestFitPolicyPicksSmallestMer) {
  // Two spare pockets: one 3x3 (snug) and one much larger.
  Schedule s;
  const ModuleSpec spec{"m", ModuleKind::kMixer, 1, 1, 5.0};        // 3x3
  const ModuleSpec wall{"wall", ModuleKind::kMixer, 1, 8, 5.0};     // 3x10
  s.add(ScheduledModule{0, "A", spec, 0.0, 5.0, -1, -1});
  s.add(ScheduledModule{1, "W", wall, 0.0, 5.0, -1, -1});
  Placement p(s, 16, 10);
  p.set_anchor(0, {0, 0});   // bottom-left 3x3
  p.set_anchor(1, {3, 0});   // wall at x=3..5 full height
  // With A removed and the fault at (1,1) marked, the left pocket's
  // largest fitting MER is columns 0-2 rows 2-9 (3x8 = 24 cells, above
  // the fault); the right side is a 10x10 block. Best fit = the pocket.
  const Reconfigurator bestfit({}, RelocationPolicy::kBestFit);
  const auto outcome =
      bestfit.relocate_module(p, 0, Point{1, 1}, Rect{0, 0, 16, 10});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->target_mer.area(), 3 * 8);
}

TEST(ReconfigTest, FirstFitIsDeterministic) {
  Placement p(single_module_schedule(), 12, 6);
  p.set_anchor(0, {0, 0});
  const Reconfigurator firstfit({}, RelocationPolicy::kFirstFit);
  const auto a = firstfit.relocate_module(p, 0, Point{0, 0}, Rect{0, 0, 12, 6});
  const auto b = firstfit.relocate_module(p, 0, Point{0, 0}, Rect{0, 0, 12, 6});
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->new_anchor, b->new_anchor);
  EXPECT_EQ(a->new_rotated, b->new_rotated);
}

TEST(ReconfigTest, RotationDisabledRestrictsTargets) {
  // 3x6 module; spare region is 6x3 — fits only rotated.
  Schedule s;
  const ModuleSpec slim{"slim", ModuleKind::kMixer, 1, 4, 5.0};     // 3x6
  const ModuleSpec block{"block", ModuleKind::kMixer, 1, 4, 5.0};   // 3x6
  s.add(ScheduledModule{0, "A", slim, 0.0, 5.0, -1, -1});
  s.add(ScheduledModule{1, "B", block, 0.0, 5.0, -1, -1});
  Placement p(s, 6, 9);
  p.set_anchor(0, {0, 0});
  p.set_anchor(1, {3, 0});
  const Rect array{0, 0, 6, 9};
  const Point fault{1, 4};  // mid-module; vertical shifts cannot avoid it

  const Reconfigurator with_rot(FtiOptions{.allow_rotation = true});
  const Reconfigurator no_rot(FtiOptions{.allow_rotation = false});
  const auto rotated = with_rot.relocate_module(p, 0, fault, array);
  ASSERT_TRUE(rotated.has_value());
  EXPECT_TRUE(rotated->new_rotated);
  EXPECT_FALSE(no_rot.relocate_module(p, 0, fault, array).has_value());
}

TEST(ReconfigTest, RecoverAgreementWithFtiOnPcr) {
  // For every cell of the array: recover() succeeds exactly when the FTI
  // evaluator calls the cell covered. This pins the production engine to
  // the metric the placer optimizes.
  const auto assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const Placement p = place_greedy(schedule, 14, 14);
  const Rect array = p.bounding_box();
  const Reconfigurator reconfig;
  const FtiResult fti = evaluate_fti(p, {}, array);
  for (const Point& cell : enumerate_cells(array)) {
    const bool covered =
        fti.covered.at(cell.x - array.x, cell.y - array.y) != 0;
    const bool recovered = reconfig.recover(p, cell, array).success;
    EXPECT_EQ(covered, recovered)
        << "cell (" << cell.x << "," << cell.y << ")";
  }
}

TEST(ReconfigTest, RecoveredPlacementStaysFeasibleAndInArray) {
  const auto assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const Placement p = place_greedy(schedule, 16, 16);
  const Rect array = p.bounding_box().inflated(1).intersection(
      Rect{0, 0, 16, 16});
  const Reconfigurator reconfig;
  for (const Point& cell : enumerate_cells(array)) {
    const auto result = reconfig.recover(p, cell, array);
    if (!result.success) continue;
    EXPECT_TRUE(result.placement.feasible());
    for (const auto& m : result.placement.modules()) {
      EXPECT_TRUE(array.contains(m.footprint())) << m.label;
      EXPECT_FALSE(m.footprint().contains(cell)) << m.label;
    }
  }
}

}  // namespace
}  // namespace dmfb
