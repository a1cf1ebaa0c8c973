// Tests for the greedy baseline / constructive initial placement
// (core/greedy_placer.h).
#include "core/greedy_placer.h"

#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/scheduler.h"

namespace dmfb {
namespace {

Schedule pcr_schedule() {
  const auto assay = pcr_mixing_assay();
  return list_schedule(assay.graph, assay.binding, assay.scheduler_options);
}

TEST(GreedyPlacerTest, ProducesFeasiblePlacement) {
  const Placement p = place_greedy(pcr_schedule(), 24, 24);
  EXPECT_TRUE(p.feasible());
  EXPECT_EQ(p.overlap_cells(), 0);
  EXPECT_TRUE(p.within_canvas());
}

TEST(GreedyPlacerTest, LargestModuleAtOrigin) {
  const Placement p = place_greedy(pcr_schedule(), 24, 24);
  // The module with the largest footprint is placed first at the
  // bottom-left corner.
  long long largest = 0;
  for (const auto& m : p.modules()) {
    largest = std::max(largest, m.spec.footprint_cells());
  }
  bool found_at_origin = false;
  for (const auto& m : p.modules()) {
    if (m.spec.footprint_cells() == largest &&
        m.anchor == Point{0, 0}) {
      found_at_origin = true;
    }
  }
  EXPECT_TRUE(found_at_origin);
}

TEST(GreedyPlacerTest, ReusesCellsAcrossTime) {
  // Modules that never overlap in time can share cells, so the greedy
  // area must be far below the sum of footprints.
  const Schedule schedule = pcr_schedule();
  long long footprint_sum = 0;
  for (const auto& m : schedule.modules()) {
    footprint_sum += m.spec.footprint_cells();
  }
  const Placement p = place_greedy(schedule, 24, 24);
  EXPECT_LT(p.bounding_box_cells(), footprint_sum);
}

TEST(GreedyPlacerTest, AreaLowerBoundHolds) {
  const Schedule schedule = pcr_schedule();
  const Placement p = place_greedy(schedule, 24, 24);
  EXPECT_GE(p.bounding_box_cells(), schedule.peak_concurrent_cells());
}

TEST(GreedyPlacerTest, ThrowsWhenCanvasTooSmall) {
  EXPECT_THROW(place_greedy(pcr_schedule(), 7, 7), std::runtime_error);
}

TEST(GreedyPlacerTest, DeterministicResult) {
  const Placement a = place_greedy(pcr_schedule(), 24, 24);
  const Placement b = place_greedy(pcr_schedule(), 24, 24);
  for (int i = 0; i < a.module_count(); ++i) {
    EXPECT_EQ(a.module(i).anchor, b.module(i).anchor);
    EXPECT_EQ(a.module(i).rotated, b.module(i).rotated);
  }
}

TEST(GreedyPlacerTest, GreedyResetOverwritesAnchors) {
  Placement p = place_greedy(pcr_schedule(), 24, 24);
  const Point original = p.module(0).anchor;
  p.set_anchor(0, {15, 15});
  p.set_rotated(0, true);
  greedy_reset(p);
  EXPECT_EQ(p.module(0).anchor, original);
  EXPECT_FALSE(p.module(0).rotated);
  EXPECT_TRUE(p.feasible());
}

TEST(GreedyPlacerTest, SingleModuleGoesToOrigin) {
  Schedule s;
  const ModuleSpec spec{"m", ModuleKind::kMixer, 2, 2, 5.0};
  s.add(ScheduledModule{0, "A", spec, 0.0, 5.0, -1, -1});
  const Placement p = place_greedy(s, 8, 8);
  EXPECT_EQ(p.module(0).anchor, (Point{0, 0}));
}

TEST(GreedyPlacerTest, ConcurrentModulesPackBottomLeft) {
  Schedule s;
  const ModuleSpec spec{"m", ModuleKind::kMixer, 2, 2, 5.0};  // 4x4
  for (int i = 0; i < 3; ++i) {
    s.add(ScheduledModule{i, "M" + std::to_string(i), spec, 0.0, 5.0, -1,
                          -1});
  }
  const Placement p = place_greedy(s, 12, 12);
  EXPECT_TRUE(p.feasible());
  // Three concurrent 4x4 modules on a 12-wide canvas: all in the bottom
  // row, x = 0, 4, 8.
  std::vector<int> xs;
  for (const auto& m : p.modules()) {
    EXPECT_EQ(m.anchor.y, 0);
    xs.push_back(m.anchor.x);
  }
  std::sort(xs.begin(), xs.end());
  EXPECT_EQ(xs, (std::vector<int>{0, 4, 8}));
}

}  // namespace
}  // namespace dmfb
