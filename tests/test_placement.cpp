// Tests for the modified-2D placement model (core/placement.h).
#include "core/placement.h"

#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/scheduler.h"

namespace dmfb {
namespace {

/// Two modules overlapping in time plus one later module.
Schedule small_schedule() {
  Schedule s;
  const ModuleSpec big{"big", ModuleKind::kMixer, 2, 2, 10.0};    // 4x4
  const ModuleSpec slim{"slim", ModuleKind::kMixer, 1, 4, 5.0};   // 3x6
  s.add(ScheduledModule{0, "A", big, 0.0, 10.0, -1, -1});
  s.add(ScheduledModule{1, "B", slim, 0.0, 5.0, -1, -1});
  s.add(ScheduledModule{2, "C", big, 10.0, 20.0, -1, -1});
  return s;
}

TEST(PlacementTest, ConstructionFromSchedule) {
  const Placement p(small_schedule(), 16, 16);
  EXPECT_EQ(p.module_count(), 3);
  EXPECT_EQ(p.canvas_width(), 16);
  EXPECT_EQ(p.module(0).label, "A");
  EXPECT_EQ(p.module(1).spec.footprint_height(), 6);
}

TEST(PlacementTest, RejectsTinyCanvas) {
  EXPECT_THROW(Placement(small_schedule(), 3, 3), std::invalid_argument);
  EXPECT_THROW(Placement(small_schedule(), 0, 10), std::invalid_argument);
}

TEST(PlacementTest, ConflictingPairsRespectTime) {
  const Placement p(small_schedule(), 16, 16);
  // A[0,10) and B[0,5) conflict; C[10,20) conflicts with neither
  // (A ends exactly when C starts — back-to-back reuse is legal).
  EXPECT_EQ(p.conflicting_pairs(),
            (std::vector<std::pair<int, int>>{{0, 1}}));
  EXPECT_EQ(p.temporal_neighbors(0), std::vector<int>{1});
  EXPECT_TRUE(p.temporal_neighbors(2).empty());
}

TEST(PlacementTest, OverlapCountsOnlyConflictingPairs) {
  Placement p(small_schedule(), 16, 16);
  // All three stacked at the origin.
  p.set_anchor(0, {0, 0});
  p.set_anchor(1, {0, 0});
  p.set_anchor(2, {0, 0});
  // A (4x4) vs B (3x6) overlap = 3x4 = 12 cells; C overlaps nobody in time.
  EXPECT_EQ(p.overlap_cells(), 12);
  EXPECT_FALSE(p.feasible());
  p.set_anchor(1, {4, 0});
  EXPECT_EQ(p.overlap_cells(), 0);
  EXPECT_TRUE(p.feasible());
}

TEST(PlacementTest, ModulesMayShareCellsAcrossTime) {
  Placement p(small_schedule(), 16, 16);
  p.set_anchor(0, {0, 0});
  p.set_anchor(1, {4, 0});
  p.set_anchor(2, {0, 0});  // same cells as A, later in time
  EXPECT_EQ(p.overlap_cells(), 0);
  EXPECT_TRUE(p.feasible());
}

TEST(PlacementTest, BoundingBox) {
  Placement p(small_schedule(), 16, 16);
  p.set_anchor(0, {0, 0});   // 4x4 at origin
  p.set_anchor(1, {4, 0});   // 3x6
  p.set_anchor(2, {0, 4});   // 4x4
  const Rect box = p.bounding_box();
  EXPECT_EQ(box, (Rect{0, 0, 7, 8}));
  EXPECT_EQ(p.bounding_box_cells(), 56);
}

TEST(PlacementTest, WithinCanvas) {
  Placement p(small_schedule(), 8, 8);
  p.set_anchor(0, {0, 0});
  p.set_anchor(1, {4, 0});
  p.set_anchor(2, {4, 4});  // 4x4 at (4,4) fits an 8x8 canvas exactly
  EXPECT_TRUE(p.within_canvas());
  p.set_anchor(2, {5, 4});
  EXPECT_FALSE(p.within_canvas());
  EXPECT_FALSE(p.feasible());
}

TEST(PlacementTest, RotationChangesFootprint) {
  Placement p(small_schedule(), 16, 16);
  p.set_rotated(1, true);
  const Rect fp = p.module(1).footprint();
  EXPECT_EQ(fp.width, 6);
  EXPECT_EQ(fp.height, 3);
}

TEST(PlacementTest, SliceMembers) {
  const Placement p(small_schedule(), 16, 16);
  // Slices: [0,5): {A,B}, [5,10): {A}, [10,20): {C}.
  const auto& slices = p.slice_members();
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(slices[1], std::vector<int>{0});
  EXPECT_EQ(slices[2], std::vector<int>{2});
}

TEST(PlacementTest, SliceOccupancyValuesAreModuleIndices) {
  Placement p(small_schedule(), 16, 16);
  p.set_anchor(0, {0, 0});
  p.set_anchor(1, {4, 0});
  const auto grid = p.slice_occupancy(0, Rect{0, 0, 8, 8});
  EXPECT_EQ(grid.at(0, 0), 1);  // module 0 + 1
  EXPECT_EQ(grid.at(4, 0), 2);  // module 1 + 1
  EXPECT_EQ(grid.at(7, 7), 0);
}

TEST(PlacementTest, OccupancyDuringInterval) {
  Placement p(small_schedule(), 16, 16);
  p.set_anchor(0, {0, 0});
  p.set_anchor(1, {4, 0});
  p.set_anchor(2, {0, 0});
  const Rect region{0, 0, 8, 8};
  // During [0,5) only A and B are active.
  const auto early = p.occupancy_during(0.0, 5.0, region);
  EXPECT_EQ(early.at(0, 0), 1);
  EXPECT_EQ(early.at(4, 0), 2);
  // During [12,13) only C.
  const auto late = p.occupancy_during(12.0, 13.0, region);
  EXPECT_EQ(late.at(0, 0), 3);
  EXPECT_EQ(late.at(4, 0), 0);
}

TEST(PlacementTest, RenderMentionsEverySliceAndModule) {
  Placement p(small_schedule(), 16, 16);
  p.set_anchor(0, {0, 0});
  p.set_anchor(1, {4, 0});
  p.set_anchor(2, {0, 0});
  const std::string out = p.render();
  EXPECT_NE(out.find("A@"), std::string::npos);
  EXPECT_NE(out.find("B@"), std::string::npos);
  EXPECT_NE(out.find("C@"), std::string::npos);
  EXPECT_NE(out.find("t = [0s, 5s)"), std::string::npos);
}

TEST(PlacementTest, PcrPlacementHasExpectedModuleCount) {
  const auto assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const Placement p(schedule, 24, 24);
  EXPECT_EQ(p.module_count(), schedule.module_count());
  EXPECT_GE(p.module_count(), 7);  // 7 mixers + inserted storage
}

}  // namespace
}  // namespace dmfb
