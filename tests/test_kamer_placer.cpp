// Tests for the KAMER-style online placer (core/kamer_placer.h).
#include "core/kamer_placer.h"

#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/scheduler.h"

namespace dmfb {
namespace {

Schedule pcr_schedule() {
  const auto assay = pcr_mixing_assay();
  return list_schedule(assay.graph, assay.binding, assay.scheduler_options);
}

TEST(KamerPlacerTest, PlacesPcrOnGenerousArray) {
  const auto result = place_kamer(pcr_schedule(), 16, 16);
  ASSERT_TRUE(result.success) << result.failure_reason;
  EXPECT_TRUE(result.placement.feasible());
  EXPECT_EQ(result.modules_placed, result.placement.module_count());
}

TEST(KamerPlacerTest, FailsOnTinyArrayWithReason) {
  const auto result = place_kamer(pcr_schedule(), 6, 6);
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.failure_reason.empty());
}

TEST(KamerPlacerTest, EveryPolicyProducesFeasiblePlacements) {
  for (const auto policy :
       {RelocationPolicy::kFirstFit, RelocationPolicy::kBestFit,
        RelocationPolicy::kNearest}) {
    const auto result = place_kamer(pcr_schedule(), 20, 20, policy);
    ASSERT_TRUE(result.success);
    EXPECT_TRUE(result.placement.feasible());
  }
}

TEST(KamerPlacerTest, Deterministic) {
  const auto a = place_kamer(pcr_schedule(), 16, 16);
  const auto b = place_kamer(pcr_schedule(), 16, 16);
  ASSERT_TRUE(a.success);
  ASSERT_TRUE(b.success);
  for (int i = 0; i < a.placement.module_count(); ++i) {
    EXPECT_EQ(a.placement.module(i).anchor, b.placement.module(i).anchor);
    EXPECT_EQ(a.placement.module(i).rotated, b.placement.module(i).rotated);
  }
}

TEST(KamerPlacerTest, RotationExpandsFeasibility) {
  // A 3x6 module on a 7x3... use a module that only fits rotated.
  Schedule s;
  const ModuleSpec slim{"slim", ModuleKind::kMixer, 1, 4, 5.0};  // 3x6
  s.add(ScheduledModule{0, "A", slim, 0.0, 5.0, -1, -1});
  const auto with_rotation = place_kamer(s, 7, 3, RelocationPolicy::kBestFit,
                                         /*allow_rotation=*/true);
  EXPECT_TRUE(with_rotation.success);
  EXPECT_TRUE(with_rotation.placement.module(0).rotated);
  const auto without_rotation = place_kamer(
      s, 7, 3, RelocationPolicy::kBestFit, /*allow_rotation=*/false);
  EXPECT_FALSE(without_rotation.success);
}

TEST(KamerPlacerTest, ReusesCellsAcrossTime) {
  // Two identical modules in disjoint time intervals fit an array exactly
  // as large as one footprint.
  Schedule s;
  const ModuleSpec spec{"m", ModuleKind::kMixer, 2, 2, 5.0};  // 4x4
  s.add(ScheduledModule{0, "A", spec, 0.0, 5.0, -1, -1});
  s.add(ScheduledModule{1, "B", spec, 5.0, 10.0, -1, -1});
  const auto result = place_kamer(s, 4, 4);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.placement.bounding_box_cells(), 16);
}

TEST(KamerPlacerTest, SmallestArraySearch) {
  const auto result = smallest_kamer_array(pcr_schedule(), 24);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->success);
  // The smallest side must at least hold the peak concurrent cells.
  const auto schedule = pcr_schedule();
  const int side = result->placement.canvas_width();
  EXPECT_GE(static_cast<long long>(side) * side,
            schedule.peak_concurrent_cells());
  // One side smaller must fail.
  EXPECT_FALSE(place_kamer(schedule, side - 1, side - 1).success);
}

TEST(KamerPlacerTest, SmallestArrayRespectsMaxSide) {
  EXPECT_FALSE(smallest_kamer_array(pcr_schedule(), 7).has_value());
}

}  // namespace
}  // namespace dmfb
