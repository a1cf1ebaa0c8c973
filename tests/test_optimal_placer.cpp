// Tests for the exact branch-and-bound placer (core/optimal_placer.h):
// ground truth on hand-analyzable instances plus the SA-optimality
// pinning property on random small instances.
#include "core/optimal_placer.h"

#include <gtest/gtest.h>

#include "core/greedy_placer.h"
#include "core/placer.h"
#include "core/sa_placer.h"
#include "util/rng.h"

namespace dmfb {
namespace {

const ModuleSpec kBig{"big", ModuleKind::kMixer, 2, 2, 10.0};    // 4x4
const ModuleSpec kSlim{"slim", ModuleKind::kMixer, 1, 4, 5.0};   // 3x6
const ModuleSpec kTiny{"tiny", ModuleKind::kStorage, 1, 1, 5.0}; // 3x3

TEST(OptimalPlacerTest, SingleModule) {
  Schedule s;
  s.add(ScheduledModule{0, "A", kBig, 0.0, 10.0, -1, -1});
  const auto result = place_optimal(s);
  EXPECT_EQ(result.area_cells, 16);
  EXPECT_TRUE(result.placement.feasible());
}

TEST(OptimalPlacerTest, TimeSharedModulesNeedOneFootprint) {
  Schedule s;
  s.add(ScheduledModule{0, "A", kBig, 0.0, 10.0, -1, -1});
  s.add(ScheduledModule{1, "B", kBig, 10.0, 20.0, -1, -1});
  const auto result = place_optimal(s);
  EXPECT_EQ(result.area_cells, 16);  // perfect reuse
}

TEST(OptimalPlacerTest, ConcurrentSquaresPackSideBySide) {
  Schedule s;
  s.add(ScheduledModule{0, "A", kBig, 0.0, 10.0, -1, -1});
  s.add(ScheduledModule{1, "B", kBig, 0.0, 10.0, -1, -1});
  const auto result = place_optimal(s);
  EXPECT_EQ(result.area_cells, 32);  // 8x4
  EXPECT_TRUE(result.placement.feasible());
}

TEST(OptimalPlacerTest, RotationFindsTighterBox) {
  // A 4x4 and a 3x6: side-by-side unrotated needs 7x6 = 42; rotating the
  // slim module (6x3) allows 4x4 over 6x3 in a 6x7 = 42... the exact
  // optimum is what the search says — verify it is no worse than both
  // hand layouts and that disabling rotation cannot beat it.
  Schedule s;
  s.add(ScheduledModule{0, "A", kBig, 0.0, 10.0, -1, -1});
  s.add(ScheduledModule{1, "B", kSlim, 0.0, 10.0, -1, -1});
  const auto with_rotation = place_optimal(s);
  OptimalPlacerOptions no_rotation;
  no_rotation.allow_rotation = false;
  const auto without_rotation = place_optimal(s, no_rotation);
  EXPECT_LE(with_rotation.area_cells, without_rotation.area_cells);
  EXPECT_LE(with_rotation.area_cells, 42);
  EXPECT_TRUE(with_rotation.placement.feasible());
}

TEST(OptimalPlacerTest, OptimumNeverBelowPeakCells) {
  Schedule s;
  s.add(ScheduledModule{0, "A", kBig, 0.0, 10.0, -1, -1});
  s.add(ScheduledModule{1, "B", kSlim, 0.0, 10.0, -1, -1});
  s.add(ScheduledModule{2, "C", kTiny, 5.0, 15.0, -1, -1});
  const auto result = place_optimal(s);
  EXPECT_GE(result.area_cells, s.peak_concurrent_cells());
  EXPECT_TRUE(result.placement.feasible());
}

TEST(OptimalPlacerTest, RejectsLargeInstances) {
  Schedule s;
  for (int i = 0; i < 9; ++i) {
    s.add(ScheduledModule{i, "M" + std::to_string(i), kTiny, 0.0, 5.0, -1,
                          -1});
  }
  EXPECT_THROW(place_optimal(s), std::invalid_argument);
}

TEST(OptimalPlacerTest, RejectsEmptySchedule) {
  EXPECT_THROW(place_optimal(Schedule{}), std::invalid_argument);
}

TEST(OptimalPlacerTest, NeverWorseThanGreedy) {
  Rng rng(41);
  const ModuleSpec shapes[] = {kBig, kSlim, kTiny};
  for (int trial = 0; trial < 10; ++trial) {
    Schedule s;
    const int modules = 2 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < modules; ++i) {
      const double start = static_cast<double>(rng.next_below(3)) * 5.0;
      s.add(ScheduledModule{i, "M" + std::to_string(i),
                            shapes[rng.next_below(3)], start, start + 5.0,
                            -1, -1});
    }
    const auto optimal = place_optimal(s);
    const Placement greedy = place_greedy(s, 24, 24);
    EXPECT_LE(optimal.area_cells, greedy.bounding_box_cells())
        << "trial " << trial;
  }
}

TEST(OptimalPlacerTest, SaMatchesOptimumOnSmallInstances) {
  // The key calibration property: on instances the exact search can
  // solve, paper-parameter SA should land on (or extremely near) the
  // optimum. We accept equality here — these instances are small.
  Rng rng(43);
  const ModuleSpec shapes[] = {kBig, kSlim, kTiny};
  for (int trial = 0; trial < 5; ++trial) {
    Schedule s;
    const int modules = 2 + static_cast<int>(rng.next_below(2));
    for (int i = 0; i < modules; ++i) {
      const double start = static_cast<double>(rng.next_below(2)) * 5.0;
      s.add(ScheduledModule{i, "M" + std::to_string(i),
                            shapes[rng.next_below(3)], start, start + 5.0,
                            -1, -1});
    }
    const auto optimal = place_optimal(s);

    PlacerContext context;
    context.annealing.initial_temperature = 1000.0;
    context.annealing.cooling_rate = 0.85;
    context.annealing.iterations_per_module = 200;
    context.seed = rng.next();
    const auto sa = make_placer("sa")->place(s, context);
    EXPECT_EQ(sa.cost.area_cells, optimal.area_cells) << "trial " << trial;
  }
}

}  // namespace
}  // namespace dmfb
