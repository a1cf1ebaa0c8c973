// Tests for defect-aware placement: placing around a manufacture-time
// defect map (cost penalty + greedy/annealer integration).
#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/scheduler.h"
#include "core/cost.h"
#include "core/greedy_placer.h"
#include "core/placer.h"
#include "core/sa_placer.h"
#include "sim/fault.h"
#include "util/rng.h"

namespace dmfb {
namespace {

Schedule pcr_schedule() {
  const auto assay = pcr_mixing_assay();
  return list_schedule(assay.graph, assay.binding, assay.scheduler_options);
}

bool placement_avoids(const Placement& placement,
                      const std::vector<Point>& defects) {
  for (const auto& m : placement.modules()) {
    for (const Point& d : defects) {
      if (m.footprint().contains(d)) return false;
    }
  }
  return true;
}

TEST(DefectAwareTest, CostCountsDefectUsage) {
  Schedule s;
  const ModuleSpec spec{"m", ModuleKind::kMixer, 2, 2, 10.0};  // 4x4
  s.add(ScheduledModule{0, "A", spec, 0.0, 10.0, -1, -1});
  Placement p(s, 12, 12);
  p.set_anchor(0, {0, 0});

  CostEvaluator evaluator(CostWeights{});
  evaluator.set_defects({Point{1, 1}, Point{10, 10}});
  EXPECT_EQ(evaluator.defect_usage(p), 1);  // only (1,1) is under A
  const CostBreakdown cost = evaluator.evaluate(p);
  EXPECT_EQ(cost.defect_cells, 1);
  EXPECT_DOUBLE_EQ(cost.value, 16.0 + 50.0);  // area + defect penalty

  p.set_anchor(0, {4, 4});  // away from both defects
  EXPECT_EQ(evaluator.defect_usage(p), 0);
}

TEST(DefectAwareTest, GreedySkipsDefectiveCells) {
  const Schedule schedule = pcr_schedule();
  const std::vector<Point> defects{{0, 0}, {5, 5}, {10, 2}};
  const Placement p = place_greedy(schedule, 24, 24, defects);
  EXPECT_TRUE(p.feasible());
  EXPECT_TRUE(placement_avoids(p, defects));
}

TEST(DefectAwareTest, GreedyThrowsWhenDefectsBlockEverything) {
  Schedule s;
  const ModuleSpec spec{"m", ModuleKind::kMixer, 2, 2, 10.0};  // 4x4
  s.add(ScheduledModule{0, "A", spec, 0.0, 10.0, -1, -1});
  // A defect in every 4x4 window of a 5x5 canvas: (1,1) and... one defect
  // at the center blocks all four anchor positions of a 5x5 canvas.
  EXPECT_THROW(place_greedy(s, 5, 5, {Point{2, 2}}), std::runtime_error);
}

TEST(DefectAwareTest, AnnealerPlacesAroundDefects) {
  const Schedule schedule = pcr_schedule();
  PlacerContext context;
  context.annealing.initial_temperature = 1000.0;
  context.annealing.cooling_rate = 0.8;
  context.annealing.iterations_per_module = 80;
  context.defects = {Point{3, 3}, Point{8, 8}, Point{15, 4}};
  const auto outcome = make_placer("sa")->place(schedule, context);
  EXPECT_TRUE(outcome.placement.feasible());
  EXPECT_TRUE(placement_avoids(outcome.placement, context.defects));
  EXPECT_EQ(outcome.cost.defect_cells, 0);
}

TEST(DefectAwareTest, RandomDefectMapsStillPlace) {
  const Schedule schedule = pcr_schedule();
  Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Point> defects;
    for (int i = 0; i < 4; ++i) {
      defects.push_back(sample_uniform_fault(Rect{0, 0, 24, 24}, rng));
    }
    PlacerContext context;
    context.annealing.initial_temperature = 1000.0;
    context.annealing.cooling_rate = 0.8;
    context.annealing.iterations_per_module = 60;
    context.defects = defects;
    context.seed = rng.next();
    const auto outcome = make_placer("sa")->place(schedule, context);
    EXPECT_TRUE(placement_avoids(outcome.placement, defects))
        << "trial " << trial;
  }
}

TEST(DefectAwareTest, DefectFreeMapMatchesPlainPlacement) {
  const Schedule schedule = pcr_schedule();
  PlacerContext context;
  context.annealing.initial_temperature = 1000.0;
  context.annealing.cooling_rate = 0.8;
  context.annealing.iterations_per_module = 60;
  const auto plain = make_placer("sa")->place(schedule, context);
  context.defects = {};  // explicit empty map
  const auto with_empty_map = make_placer("sa")->place(schedule, context);
  EXPECT_EQ(plain.cost.area_cells, with_empty_map.cost.area_cells);
}

}  // namespace
}  // namespace dmfb
