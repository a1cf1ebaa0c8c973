// Tests for the simulated-annealing placer (core/sa_placer.h). The SA
// schedules here are shortened for test speed; the bench binaries use the
// paper's full parameters.
#include "core/sa_placer.h"

#include <gtest/gtest.h>

#include <limits>

#include "assay/assay_library.h"
#include "assay/scheduler.h"
#include "core/greedy_placer.h"
#include "core/placer.h"
#include "oracles/copy_annealer.h"

namespace dmfb {
namespace {

Schedule pcr_schedule() {
  const auto assay = pcr_mixing_assay();
  return list_schedule(assay.graph, assay.binding, assay.scheduler_options);
}

PlacerContext fast_context() {
  PlacerContext context;
  context.annealing.initial_temperature = 1000.0;
  context.annealing.cooling_rate = 0.8;
  context.annealing.iterations_per_module = 60;
  context.annealing.min_temperature = 0.1;
  return context;
}

TEST(SaPlacerTest, ResultIsFeasible) {
  const auto outcome =
      make_placer("sa")->place(pcr_schedule(), fast_context());
  EXPECT_TRUE(outcome.placement.feasible());
  EXPECT_EQ(outcome.cost.overlap_cells, 0);
}

TEST(SaPlacerTest, ImprovesOnGreedyInitialArea) {
  const Schedule schedule = pcr_schedule();
  const Placement greedy = place_greedy(schedule, 24, 24);
  const auto outcome = make_placer("sa")->place(schedule, fast_context());
  EXPECT_LE(outcome.cost.area_cells, greedy.bounding_box_cells());
}

TEST(SaPlacerTest, AreaNeverBelowPeakConcurrentCells) {
  const Schedule schedule = pcr_schedule();
  const auto outcome = make_placer("sa")->place(schedule, fast_context());
  EXPECT_GE(outcome.cost.area_cells, schedule.peak_concurrent_cells());
}

TEST(SaPlacerTest, DeterministicForSeed) {
  const Schedule schedule = pcr_schedule();
  PlacerContext context = fast_context();
  context.seed = 42;
  const auto a = make_placer("sa")->place(schedule, context);
  const auto b = make_placer("sa")->place(schedule, context);
  EXPECT_EQ(a.cost.area_cells, b.cost.area_cells);
  for (int i = 0; i < a.placement.module_count(); ++i) {
    EXPECT_EQ(a.placement.module(i).anchor, b.placement.module(i).anchor);
  }
}

TEST(SaPlacerTest, DifferentSeedsExploreDifferently) {
  const Schedule schedule = pcr_schedule();
  PlacerContext context = fast_context();
  context.seed = 1;
  const auto a = make_placer("sa")->place(schedule, context);
  context.seed = 2;
  const auto b = make_placer("sa")->place(schedule, context);
  bool any_difference = a.cost.area_cells != b.cost.area_cells;
  for (int i = 0; !any_difference && i < a.placement.module_count(); ++i) {
    any_difference =
        !(a.placement.module(i).anchor == b.placement.module(i).anchor);
  }
  EXPECT_TRUE(any_difference);
}

TEST(SaPlacerTest, StatsReflectRun) {
  const auto outcome =
      make_placer("sa")->place(pcr_schedule(), fast_context());
  EXPECT_GT(outcome.stats.proposals, 0);
  EXPECT_GT(outcome.stats.accepted, 0);
  EXPECT_GT(outcome.stats.temperature_steps, 0);
  EXPECT_GE(outcome.wall_seconds, 0.0);
  EXPECT_LT(outcome.stats.best_cost,
            std::numeric_limits<double>::infinity());
}

TEST(SaPlacerTest, AnnealFromRefinesGivenPlacement) {
  const Schedule schedule = pcr_schedule();
  const Placement start = place_greedy(schedule, 24, 24);
  PlacerContext context = fast_context();
  const auto outcome = anneal_from(start, context);
  EXPECT_TRUE(outcome.placement.feasible());
  EXPECT_LE(outcome.cost.area_cells, start.bounding_box_cells());
}

TEST(SaPlacerTest, TinyCanvasStillFeasible) {
  // Canvas barely larger than the peak footprint: annealing must keep a
  // feasible answer (the greedy initial placement).
  const Schedule schedule = pcr_schedule();
  PlacerContext context = fast_context();
  context.canvas_width = 12;
  context.canvas_height = 12;
  const auto outcome = make_placer("sa")->place(schedule, context);
  EXPECT_TRUE(outcome.placement.feasible());
}

TEST(SaPlacerTest, SingleModuleCollapsesToFootprint) {
  Schedule s;
  const ModuleSpec spec{"m", ModuleKind::kMixer, 2, 2, 5.0};  // 4x4
  s.add(ScheduledModule{0, "A", spec, 0.0, 5.0, -1, -1});
  const auto outcome = make_placer("sa")->place(s, fast_context());
  EXPECT_EQ(outcome.cost.area_cells, 16);
}

TEST(SaPlacerTest, PaperDefaultsPreserved) {
  const PlacerContext context;
  EXPECT_DOUBLE_EQ(context.annealing.initial_temperature, 10000.0);
  EXPECT_DOUBLE_EQ(context.annealing.cooling_rate, 0.9);
  EXPECT_EQ(context.annealing.iterations_per_module, 400);
  EXPECT_DOUBLE_EQ(context.weights.alpha, 1.0);
  EXPECT_DOUBLE_EQ(context.weights.beta, 0.0);
}

TEST(SaPlacerTest, EnginesRecordMoveKindTallies) {
  const Schedule schedule = pcr_schedule();
  const PlacerContext context = fast_context();
  const auto delta = make_placer("sa")->place(schedule, context);
  const auto copy = oracle::place_copy(schedule, context);
  long long delta_proposals = 0;
  long long delta_accepted = 0;
  long long copy_proposals = 0;
  long long copy_accepted = 0;
  for (int k = 0; k < AnnealingStats::kMoveKindSlots; ++k) {
    delta_proposals += delta.stats.proposals_by_kind[k];
    delta_accepted += delta.stats.accepted_by_kind[k];
    copy_proposals += copy.stats.proposals_by_kind[k];
    copy_accepted += copy.stats.accepted_by_kind[k];
    // Identical trajectories draw identical move kinds.
    EXPECT_EQ(delta.stats.proposals_by_kind[k],
              copy.stats.proposals_by_kind[k])
        << "kind " << k;
  }
  EXPECT_EQ(delta_proposals, delta.stats.proposals);
  EXPECT_EQ(delta_accepted, delta.stats.accepted);
  EXPECT_EQ(copy_proposals, copy.stats.proposals);
  // The copying oracle's accept decision is invisible to the placer; it
  // records proposal kinds only.
  EXPECT_EQ(copy_accepted, 0);
}

TEST(SaPlacerTest, UnterminatingSchedulesAreRejected) {
  // Each of these would cool forever (or never reach the stop
  // temperature): anneal_from refuses them up front.
  const Placement start = place_greedy(pcr_schedule(), 24, 24);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto with = [](auto mutate) {
    PlacerContext context = fast_context();
    mutate(context.annealing);
    return context;
  };
  for (const PlacerContext& context : {
           with([](AnnealingSchedule& s) { s.cooling_rate = 1.0; }),
           with([](AnnealingSchedule& s) { s.cooling_rate = 1.5; }),
           with([](AnnealingSchedule& s) { s.cooling_rate = 0.0; }),
           with([&](AnnealingSchedule& s) { s.cooling_rate = nan; }),
           with([](AnnealingSchedule& s) { s.min_temperature = -1.0; }),
           with([](AnnealingSchedule& s) { s.min_temperature = 0.0; }),
           with([&](AnnealingSchedule& s) { s.min_temperature = inf; }),
           with([&](AnnealingSchedule& s) { s.min_temperature = nan; }),
           with([&](AnnealingSchedule& s) { s.initial_temperature = inf; }),
           with([&](AnnealingSchedule& s) { s.initial_temperature = nan; }),
       }) {
    EXPECT_THROW(anneal_from(start, context), std::invalid_argument);
  }
  // The boundary cases that do terminate still run.
  PlacerContext cold = fast_context();
  cold.annealing.initial_temperature = 0.0;  // no temperature step at all
  EXPECT_TRUE(anneal_from(start, cold).placement.feasible());
}

}  // namespace
}  // namespace dmfb
