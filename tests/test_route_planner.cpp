// Tests for the concurrent changeover route planner (sim/route_planner.h):
// all plans must satisfy the fluidic constraints they claim to.
#include "sim/route_planner.h"

#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/random_assay.h"
#include "assay/scheduler.h"
#include "core/greedy_placer.h"
#include "core/placer.h"
#include "core/sa_placer.h"
#include "sim/router_backend.h"
#include "util/rng.h"

namespace dmfb {
namespace {

struct PcrSetup {
  SequencingGraph graph;
  Schedule schedule;
  Placement placement;
};

PcrSetup pcr_setup(int canvas = 16) {
  const auto assay = pcr_mixing_assay();
  Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  Placement placement = place_greedy(schedule, canvas, canvas);
  return PcrSetup{assay.graph, std::move(schedule),
                  std::move(placement)};
}

/// The classic prioritized planner, through its registry backend.
RoutePlan prioritized_plan(const SequencingGraph& graph,
                           const Schedule& schedule,
                           const Placement& placement, int chip_width,
                           int chip_height) {
  return make_router("prioritized")
      ->plan(graph, schedule, placement, chip_width, chip_height);
}

/// Blocked grid mirroring the planner's changeover rule (strict interval).
Matrix<std::uint8_t> blocked_at(const Placement& placement, double t, int w,
                                int h) {
  Matrix<std::uint8_t> blocked(w, h, 0);
  for (int i = 0; i < placement.module_count(); ++i) {
    const auto& m = placement.module(i);
    if (m.start_s + 1e-9 < t && t + 1e-9 < m.end_s) {
      blocked.fill_rect(m.footprint().inflated(-1), 1);
    }
  }
  return blocked;
}

TEST(RoutePlannerTest, PcrPlanSucceedsAndValidates) {
  const auto setup = pcr_setup();
  const RoutePlan plan =
      prioritized_plan(setup.graph, setup.schedule, setup.placement, 16, 16);
  ASSERT_TRUE(plan.success) << plan.failure_reason;
  EXPECT_FALSE(plan.changeovers.empty());
  for (const auto& changeover : plan.changeovers) {
    const auto blocked =
        blocked_at(setup.placement, changeover.time_s, 16, 16);
    const auto violations = validate_changeover(changeover, blocked);
    EXPECT_TRUE(violations.empty())
        << "t=" << changeover.time_s << ": " << violations.front();
  }
}

TEST(RoutePlannerTest, RoutesStartAndEndWhereRequested) {
  const auto setup = pcr_setup();
  const RoutePlan plan =
      prioritized_plan(setup.graph, setup.schedule, setup.placement, 16, 16);
  ASSERT_TRUE(plan.success);
  for (const auto& changeover : plan.changeovers) {
    for (const auto& route : changeover.routes) {
      ASSERT_FALSE(route.positions.empty());
      EXPECT_EQ(route.positions.front(), route.request.from);
      EXPECT_EQ(route.positions.back(), route.request.to);
      EXPECT_LE(route.arrival_step(), changeover.makespan_steps);
    }
  }
}

TEST(RoutePlannerTest, TotalStepsAndTransportTime) {
  const auto setup = pcr_setup();
  const RoutePlan plan =
      prioritized_plan(setup.graph, setup.schedule, setup.placement, 16, 16);
  ASSERT_TRUE(plan.success);
  EXPECT_GT(plan.total_steps, 0);
  EXPECT_GT(plan.total_transport_seconds(13.0), 0.0);
  EXPECT_DOUBLE_EQ(plan.total_transport_seconds(0.0), 0.0);
  // Accounting: total_steps sums arrival steps (waits included),
  // total_moved_cells sums cells traversed (waits excluded).
  EXPECT_GT(plan.total_moved_cells, 0);
  EXPECT_GE(plan.total_steps, plan.total_moved_cells);
  long long steps = 0;
  long long cells = 0;
  for (const auto& changeover : plan.changeovers) {
    for (const auto& route : changeover.routes) {
      steps += route.arrival_step();
      cells += route.moved_cells();
    }
  }
  EXPECT_EQ(plan.total_steps, steps);
  EXPECT_EQ(plan.total_moved_cells, cells);
}

TEST(RoutePlannerTest, StepAndCellAccountingPerRoute) {
  TimedRoute route;
  EXPECT_EQ(route.arrival_step(), 0);  // empty route: no steps, no cells
  EXPECT_EQ(route.moved_cells(), 0);
  route.positions = {{0, 0}, {0, 0}, {1, 0}, {1, 0}, {1, 1}};
  EXPECT_EQ(route.arrival_step(), 4);  // steps count the two waits...
  EXPECT_EQ(route.moved_cells(), 2);   // ...cells traversed do not
}

TEST(RoutePlannerTest, MergingDropletsMayShareTarget) {
  // Two dispenses into one mixer: both droplets route to the same cell;
  // this must not be reported as a fluidic violation.
  SequencingGraph g("merge");
  const auto d1 = g.add_operation(OperationType::kDispense, "d1", "a");
  const auto d2 = g.add_operation(OperationType::kDispense, "d2", "b");
  const auto mix = g.add_operation(OperationType::kMix, "mix");
  g.add_dependency(d1, mix);
  g.add_dependency(d2, mix);
  Binding binding;
  binding.emplace(mix, ModuleSpec{"mixer", ModuleKind::kMixer, 2, 2, 5.0});
  const Schedule schedule = list_schedule(g, binding, {});
  Placement placement(schedule, 10, 10);
  placement.set_anchor(0, {3, 3});
  const RoutePlan plan = prioritized_plan(g, schedule, placement, 10, 10);
  ASSERT_TRUE(plan.success) << plan.failure_reason;
  ASSERT_EQ(plan.changeovers.size(), 1u);
  EXPECT_EQ(plan.changeovers.front().routes.size(), 2u);
}

TEST(RoutePlannerTest, SeparationEnforcedForUnrelatedDroplets) {
  // Two independent mixers fed concurrently: validate that the plan keeps
  // the unrelated droplets >= 2 apart at every step.
  SequencingGraph g("pair");
  Binding binding;
  const ModuleSpec mixer{"mixer", ModuleKind::kMixer, 2, 2, 5.0};
  for (int k = 0; k < 2; ++k) {
    const auto d1 = g.add_operation(OperationType::kDispense,
                                    "d" + std::to_string(2 * k), "a");
    const auto d2 = g.add_operation(OperationType::kDispense,
                                    "d" + std::to_string(2 * k + 1), "b");
    const auto mix =
        g.add_operation(OperationType::kMix, "mix" + std::to_string(k));
    g.add_dependency(d1, mix);
    g.add_dependency(d2, mix);
    binding.emplace(mix, mixer);
  }
  const Schedule schedule = list_schedule(g, binding, {});
  Placement placement(schedule, 14, 14);
  placement.set_anchor(0, {1, 1});
  placement.set_anchor(1, {9, 9});
  const RoutePlan plan = prioritized_plan(g, schedule, placement, 14, 14);
  ASSERT_TRUE(plan.success) << plan.failure_reason;
  for (const auto& changeover : plan.changeovers) {
    const auto blocked = blocked_at(placement, changeover.time_s, 14, 14);
    EXPECT_TRUE(validate_changeover(changeover, blocked).empty());
  }
}

TEST(RoutePlannerTest, ChipTooSmallThrows) {
  const auto setup = pcr_setup();
  EXPECT_THROW(
      prioritized_plan(setup.graph, setup.schedule, setup.placement, 4, 4),
      std::invalid_argument);
}

TEST(RoutePlannerTest, AnnealedPlacementsAreRoutable) {
  // Routing over the compact SA placement: tighter but should still plan.
  const auto assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  PlacerContext context;
  context.annealing.initial_temperature = 1000.0;
  context.annealing.cooling_rate = 0.8;
  context.annealing.iterations_per_module = 80;
  const auto sa = make_placer("sa")->place(schedule, context);
  const RoutePlan plan =
      prioritized_plan(assay.graph, schedule, sa.placement,
                       context.canvas_width, context.canvas_height);
  EXPECT_TRUE(plan.success) << plan.failure_reason;
}

class RoutePlannerRandomized : public ::testing::TestWithParam<int> {};

TEST_P(RoutePlannerRandomized, PlansValidateWheneverTheySucceed) {
  const auto lib = ModuleLibrary::standard();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 5);
  RandomAssayParams params;
  params.mix_operations = 4 + static_cast<int>(rng.next_below(5));
  const auto assay = random_assay(params, lib, rng);
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const Placement placement = place_greedy(schedule, 24, 24);
  const RoutePlan plan =
      prioritized_plan(assay.graph, schedule, placement, 24, 24);
  if (!plan.success) {
    // Prioritized planning is incomplete; failure is allowed but must be
    // explained.
    EXPECT_FALSE(plan.failure_reason.empty());
    return;
  }
  for (const auto& changeover : plan.changeovers) {
    const auto blocked = blocked_at(placement, changeover.time_s, 24, 24);
    const auto violations = validate_changeover(changeover, blocked);
    EXPECT_TRUE(violations.empty())
        << "t=" << changeover.time_s << ": " << violations.front();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutePlannerRandomized,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace dmfb
