// Tests for the concurrent changeover route planner (sim/route_planner.h):
// all plans must satisfy the fluidic constraints they claim to.
#include "sim/route_planner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "assay/assay_library.h"
#include "assay/pipeline.h"
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

/// Routes every transfer of every changeover of the PCR assay placed on a
/// size x size chip, all through `shared` (or a fresh scratch per search
/// when null): per transfer in default order a priced search against the
/// routes so far (fractional history) and a hard one, then a priced
/// reroute pass with each route's old path still in the list.
std::vector<std::optional<routing::PricedRoute>> route_pcr(
    int size, int step_horizon, routing::SearchScratch* shared) {
  const PcrSetup setup = pcr_setup(size);
  RoutePlannerOptions options;
  options.step_horizon = step_horizon;
  const int horizon = routing::resolve_horizon(options, size, size);
  std::vector<double> history(static_cast<std::size_t>(horizon + 1) * size *
                              size);
  for (std::size_t k = 0; k < history.size(); ++k) {
    history[k] = 0.3 * static_cast<double>(k % 7);
  }

  std::vector<std::optional<routing::PricedRoute>> results;
  for (const auto& problem : routing::extract_problems(
           setup.graph, setup.schedule, setup.placement, size, size)) {
    std::vector<TimedRoute> routes(problem.requests.size());
    const auto search = [&](const TransferRequest& request, std::size_t self,
                            double present, const std::vector<double>& grid) {
      routing::SearchScratch fresh;
      results.push_back(routing::route_transfer(
          request, problem.blocked, routes, self, horizon,
          options.separation_cells, present, grid,
          options.history_congestion_weight, shared ? *shared : fresh));
      return results.back();
    };
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::size_t r : routing::default_order(problem.requests)) {
        TransferRequest request = problem.requests[r];
        if (request.from == routing::kDispensePending) {
          request.from =
              routing::perimeter_entries(problem.blocked, request.to).front();
        }
        if (pass == 0) search(request, r, routing::kHardConflict, {});
        const auto priced = search(request, r, 2.5, history);
        if (!priced) continue;
        routes[r].request = request;
        routes[r].positions = priced->positions;
      }
    }
  }
  return results;
}

TEST(RoutePlannerTest, ScratchReuseAcrossChipSizesMatchesFreshScratch) {
  // One scratch carried from a 24x24 problem to a 16x16 one and back
  // (its buffers grow, are read at a smaller layout, then regrow) must
  // route exactly like a fresh scratch per search, at the auto and an
  // 8-step horizon.
  const auto expect_same = [](const auto& reused, const auto& fresh,
                              const std::string& where) {
    ASSERT_EQ(reused.size(), fresh.size()) << where;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      ASSERT_EQ(reused[i].has_value(), fresh[i].has_value())
          << where << " search " << i;
      if (!fresh[i]) continue;
      EXPECT_EQ(reused[i]->positions, fresh[i]->positions)
          << where << " search " << i;
      EXPECT_EQ(reused[i]->cost, fresh[i]->cost) << where << " search " << i;
    }
  };
  const auto run = [&](routing::SearchScratch& scratch,
                       const std::vector<int>& sizes, const char* what) {
    for (const int step_horizon : {0, 8}) {
      for (const int size : sizes) {
        const std::string where = std::string(what) + " size " +
                                  std::to_string(size) + " horizon " +
                                  std::to_string(step_horizon);
        const auto fresh = route_pcr(size, step_horizon, nullptr);
        ASSERT_GT(fresh.size(), 10u) << where;
        expect_same(route_pcr(size, step_horizon, &scratch), fresh, where);
      }
    }
  };
  routing::SearchScratch scratch;
  run(scratch, {24, 16, 24}, "reused");
  // Once more with the generation counter about to wrap, so the
  // stamp-clearing path runs mid-sequence.
  scratch.generation = std::numeric_limits<std::uint32_t>::max() - 1;
  run(scratch, {24, 16, 24}, "wrapped");
  EXPECT_LT(scratch.generation, 1000u);  // the counter wrapped
}

/// Canonical text form of a changeover; byte-equal strings = identical.
std::string serialize(const ChangeoverPlan& changeover) {
  std::ostringstream os;
  os << "t=" << changeover.time_s << " makespan=" << changeover.makespan_steps
     << " rounds=" << changeover.negotiation_rounds << '\n';
  for (const auto& route : changeover.routes) {
    os << "  " << route.request.label << " (" << route.request.from.x << ','
       << route.request.from.y << ")->(" << route.request.to.x << ','
       << route.request.to.y << "):";
    for (const Point& p : route.positions) os << ' ' << p.x << ',' << p.y;
    os << '\n';
  }
  return os.str();
}

TEST(RoutePlannerTest, NegotiatedChangeoversMatchAFreshScratch) {
  // "negotiated" carries one scratch, and with it the congestion history
  // grid, across the changeovers of a plan. Each changeover must still
  // come out exactly as it does solved alone on a fresh scratch. Random
  // assays on a 20x20 chip make several changeovers of one plan rip up
  // and reroute.
  const ModuleLibrary library = ModuleLibrary::standard();
  const RoutePlannerOptions options;
  const int horizon = routing::resolve_horizon(options, 20, 20);
  int negotiating_plans = 0;
  for (int i = 0; i < 20; ++i) {
    RandomAssayParams params;
    params.mix_operations = 6 + i % 10;
    const AssayCase assay = random_assay(
        params, library, static_cast<std::uint64_t>(7000 + i));
    PipelineOptions pipeline;
    pipeline.placer = "greedy";
    pipeline.placer_context.canvas_width = 20;
    pipeline.placer_context.canvas_height = 20;
    pipeline.plan_droplet_routes = false;
    const PipelineResult placed = SynthesisPipeline(pipeline).run(assay);
    const Placement& placement = placed.placement.placement;
    const RoutePlan plan = make_router("negotiated")
                               ->plan(assay.graph, placed.schedule,
                                      placement, 20, 20, options);
    const auto problems = routing::extract_problems(
        assay.graph, placed.schedule, placement, 20, 20);
    ASSERT_EQ(plan.changeovers.size() + (plan.success ? 0 : 1),
              problems.size())
        << "assay " << i;

    int negotiating = 0;
    for (std::size_t c = 0; c < problems.size(); ++c) {
      routing::SearchScratch fresh;
      std::string failure;
      const auto alone = routing::solve_negotiated(problems[c], options,
                                                   horizon, fresh, &failure);
      if (c == plan.changeovers.size()) {  // the plan's failing changeover
        EXPECT_FALSE(alone.has_value()) << "assay " << i;
        EXPECT_EQ(failure, plan.failure_reason) << "assay " << i;
        continue;
      }
      ASSERT_TRUE(alone.has_value()) << "assay " << i << ": " << failure;
      EXPECT_EQ(serialize(*alone), serialize(plan.changeovers[c]))
          << "assay " << i << " changeover " << c;
      if (alone->negotiation_rounds > 0) ++negotiating;
    }
    if (negotiating > 1) ++negotiating_plans;
  }
  EXPECT_GT(negotiating_plans, 0);
}

TEST(RoutePlannerTest, WrappedGenerationForgetsEarlierStamps) {
  // Generation 1 stamps a hard search's step costs; after a wrap the
  // generation is 1 again, so a priced search from the same start would
  // read those lower costs as visited states and prune its first moves
  // unless the wrap cleared the stamps.
  const Matrix<std::uint8_t> open_grid(8, 8, 0);
  const TransferRequest across{"d", Point{0, 0}, Point{7, 7}};
  const TransferRequest in_place{"e", Point{7, 0}, Point{7, 0}};
  const std::vector<double> history(static_cast<std::size_t>(33) * 64, 0.5);
  const auto priced = [&](routing::SearchScratch& scratch) {
    return routing::route_transfer(across, open_grid, {}, 0, 32, 2, 1.0,
                                   history, 1.0, scratch);
  };
  routing::SearchScratch fresh;
  const auto expected = priced(fresh);
  ASSERT_TRUE(expected.has_value());

  routing::SearchScratch scratch;
  ASSERT_TRUE(routing::route_transfer(across, open_grid, {}, 0, 32, 2,
                                      routing::kHardConflict, {}, 0.0,
                                      scratch));
  EXPECT_EQ(scratch.generation, 1u);
  scratch.generation = std::numeric_limits<std::uint32_t>::max() - 1;
  // Takes the last generation and stamps only its own start state.
  ASSERT_TRUE(routing::route_transfer(in_place, open_grid, {}, 0, 32, 2,
                                      routing::kHardConflict, {}, 0.0,
                                      scratch));
  const auto wrapped = priced(scratch);
  EXPECT_EQ(scratch.generation, 1u);
  ASSERT_TRUE(wrapped.has_value());
  EXPECT_EQ(wrapped->positions, expected->positions);
  EXPECT_EQ(wrapped->cost, expected->cost);
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
