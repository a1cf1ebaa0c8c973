// Tests for the polymorphic router interface and its string-keyed
// registry (sim/router_backend.h). The fluidic-constraint scenarios —
// merge-at-same-target exemption, the 2-cell Chebyshev dynamic rule
// against *previous* positions, and a forced yield at a crossing — run
// identically against every registered backend (the shared conformance
// suite, like test_placer_registry). The one space-time search every
// backend uses is pinned against the prioritized-search oracle
// (tests/oracles/reference_route.h).
#include "sim/router_backend.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "assay/assay_library.h"
#include "assay/pipeline.h"
#include "assay/random_assay.h"
#include "assay/scheduler.h"
#include "oracles/reference_route.h"

namespace dmfb {
namespace {

struct RoutingCase {
  SequencingGraph graph;
  Schedule schedule;
  Placement placement;
  int chip = 16;
};

/// Plan + validate every changeover against the fluidic constraints,
/// using the authoritative blocked grids from routing::extract_problems
/// (so the suite cannot drift from the planners' changeover rule).
void expect_valid_plan(const RoutePlan& plan, const RoutingCase& c,
                       const std::string& router) {
  ASSERT_TRUE(plan.success) << router << ": " << plan.failure_reason;
  const auto problems = routing::extract_problems(c.graph, c.schedule,
                                                  c.placement, c.chip, c.chip);
  ASSERT_EQ(plan.changeovers.size(), problems.size()) << router;
  for (std::size_t i = 0; i < plan.changeovers.size(); ++i) {
    const auto& changeover = plan.changeovers[i];
    ASSERT_DOUBLE_EQ(changeover.time_s, problems[i].time_s) << router;
    const auto violations =
        validate_changeover(changeover, problems[i].blocked);
    EXPECT_TRUE(violations.empty())
        << router << " t=" << changeover.time_s << ": " << violations.front();
  }
  // Accounting invariants: steps include waits, cells do not.
  long long steps = 0;
  long long cells = 0;
  for (const auto& changeover : plan.changeovers) {
    for (const auto& route : changeover.routes) {
      EXPECT_GE(route.arrival_step(), route.moved_cells()) << router;
      EXPECT_LE(route.arrival_step(), changeover.makespan_steps) << router;
      steps += route.arrival_step();
      cells += route.moved_cells();
    }
  }
  EXPECT_EQ(plan.total_steps, steps) << router;
  EXPECT_EQ(plan.total_moved_cells, cells) << router;
  EXPECT_GE(plan.total_steps, plan.total_moved_cells) << router;
}

/// The paper's PCR case, greedy-placed on a 16x16 chip.
RoutingCase pcr_case() {
  const AssayCase assay = pcr_mixing_assay();
  PipelineOptions options;
  options.placer = "greedy";
  options.placer_context.canvas_width = 16;
  options.placer_context.canvas_height = 16;
  options.plan_droplet_routes = false;
  const PipelineResult result = SynthesisPipeline(options).run(assay);
  return RoutingCase{assay.graph, result.schedule,
                     result.placement.placement, 16};
}

int module_index(const Schedule& schedule, const std::string& label) {
  for (int i = 0; i < schedule.module_count(); ++i) {
    if (schedule.module(i).label == label) return i;
  }
  ADD_FAILURE() << "no scheduled module labelled " << label;
  return -1;
}

/// Two-changeover scenario: dispenses feed mixA/mixB in changeover 1;
/// their droplets then transfer concurrently to mixC/mixD in changeover 2
/// between the given module centers (anchors chosen by the caller; note a
/// 2x2 mixer's footprint is 4x4 with its segregation ring, so its center
/// sits at anchor + 2).
RoutingCase two_transfer_case(Point a_from_anchor, Point a_to_anchor,
                              Point b_from_anchor, Point b_to_anchor,
                              int chip) {
  SequencingGraph g("two-transfer");
  Binding binding;
  const ModuleSpec mixer{"mixer", ModuleKind::kMixer, 2, 2, 5.0};
  const auto da = g.add_operation(OperationType::kDispense, "da", "a");
  const auto db = g.add_operation(OperationType::kDispense, "db", "b");
  const auto mix_a = g.add_operation(OperationType::kMix, "mixA");
  const auto mix_b = g.add_operation(OperationType::kMix, "mixB");
  const auto mix_c = g.add_operation(OperationType::kMix, "mixC");
  const auto mix_d = g.add_operation(OperationType::kMix, "mixD");
  g.add_dependency(da, mix_a);
  g.add_dependency(db, mix_b);
  g.add_dependency(mix_a, mix_c);
  g.add_dependency(mix_b, mix_d);
  for (const auto op : {mix_a, mix_b, mix_c, mix_d}) {
    binding.emplace(op, mixer);
  }
  Schedule schedule = list_schedule(g, binding, {});
  Placement placement(schedule, chip, chip);
  placement.set_anchor(module_index(schedule, "mixA"), a_from_anchor);
  placement.set_anchor(module_index(schedule, "mixC"), a_to_anchor);
  placement.set_anchor(module_index(schedule, "mixB"), b_from_anchor);
  placement.set_anchor(module_index(schedule, "mixD"), b_to_anchor);
  return RoutingCase{std::move(g), std::move(schedule), std::move(placement),
                     chip};
}

TEST(RouterRegistryTest, ListsAllThreeBuiltins) {
  const auto names = registered_routers();
  for (const char* expected : {"prioritized", "negotiated", "restart"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing router: " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(RouterRegistryTest, UnknownNameThrowsWithKnownNames) {
  try {
    make_router("does-not-exist");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("does-not-exist"), std::string::npos);
    for (const auto& name : registered_routers()) {
      EXPECT_NE(message.find("\"" + name + "\""), std::string::npos)
          << "message should list " << name << ": " << message;
    }
  }
}

TEST(RouterRegistryTest, NameAccessorMatchesRegistryKey) {
  for (const auto& name : registered_routers()) {
    EXPECT_EQ(make_router(name)->name(), name);
  }
}

TEST(RouterRegistryTest, CustomRegistration) {
  class NullRouter final : public Router {
   public:
    std::string name() const override { return "null-test"; }
    RoutePlan plan(const SequencingGraph&, const Schedule&, const Placement&,
                   int, int, const RoutePlannerOptions&) const override {
      RoutePlan plan;
      plan.success = true;
      return plan;
    }
  };
  auto& registry = RouterRegistry::global();
  if (!registry.contains("null-test")) {
    registry.register_router("null-test",
                             [] { return std::make_unique<NullRouter>(); });
  }
  EXPECT_TRUE(registry.contains("null-test"));
  EXPECT_EQ(make_router("null-test")->name(), "null-test");
  EXPECT_THROW(
      registry.register_router("null-test",
                               [] { return std::make_unique<NullRouter>(); }),
      std::invalid_argument);
}

// --- shared conformance suite: every registered router ----------------

TEST(RouterConformanceTest, PcrPlanSucceedsAndValidates) {
  const RoutingCase c = pcr_case();
  for (const auto& name : registered_routers()) {
    if (name == "null-test") continue;
    const RoutePlan plan = make_router(name)->plan(
        c.graph, c.schedule, c.placement, c.chip, c.chip);
    expect_valid_plan(plan, c, name);
    EXPECT_FALSE(plan.changeovers.empty()) << name;
  }
}

TEST(RouterConformanceTest, ChipTooSmallThrows) {
  const RoutingCase c = pcr_case();
  for (const auto& name : registered_routers()) {
    if (name == "null-test") continue;
    EXPECT_THROW(
        make_router(name)->plan(c.graph, c.schedule, c.placement, 4, 4),
        std::invalid_argument)
        << name;
  }
}

TEST(RouterConformanceTest, MergeAtSameTargetIsExempt) {
  // Two dispenses into one mixer: both droplets route to the same cell;
  // the separation rule must not fire for the merging pair.
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
  const RoutingCase c{std::move(g), schedule, std::move(placement), 10};
  for (const auto& name : registered_routers()) {
    if (name == "null-test") continue;
    const RoutePlan plan = make_router(name)->plan(
        c.graph, c.schedule, c.placement, c.chip, c.chip);
    expect_valid_plan(plan, c, name);
    ASSERT_EQ(plan.changeovers.size(), 1u) << name;
    EXPECT_EQ(plan.changeovers.front().routes.size(), 2u) << name;
  }
}

TEST(RouterConformanceTest, DynamicConstraintAgainstPreviousPositions) {
  // Head-on exchange: droplet A crosses left-to-right while B crosses
  // right-to-left along the same row. Any straight-line plan would swap
  // head-on, which the dynamic rule (2-cell Chebyshev separation against
  // the other droplet's *previous* position) forbids — someone must
  // detour or wait, and the rule must hold at every step.
  // A: (2,6) -> (12,6); B: (12,6) -> (2,6) — same row, opposite ways.
  const RoutingCase c = two_transfer_case({0, 4}, {10, 4}, {10, 4}, {0, 4},
                                          /*chip=*/14);
  for (const auto& name : registered_routers()) {
    if (name == "null-test") continue;
    const RoutePlan plan = make_router(name)->plan(
        c.graph, c.schedule, c.placement, c.chip, c.chip);
    expect_valid_plan(plan, c, name);
    const ChangeoverPlan& crossing = plan.changeovers.back();
    ASSERT_EQ(crossing.routes.size(), 2u) << name;
    const TimedRoute& a = crossing.routes[0];
    const TimedRoute& b = crossing.routes[1];
    for (int step = 1; step <= crossing.makespan_steps; ++step) {
      EXPECT_GE(chebyshev_distance(routing::position_at(a, step),
                                   routing::position_at(b, step - 1)),
                2)
          << name << " at step " << step;
      EXPECT_GE(chebyshev_distance(routing::position_at(b, step),
                                   routing::position_at(a, step - 1)),
                2)
          << name << " at step " << step;
    }
  }
}

TEST(RouterConformanceTest, ForcedYieldAtCrossing) {
  // Perpendicular crossing through the chip center: both straight-line
  // routes meet at the middle at the same step, so in any valid plan at
  // least one droplet yields (waits or detours) — its arrival must
  // exceed its Manhattan distance.
  // A: (2,7) -> (12,7) along row 7; B: (7,2) -> (7,12) along column 7 —
  // both reach the center (7,7) at step 5 on their straight lines.
  const RoutingCase c = two_transfer_case({0, 5}, {10, 5}, {5, 0}, {5, 10},
                                          /*chip=*/14);
  for (const auto& name : registered_routers()) {
    if (name == "null-test") continue;
    const RoutePlan plan = make_router(name)->plan(
        c.graph, c.schedule, c.placement, c.chip, c.chip);
    expect_valid_plan(plan, c, name);
    const ChangeoverPlan& crossing = plan.changeovers.back();
    ASSERT_EQ(crossing.routes.size(), 2u) << name;
    bool yielded = false;
    for (const auto& route : crossing.routes) {
      EXPECT_GE(route.arrival_step(),
                manhattan_distance(route.request.from, route.request.to))
          << name;
      if (route.arrival_step() >
          manhattan_distance(route.request.from, route.request.to)) {
        yielded = true;
      }
    }
    EXPECT_TRUE(yielded) << name << ": no droplet waited or detoured";
  }
}

TEST(RouterConformanceTest, RestartIsDeterministicForSeed) {
  const RoutingCase c = pcr_case();
  RoutePlannerOptions options;
  options.seed = 77;
  const auto router = make_router("restart");
  const RoutePlan a = router->plan(c.graph, c.schedule, c.placement, c.chip,
                                   c.chip, options);
  const RoutePlan b = router->plan(c.graph, c.schedule, c.placement, c.chip,
                                   c.chip, options);
  ASSERT_EQ(a.success, b.success);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.total_moved_cells, b.total_moved_cells);
  ASSERT_EQ(a.changeovers.size(), b.changeovers.size());
  for (std::size_t i = 0; i < a.changeovers.size(); ++i) {
    EXPECT_EQ(a.changeovers[i].makespan_steps,
              b.changeovers[i].makespan_steps);
  }
}

TEST(RouterConformanceTest, NegotiatedSucceedsWhereverPrioritizedDoes) {
  // Random assays on a tight chip: the negotiated router's per-changeover
  // fallback guarantees its success set contains the prioritized one.
  const auto lib = ModuleLibrary::standard();
  const auto prioritized = make_router("prioritized");
  const auto negotiated = make_router("negotiated");
  int prioritized_ok = 0;
  int negotiated_ok = 0;
  for (int trial = 0; trial < 6; ++trial) {
    RandomAssayParams params;
    params.mix_operations = 5 + trial % 3;
    const AssayCase assay =
        random_assay(params, lib, /*seed=*/static_cast<std::uint64_t>(
                                      trial * 977 + 11));
    PipelineOptions options;
    options.placer = "greedy";
    options.placer_context.canvas_width = 20;
    options.placer_context.canvas_height = 20;
    options.plan_droplet_routes = false;
    const PipelineResult synth = SynthesisPipeline(options).run(assay);
    const RoutePlan p = prioritized->plan(assay.graph, synth.schedule,
                                          synth.placement.placement, 20, 20);
    const RoutePlan n = negotiated->plan(assay.graph, synth.schedule,
                                         synth.placement.placement, 20, 20);
    prioritized_ok += p.success ? 1 : 0;
    negotiated_ok += n.success ? 1 : 0;
    if (p.success) {
      EXPECT_TRUE(n.success)
          << "trial " << trial << ": " << n.failure_reason;
    }
  }
  EXPECT_GE(negotiated_ok, prioritized_ok);
}

TEST(RouterConformanceTest, PipelineRouterSelectableByName) {
  for (const auto& name : registered_routers()) {
    if (name == "null-test") continue;
    PipelineOptions options;
    options.placer = "greedy";
    options.router = name;
    const PipelineResult result =
        SynthesisPipeline(options).run(pcr_mixing_assay());
    EXPECT_TRUE(result.routes.success)
        << name << ": " << result.routes.failure_reason;
  }
  PipelineOptions options;
  options.placer = "greedy";
  options.router = "no-such-router";
  EXPECT_THROW(SynthesisPipeline(options).run(pcr_mixing_assay()),
               std::invalid_argument);
}

// --- the one search kernel against the prioritized-search oracle -----

TEST(RouteKernelTest, HardConflictModeMatchesTheOracleSearch) {
  // Every transfer of every changeover of seeded random, permutation and
  // corridor assays, each routed against the routes before it in
  // default_order, as the prioritized solver does: the kernel at
  // kHardConflict with no history must return the oracle's route (or its
  // failure) exactly, at cost = arrival step. The 8-step horizon makes
  // searches run out, so the failure path is compared too.
  const ModuleLibrary library = ModuleLibrary::standard();
  constexpr int kChip = 20;
  std::vector<AssayCase> assays;
  for (const std::uint64_t seed : {7ULL, 1009ULL, 11ULL}) {
    RandomAssayParams params;
    params.mix_operations = 8;
    assays.push_back(random_assay(params, library, seed));
    assays.push_back(permutation_assay(4, 2, library, seed));
    assays.push_back(corridor_assay(StressAssayParams{}, library, seed));
  }

  int routed = 0;
  int unroutable = 0;
  for (const AssayCase& assay : assays) {
    PipelineOptions options;
    options.placer = "greedy";
    options.placer_context.canvas_width = kChip;
    options.placer_context.canvas_height = kChip;
    options.plan_droplet_routes = false;
    const PipelineResult synth = SynthesisPipeline(options).run(assay);
    const auto problems = routing::extract_problems(
        assay.graph, synth.schedule, synth.placement.placement, kChip, kChip);
    ASSERT_FALSE(problems.empty()) << assay.name;

    const RoutePlannerOptions defaults;
    const int separation = defaults.separation_cells;
    for (const int horizon :
         {routing::resolve_horizon(defaults, kChip, kChip), 8}) {
      for (const auto& problem : problems) {
        std::vector<TimedRoute> earlier;
        routing::SearchScratch scratch;
        const auto compare = [&](const TransferRequest& request) {
          const auto kernel = routing::route_transfer(
              request, problem.blocked, earlier, earlier.size(), horizon,
              separation, routing::kHardConflict, {}, 0.0, scratch);
          const auto reference = oracle::route_transfer(
              request, problem.blocked, earlier, horizon, separation);
          EXPECT_EQ(kernel.has_value(), reference.has_value())
              << assay.name << " t=" << problem.time_s << " "
              << request.label << " horizon " << horizon;
          if (!kernel || !reference) {
            ++unroutable;
            return false;
          }
          EXPECT_EQ(kernel->positions, *reference)
              << assay.name << " t=" << problem.time_s << " "
              << request.label << " horizon " << horizon;
          EXPECT_EQ(kernel->cost,
                    static_cast<double>(reference->size() - 1));
          earlier.push_back(TimedRoute{request, *reference});
          ++routed;
          return true;
        };
        for (const std::size_t r : routing::default_order(problem.requests)) {
          TransferRequest request = problem.requests[r];
          if (!(request.from == routing::kDispensePending)) {
            compare(request);
            continue;
          }
          for (const Point& entry :
               routing::perimeter_entries(problem.blocked, request.to)) {
            request.from = entry;
            if (compare(request)) break;
          }
        }
      }
    }
  }
  EXPECT_GT(routed, 250);
  EXPECT_GT(unroutable, 0);
}

}  // namespace
}  // namespace dmfb
