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

constexpr int kKernelChip = 20;

/// The changeovers the kernel pins run on: seeded random, permutation and
/// corridor assays placed by greedy on a 20x20 chip, with their names.
std::vector<std::pair<std::string, std::vector<routing::ChangeoverProblem>>>
kernel_problems() {
  const ModuleLibrary library = ModuleLibrary::standard();
  std::vector<AssayCase> assays;
  for (const std::uint64_t seed : {7ULL, 1009ULL, 11ULL}) {
    RandomAssayParams params;
    params.mix_operations = 8;
    assays.push_back(random_assay(params, library, seed));
    assays.push_back(permutation_assay(4, 2, library, seed));
    assays.push_back(corridor_assay(StressAssayParams{}, library, seed));
  }
  std::vector<std::pair<std::string, std::vector<routing::ChangeoverProblem>>>
      sets;
  for (const AssayCase& assay : assays) {
    PipelineOptions options;
    options.placer = "greedy";
    options.placer_context.canvas_width = kKernelChip;
    options.placer_context.canvas_height = kKernelChip;
    options.plan_droplet_routes = false;
    const PipelineResult synth = SynthesisPipeline(options).run(assay);
    sets.emplace_back(assay.name,
                      routing::extract_problems(
                          assay.graph, synth.schedule,
                          synth.placement.placement, kKernelChip,
                          kKernelChip));
  }
  return sets;
}

TEST(NegotiatedRouterTest, SettledChangeoversMatchAnUnboundedInitialPass) {
  // A changeover "negotiated" settles without rip-up keeps its initial
  // pass: each transfer in default_order priced against the routes before
  // it on a zero history grid, a dispense taking the strictly cheapest of
  // its 12 nearest perimeter entries. Replaying that pass here, searching
  // from every entry, pins the router's early exit from the entry scan.
  const RoutePlannerOptions options;
  const auto router = make_router("negotiated");
  const ModuleLibrary library = ModuleLibrary::standard();
  int settled = 0;
  int beyond_nearest = 0;
  constexpr int kChip = 16;  // tight enough for detours and conflicts
  RandomAssayParams params;
  params.mix_operations = 8;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const AssayCase& assay : {random_assay(params, library, seed),
                                   permutation_assay(4, 2, library, seed)}) {
      PipelineOptions pipeline;
      pipeline.placer = "greedy";
      pipeline.placer_context.canvas_width = kChip;
      pipeline.placer_context.canvas_height = kChip;
      pipeline.plan_droplet_routes = false;
      const PipelineResult synth = SynthesisPipeline(pipeline).run(assay);
      const RoutePlan plan =
          router->plan(assay.graph, synth.schedule, synth.placement.placement,
                       kChip, kChip, options);
      const auto problems = routing::extract_problems(
          assay.graph, synth.schedule, synth.placement.placement, kChip,
          kChip);
      const int horizon = routing::resolve_horizon(options, kChip, kChip);
      for (std::size_t c = 0; c < plan.changeovers.size(); ++c) {
        if (plan.changeovers[c].negotiation_rounds != 0) continue;
        const auto& problem = problems[c];
        std::vector<TimedRoute> routes(problem.requests.size());
        routing::SearchScratch scratch;
        for (const std::size_t r : routing::default_order(problem.requests)) {
          std::vector<Point> entries{problem.requests[r].from};
          if (entries.front() == routing::kDispensePending) {
            entries = routing::perimeter_entries(problem.blocked,
                                                 problem.requests[r].to);
            entries.resize(std::min<std::size_t>(entries.size(), 12));
          }
          std::optional<routing::PricedRoute> best;
          for (std::size_t e = 0; e < entries.size(); ++e) {
            TransferRequest request = problem.requests[r];
            request.from = entries[e];
            auto route = routing::route_transfer(
                request, problem.blocked, routes, r, horizon,
                options.separation_cells, options.present_congestion_weight,
                {}, options.history_congestion_weight, scratch);
            if (route && (!best || route->cost < best->cost)) {
              best = std::move(route);
              routes[r].request = request;
              if (e > 0) ++beyond_nearest;
            }
          }
          ASSERT_TRUE(best.has_value())
              << assay.name << " t=" << problem.time_s;
          routes[r].positions = best->positions;
          EXPECT_EQ(plan.changeovers[c].routes[r].positions,
                    routes[r].positions)
              << assay.name << " t=" << problem.time_s << " "
              << problem.requests[r].label;
        }
        ++settled;
      }
    }
  }
  EXPECT_GT(settled, 40);
  EXPECT_GT(beyond_nearest, 0);  // the entry scan's bound was exercised
}

TEST(RouteKernelTest, HardConflictModeMatchesTheOracleSearch) {
  // Every transfer of every changeover of seeded random, permutation and
  // corridor assays, each routed against the routes before it in
  // default_order, as the prioritized solver does: the kernel at
  // kHardConflict with no history must return the oracle's route (or its
  // failure) exactly, at cost = arrival step. The 8-step horizon makes
  // searches run out, so the failure path is compared too.
  constexpr int kChip = kKernelChip;
  int routed = 0;
  int unroutable = 0;
  for (const auto& [name, problems] : kernel_problems()) {
    ASSERT_FALSE(problems.empty()) << name;

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
              << name << " t=" << problem.time_s << " "
              << request.label << " horizon " << horizon;
          if (!kernel || !reference) {
            ++unroutable;
            return false;
          }
          EXPECT_EQ(kernel->positions, *reference)
              << name << " t=" << problem.time_s << " "
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

TEST(RouteKernelTest, PricedModeMatchesTheScanningOracle) {
  // The negotiated router's use of the kernel: a fractional history grid
  // and present weights 1.0, 2.5 and 0.7 ((h + 0.7) + 0.7 and h + 1.4
  // can round apart, so one addition per offending route is pinned).
  // Each changeover is routed twice against one list of routes: an
  // initial pass in default_order (self's slot still empty) and a reroute
  // pass (self's old route in the list, mid-list for the middle
  // transfers). Every search must match the scan-based oracle on
  // positions and on cost exactly, so the reservation table's counts and
  // their summation order are pinned. One scratch serves every search, so
  // its reuse is exercised too.
  constexpr int kChip = kKernelChip;
  const RoutePlannerOptions defaults;
  const int separation = defaults.separation_cells;
  const double history_weight = defaults.history_congestion_weight;
  routing::SearchScratch scratch;
  int compared = 0;
  int self_mid_list = 0;
  int with_merging_partner = 0;
  for (const auto& [name, problems] : kernel_problems()) {
    for (const int horizon :
         {routing::resolve_horizon(defaults, kChip, kChip), 8}) {
      std::vector<double> history(
          static_cast<std::size_t>(horizon + 1) * kChip * kChip);
      for (std::size_t k = 0; k < history.size(); ++k) {
        history[k] = 0.05 + 0.1 * static_cast<double>((k * 7919) % 13);
      }
      for (const double present : {1.0, 2.5, 0.7}) {
        for (const auto& problem : problems) {
          std::vector<TimedRoute> routes(problem.requests.size());
          const auto compare = [&](const TransferRequest& request,
                                   std::size_t self) {
            const auto kernel = routing::route_transfer(
                request, problem.blocked, routes, self, horizon, separation,
                present, history, history_weight, scratch);
            const auto reference = oracle::route_transfer_priced(
                request, problem.blocked, routes, self, horizon, separation,
                present, history, history_weight);
            const std::string where = name + " t=" +
                                      std::to_string(problem.time_s) + " " +
                                      request.label + " horizon " +
                                      std::to_string(horizon);
            EXPECT_EQ(kernel.has_value(), reference.has_value()) << where;
            ++compared;
            if (!kernel || !reference) return false;
            EXPECT_EQ(kernel->positions, reference->positions) << where;
            EXPECT_EQ(kernel->cost, reference->cost) << where;
            return true;
          };
          for (int pass = 0; pass < 2; ++pass) {
            for (const std::size_t r :
                 routing::default_order(problem.requests)) {
              if (pass == 1 && r > 0 && r + 1 < routes.size()) {
                ++self_mid_list;
              }
              for (std::size_t o = 0; o < routes.size(); ++o) {
                if (o != r && !routes[o].positions.empty() &&
                    routes[o].request.to == problem.requests[r].to) {
                  ++with_merging_partner;
                  break;
                }
              }
              // Rerouting keeps a dispense's entry from the first pass.
              TransferRequest request = routes[r].positions.empty()
                                            ? problem.requests[r]
                                            : routes[r].request;
              if (request.from == routing::kDispensePending) {
                // The nearest entry that routes at all.
                for (const Point& entry : routing::perimeter_entries(
                         problem.blocked, request.to)) {
                  request.from = entry;
                  if (compare(request, r)) break;
                }
              } else if (!compare(request, r)) {
                continue;
              }
              const auto placed = oracle::route_transfer_priced(
                  request, problem.blocked, routes, r, horizon, separation,
                  present, history, history_weight);
              if (!placed) continue;
              routes[r].request = request;
              routes[r].positions = placed->positions;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 1000);
  EXPECT_GT(self_mid_list, 0);
  EXPECT_GT(with_merging_partner, 0);
}

}  // namespace
}  // namespace dmfb
