// Tests for the closed synthesis loop: transport-aware scheduling
// (Schedule::shift_from / fold_transport / the steps->seconds seam),
// routing-aware placement (the gamma routing-pressure term, priced
// identically by the delta annealing engine and its copying oracle), link
// extraction/feedback (routing::extract_links / reweight_links), and the
// SynthesisPipeline feedback rounds. Pins the PR's three contracts:
//   (a) the transport-inclusive makespan is monotone (>= the
//       instantaneous-changeover makespan) and retiming preserves
//       precedence,
//   (b) feedback rounds keep the best round, so the flow never does
//       worse than round 0,
//   (c) with feedback_rounds = 0 and gamma = 0 the flow is bit-identical
//       to the classic feed-forward pipeline (and to the copying oracle).
#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/pipeline.h"
#include "assay/random_assay.h"
#include "core/incremental_cost.h"
#include "core/moves.h"
#include "core/placer.h"
#include "oracles/copy_annealer.h"
#include "sim/route_planner.h"
#include "util/rng.h"

namespace dmfb {
namespace {

/// Short annealing runs so the whole suite stays fast.
PipelineOptions fast_options() {
  PipelineOptions options;
  options.placer_context.annealing.initial_temperature = 1000.0;
  options.placer_context.annealing.cooling_rate = 0.8;
  options.placer_context.annealing.iterations_per_module = 60;
  options.placer_context.ltsa.iterations_per_module = 60;
  return options;
}

void expect_same_placement(const Placement& a, const Placement& b) {
  ASSERT_EQ(a.module_count(), b.module_count());
  for (int i = 0; i < a.module_count(); ++i) {
    EXPECT_EQ(a.module(i).anchor, b.module(i).anchor) << "module " << i;
    EXPECT_EQ(a.module(i).rotated, b.module(i).rotated) << "module " << i;
  }
}

// --- (1) schedule retiming and the steps->seconds seam ----------------

TEST(ClosedLoopTest, ShiftFromDelaysOnlyLaterModules) {
  Schedule schedule;
  const ModuleSpec mixer{"mixer-2x2", ModuleKind::kMixer, 2, 2, 10.0};
  schedule.add(ScheduledModule{0, "A", mixer, 0.0, 10.0});
  schedule.add(ScheduledModule{1, "B", mixer, 10.0, 20.0});
  schedule.add(ScheduledModule{2, "C", mixer, 15.0, 25.0});

  schedule.shift_from(10.0, 2.5);
  EXPECT_DOUBLE_EQ(schedule.module(0).start_s, 0.0);   // before: untouched
  EXPECT_DOUBLE_EQ(schedule.module(0).end_s, 10.0);
  EXPECT_DOUBLE_EQ(schedule.module(1).start_s, 12.5);  // at: delayed
  EXPECT_DOUBLE_EQ(schedule.module(1).end_s, 22.5);    // duration preserved
  EXPECT_DOUBLE_EQ(schedule.module(2).start_s, 17.5);  // after: delayed
  EXPECT_DOUBLE_EQ(schedule.makespan_s(), 27.5);

  EXPECT_THROW(schedule.shift_from(0.0, -1.0), std::invalid_argument);
}

TEST(ClosedLoopTest, TransportSecondsDeriveFromTheActuationConstant) {
  const PipelineResult result =
      SynthesisPipeline(fast_options()).run(pcr_mixing_assay());
  ASSERT_TRUE(result.routes.success) << result.routes.failure_reason;
  ASSERT_FALSE(result.routes.changeovers.empty());

  double sum = 0.0;
  for (const auto& changeover : result.routes.changeovers) {
    EXPECT_DOUBLE_EQ(changeover.transport_seconds(),
                     changeover.makespan_steps * kActuationPeriodS);
    for (const auto& route : changeover.routes) {
      EXPECT_DOUBLE_EQ(route.transport_seconds(),
                       route.arrival_step() * kActuationPeriodS);
    }
    sum += changeover.transport_seconds();
  }
  EXPECT_DOUBLE_EQ(result.routes.total_transport_seconds(), sum);
  // The no-argument form is the explicit-rate form at the one constant.
  EXPECT_DOUBLE_EQ(
      result.routes.total_transport_seconds(),
      result.routes.total_transport_seconds(kActuationStepsPerSecond));
}

TEST(ClosedLoopTest, TransportInclusiveMakespanIsMonotoneAndPrecedenceSafe) {
  const AssayCase assay = pcr_mixing_assay();
  const PipelineResult result = SynthesisPipeline(fast_options()).run(assay);
  ASSERT_TRUE(result.routes.success) << result.routes.failure_reason;

  // (a) monotonicity: folding non-negative transport can only delay.
  EXPECT_GE(result.transport_makespan_s, result.makespan_s);
  EXPECT_GT(result.transport_makespan_s, result.makespan_s)
      << "PCR has non-trivial changeovers; transport must cost time";
  EXPECT_DOUBLE_EQ(result.transported_schedule.makespan_s(),
                   result.transport_makespan_s);
  EXPECT_DOUBLE_EQ(
      fold_transport(result.schedule, result.routes).makespan_s(),
      result.transport_makespan_s);

  // Retiming preserves precedence, module count and durations.
  EXPECT_TRUE(result.transported_schedule.validate_against(assay.graph)
                  .empty());
  ASSERT_EQ(result.transported_schedule.module_count(),
            result.schedule.module_count());
  for (int i = 0; i < result.schedule.module_count(); ++i) {
    EXPECT_DOUBLE_EQ(result.transported_schedule.module(i).duration_s(),
                     result.schedule.module(i).duration_s());
    EXPECT_GE(result.transported_schedule.module(i).start_s,
              result.schedule.module(i).start_s);
  }

  // The total inserted delay is exactly the plan's transport time.
  EXPECT_NEAR(result.transport_makespan_s - result.makespan_s,
              result.routes.total_transport_seconds(), 1e-9);
}

// --- (2) link extraction and feedback ---------------------------------

TEST(ClosedLoopTest, ExtractLinksCoversEveryRoutedTransfer) {
  const PipelineResult result =
      SynthesisPipeline(fast_options()).run(pcr_mixing_assay());
  ASSERT_TRUE(result.routes.success);
  const auto links =
      routing::extract_links(pcr_mixing_assay().graph, result.schedule);
  ASSERT_FALSE(links.empty());

  for (const auto& link : links) {
    EXPECT_GE(link.target_module, 0);
    EXPECT_LT(link.target_module, result.schedule.module_count());
    EXPECT_LT(link.source_module, result.schedule.module_count());
    EXPECT_GE(link.weight, 1);
  }

  // Every transfer the router actually planned has a matching demand
  // edge (extraction may carry extra zero-distance edges, never fewer).
  for (const auto& changeover : result.routes.changeovers) {
    for (const auto& route : changeover.routes) {
      const bool found = std::any_of(
          links.begin(), links.end(), [&](const RouteLink& link) {
            return link.source_module == route.request.source_module &&
                   link.target_module == route.request.target_module;
          });
      EXPECT_TRUE(found) << "transfer " << route.request.label
                         << " has no demand edge";
    }
  }
}

TEST(ClosedLoopTest, ReweightFoldsMeasuredStepsIntoWeights) {
  const PipelineResult result =
      SynthesisPipeline(fast_options()).run(pcr_mixing_assay());
  ASSERT_TRUE(result.routes.success);
  const auto links =
      routing::extract_links(pcr_mixing_assay().graph, result.schedule);
  const auto weighted = routing::reweight_links(links, result.routes);

  ASSERT_EQ(weighted.size(), links.size());
  long long gained = 0;
  for (std::size_t i = 0; i < links.size(); ++i) {
    EXPECT_EQ(weighted[i].source_module, links[i].source_module);
    EXPECT_EQ(weighted[i].target_module, links[i].target_module);
    EXPECT_GE(weighted[i].weight, links[i].weight);
    gained += weighted[i].weight - links[i].weight;
  }
  // The plan took steps, so some edge must have gained weight.
  EXPECT_GT(gained, 0);
}

// --- (3) the routing-pressure cost term -------------------------------

TEST(ClosedLoopTest, EvaluatorPricesRoutePressureOnlyWithGamma) {
  PipelineOptions options = fast_options();
  options.plan_droplet_routes = false;
  const PipelineResult result =
      SynthesisPipeline(options).run(pcr_mixing_assay());
  const auto links =
      routing::extract_links(pcr_mixing_assay().graph, result.schedule);

  CostWeights weights;  // gamma = 0
  CostEvaluator plain(weights);
  CostEvaluator with_links(weights);
  with_links.set_route_links(links);
  const CostBreakdown a = plain.evaluate(result.placement.placement);
  const CostBreakdown b = with_links.evaluate(result.placement.placement);
  // gamma = 0: links are carried but never priced — values bit-identical.
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(b.route_pressure, 0);

  weights.gamma = 0.05;
  CostEvaluator priced(weights);
  priced.set_route_links(links);
  const CostBreakdown c = priced.evaluate(result.placement.placement);
  EXPECT_GT(c.route_pressure, 0);
  EXPECT_DOUBLE_EQ(c.value, a.value + 0.05 * c.route_pressure);
  EXPECT_EQ(c.route_pressure, priced.route_pressure(result.placement.placement));
}

TEST(ClosedLoopTest, IncrementalStateTracksRoutePressureThroughMoves) {
  PipelineOptions options = fast_options();
  options.plan_droplet_routes = false;
  const PipelineResult synth =
      SynthesisPipeline(options).run(pcr_mixing_assay());
  const auto links =
      routing::extract_links(pcr_mixing_assay().graph, synth.schedule);

  for (const double beta : {0.0, 30.0}) {  // lazy and eager pricing paths
    CostWeights weights;
    weights.beta = beta;
    weights.gamma = 0.05;
    CostEvaluator evaluator(weights);
    evaluator.set_route_links(links);

    IncrementalPlacementState state(synth.placement.placement, evaluator);
    EXPECT_EQ(state.breakdown().route_pressure,
              evaluator.route_pressure(state.placement()));
    EXPECT_DOUBLE_EQ(state.cost(),
                     oracle::evaluate_cost(evaluator, state.placement()).value);

    // Drive a few hundred random moves through propose/commit/revert and
    // re-check the maintained tallies against a from-scratch evaluation.
    Rng rng(2026);
    MoveOptions moves;
    for (int i = 0; i < 300; ++i) {
      const PlacementMove move =
          generate_random_move(state.placement(), 0.5, moves, rng);
      state.propose(move);
      if (rng.next_bool(0.5)) {
        state.commit();
      } else {
        state.revert();
      }
    }
    const CostBreakdown fresh =
        oracle::evaluate_cost(evaluator, state.placement());
    EXPECT_EQ(state.breakdown().route_pressure, fresh.route_pressure)
        << "beta " << beta;
    EXPECT_DOUBLE_EQ(state.cost(), fresh.value) << "beta " << beta;
  }
}

TEST(ClosedLoopTest, DeltaAndCopyEnginesAgreeUnderGamma) {
  PipelineOptions options = fast_options();
  options.plan_droplet_routes = false;
  const PipelineResult synth =
      SynthesisPipeline(options).run(pcr_mixing_assay());
  const auto links =
      routing::extract_links(pcr_mixing_assay().graph, synth.schedule);

  for (const double beta : {0.0, 30.0}) {
    PlacerContext context = fast_options().placer_context;
    context.seed = 515;
    context.weights.beta = beta;
    context.weights.gamma = 0.05;
    context.route_links = links;

    const PlacementOutcome delta =
        make_placer("sa")->place(synth.schedule, context);
    const PlacementOutcome copy =
        oracle::place_copy(synth.schedule, context);

    // The gamma term is exact integer arithmetic in both engines, so the
    // whole trajectory — not just the answer — coincides.
    EXPECT_EQ(delta.cost.value, copy.cost.value) << "beta " << beta;
    expect_same_placement(delta.placement, copy.placement);
  }
}

// --- (4) the closed-loop pipeline -------------------------------------

TEST(ClosedLoopTest, GammaZeroFeedbackZeroIsBitIdenticalToClassicFlow) {
  const AssayCase assay = pcr_mixing_assay();
  PipelineOptions options = fast_options();
  options.seed = 99;
  const PipelineResult piped = SynthesisPipeline(options).run(assay);

  // The classic flow, hand-wired: same schedule, placer, seed.
  PlacerContext context = options.placer_context;
  context.seed = 99;
  const PlacementOutcome hand =
      make_placer("sa")->place(piped.schedule, context);
  expect_same_placement(piped.placement.placement, hand.placement);
  EXPECT_EQ(piped.placement.cost.value, hand.cost.value);
  EXPECT_TRUE(piped.feedback_history.empty());
  EXPECT_EQ(piped.selected_round, 0);

  // ...and the copying oracle lands on the very same placement.
  const PlacementOutcome copy =
      oracle::place_copy(piped.schedule, context);
  expect_same_placement(piped.placement.placement, copy.placement);
  EXPECT_EQ(piped.placement.cost.value, copy.cost.value);
}

TEST(ClosedLoopTest, FeedbackKeepsTheBestRoundAndNeverDoesWorse) {
  PipelineOptions options = fast_options();
  options.seed = 7;
  options.feedback_rounds = 2;
  options.placer_context.weights.gamma = 0.05;
  options.routing.step_horizon = 12;  // a deadline regime
  const PipelineResult result =
      SynthesisPipeline(options).run(pcr_mixing_assay());

  ASSERT_GE(result.feedback_history.size(), 1u);
  ASSERT_LE(result.feedback_history.size(), 3u);
  EXPECT_EQ(result.feedback_history.front().round, 0);
  ASSERT_GE(result.selected_round, 0);
  ASSERT_LT(result.selected_round,
            static_cast<int>(result.feedback_history.size()));

  const auto& round0 = result.feedback_history.front();
  const auto& chosen =
      result.feedback_history[static_cast<std::size_t>(
          result.selected_round)];
  // Best-round selection: routed beats unrouted; among routed, the
  // transport-inclusive makespan never regresses past round 0.
  if (round0.routed) {
    EXPECT_TRUE(chosen.routed);
    EXPECT_LE(chosen.transport_makespan_s, round0.transport_makespan_s);
  }
  EXPECT_DOUBLE_EQ(result.transport_makespan_s, chosen.transport_makespan_s);
  // History carries the gamma-term-free cost (comparable across rounds).
  EXPECT_DOUBLE_EQ(
      result.placement.cost.value -
          0.05 * static_cast<double>(result.placement.cost.route_pressure),
      chosen.placement_cost);
}

// --- (5) stress generators ------------------------------------------

TEST(ClosedLoopTest, StressGeneratorsAreDeterministicAndSchedulable) {
  const ModuleLibrary library = ModuleLibrary::standard();
  StressAssayParams params;
  const AssayCase a = corridor_assay(params, library, 42);
  const AssayCase b = corridor_assay(params, library, 42);
  EXPECT_EQ(a.graph.operation_count(), b.graph.operation_count());
  EXPECT_EQ(a.binding.size(), b.binding.size());
  EXPECT_EQ(a.name, "corridor-assay");

  // walls * (dispense + detect) + waves * width * (mix + >=1 dispense)
  // + outputs; just pin the op count is substantial and stable.
  EXPECT_GT(a.graph.operation_count(),
            params.corridor_walls + params.waves * params.traffic_width);

  PipelineOptions options = fast_options();
  options.placer_context.canvas_width = 20;
  options.placer_context.canvas_height = 20;
  const PipelineResult result = SynthesisPipeline(options).run(a);
  EXPECT_TRUE(result.schedule.validate_against(a.graph).empty());
  EXPECT_TRUE(result.placement.placement.feasible());

  const AssayCase p = permutation_assay(4, 2, library, 7);
  EXPECT_EQ(p.name, "permutation-assay");
  const PipelineResult pr = SynthesisPipeline(options).run(p);
  EXPECT_TRUE(pr.schedule.validate_against(p.graph).empty());
}

}  // namespace
}  // namespace dmfb
