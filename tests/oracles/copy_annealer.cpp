#include "oracles/copy_annealer.h"

#include "core/cost.h"
#include "core/greedy_placer.h"
#include "core/moves.h"
#include "core/placer.h"
#include "oracles/reference_fti.h"

namespace dmfb::oracle {

CostBreakdown evaluate_cost(const CostEvaluator& evaluator,
                            const Placement& placement) {
  const CostWeights& weights = evaluator.weights();
  CostBreakdown result;
  result.area_cells = placement.bounding_box_cells();
  result.overlap_cells = placement.overlap_cells();
  result.defect_cells = evaluator.defect_usage(placement);
  if (weights.beta != 0.0) {
    result.fti =
        evaluate_fti_reference(placement, evaluator.fti_options()).fti();
  }
  result.value = weights.alpha * static_cast<double>(result.area_cells) +
                 weights.lambda_overlap *
                     static_cast<double>(result.overlap_cells) +
                 weights.lambda_defect *
                     static_cast<double>(result.defect_cells) -
                 weights.beta * result.fti;
  if (weights.gamma != 0.0) {
    result.route_pressure = evaluator.route_pressure(placement);
    result.value += weights.gamma * static_cast<double>(result.route_pressure);
  }
  return result;
}

PlacementOutcome anneal_copy(const Placement& initial,
                             const PlacerContext& context) {
  const auto start_time = std::chrono::steady_clock::now();

  CostEvaluator evaluator(context.weights, context.fti_options);
  evaluator.set_defects(context.defects);
  evaluator.set_route_links(context.route_links);
  Rng rng(context.seed);

  PlacementOutcome outcome;
  long long proposals_by_kind[AnnealingStats::kMoveKindSlots] = {0, 0, 0, 0};
  AnnealingProblem<Placement> problem;
  problem.cost = [&](const Placement& p) {
    return evaluate_cost(evaluator, p).value;
  };
  problem.neighbor = [&](const Placement& p, double fraction, Rng& move_rng) {
    Placement next = p;
    const MoveKind kind =
        apply_random_move(next, fraction, context.moves, move_rng);
    ++proposals_by_kind[static_cast<int>(kind)];
    return next;
  };
  problem.recordable = [&](const Placement& p) {
    return p.feasible() && evaluator.defect_usage(p) == 0;
  };
  outcome.placement = anneal(initial, problem, context.annealing,
                             initial.module_count(), rng, &outcome.stats);
  for (int k = 0; k < AnnealingStats::kMoveKindSlots; ++k) {
    outcome.stats.proposals_by_kind[k] = proposals_by_kind[k];
  }
  outcome.cost = evaluate_cost(evaluator, outcome.placement);
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  return outcome;
}

PlacementOutcome place_copy(const Schedule& schedule,
                            const PlacerContext& context) {
  return anneal_copy(place_greedy(schedule, context.canvas_width,
                                  context.canvas_height, context.defects),
                     context);
}

}  // namespace dmfb::oracle
