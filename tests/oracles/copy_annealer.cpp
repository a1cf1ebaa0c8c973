#include "oracles/copy_annealer.h"

#include "core/cost.h"
#include "core/greedy_placer.h"
#include "core/moves.h"
#include "core/placer.h"

namespace dmfb::oracle {

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
  problem.cost = [&](const Placement& p) { return evaluator.cost(p); };
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
  outcome.cost = evaluator.evaluate(outcome.placement);
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
