#include "oracles/copy_annealer.h"

#include "core/cost.h"
#include "core/moves.h"
#include "core/placer.h"

namespace dmfb::oracle {

PlacementOutcome anneal_copy(const Placement& initial,
                             const SaPlacerOptions& options) {
  const auto start_time = std::chrono::steady_clock::now();

  CostEvaluator evaluator(options.weights, options.fti_options);
  evaluator.set_defects(options.defects);
  evaluator.set_route_links(options.route_links);
  Rng rng(options.seed);

  PlacementOutcome outcome;
  long long proposals_by_kind[AnnealingStats::kMoveKindSlots] = {0, 0, 0, 0};
  AnnealingProblem<Placement> problem;
  problem.cost = [&](const Placement& p) { return evaluator.cost(p); };
  problem.neighbor = [&](const Placement& p, double fraction, Rng& move_rng) {
    Placement next = p;
    const MoveKind kind =
        apply_random_move(next, fraction, options.moves, move_rng);
    ++proposals_by_kind[static_cast<int>(kind)];
    return next;
  };
  problem.recordable = [&](const Placement& p) {
    return p.feasible() && evaluator.defect_usage(p) == 0;
  };
  outcome.placement = anneal(initial, problem, options.schedule,
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
                            const SaPlacerOptions& options) {
  PlacerContext greedy;
  greedy.canvas_width = options.canvas_width;
  greedy.canvas_height = options.canvas_height;
  greedy.defects = options.defects;
  return anneal_copy(make_placer("greedy")->place(schedule, greedy).placement,
                     options);
}

}  // namespace dmfb::oracle
