#include "core/sa_placer.h"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/incremental_cost.h"
#include "core/placer.h"

namespace dmfb {
namespace {

/// Concrete (non-type-erased) problem, so the annealing loop inlines the
/// callbacks — std::function dispatch measurably costs at the delta
/// engine's proposal rates.
template <typename P, typename C, typename R, typename Q, typename B>
struct InlineDeltaProblem {
  P propose_delta;
  C commit;
  R revert;
  Q recordable;
  B record_best;
};
template <typename P, typename C, typename R, typename Q, typename B>
InlineDeltaProblem(P, C, R, Q, B) -> InlineDeltaProblem<P, C, R, Q, B>;

/// The delta engine: one IncrementalPlacementState mutated in place, each
/// proposal generated by generate_random_move_with_span and priced by the
/// delta of the cost terms it touched; the placement is only ever copied
/// when a new best is recorded.
Placement anneal_delta_engine(const Placement& initial,
                              const CostEvaluator& evaluator,
                              const PlacerContext& context, Rng& rng,
                              AnnealingStats* stats) {
  IncrementalPlacementState state(initial, evaluator);

  // Best-so-far as a pose list, not a Placement copy: the early
  // accept-everything phase improves the best thousands of times, and a
  // full Placement copy per improvement (strings, pair and slice
  // vectors) costs more than the proposal it follows.
  struct Pose {
    Point anchor;
    bool rotated = false;
  };
  std::vector<Pose> best_pose(
      static_cast<std::size_t>(initial.module_count()));

  // Controlling-window span cached per temperature step (it depends only
  // on the canvas and the fraction, which is constant within a step) —
  // stream-identical to re-deriving it per proposal. Kind tallies feed
  // AnnealingStats' telemetry; commit() fires once per accepted move.
  long long proposals_by_kind[AnnealingStats::kMoveKindSlots] = {0, 0, 0, 0};
  long long accepted_by_kind[AnnealingStats::kMoveKindSlots] = {0, 0, 0, 0};
  double cached_fraction = -1.0;
  int cached_span = 0;
  int last_kind = 0;

  const InlineDeltaProblem problem{
      /*propose_delta=*/[&](double fraction, Rng& move_rng) {
        if (fraction != cached_fraction) {
          cached_fraction = fraction;
          cached_span = controlling_window_span(state.placement(), fraction,
                                                context.moves);
        }
        const PlacementMove move = generate_random_move_with_span(
            state.placement(), cached_span, context.moves, move_rng);
        last_kind = static_cast<int>(move.kind);
        ++proposals_by_kind[last_kind];
        return state.propose(move);
      },
      /*commit=*/
      [&] {
        ++accepted_by_kind[last_kind];
        return state.commit();
      },
      /*revert=*/[&] { state.revert(); },
      /*recordable=*/
      [&] { return state.feasible() && state.defect_cells() == 0; },
      /*record_best=*/
      [&](double) {
        const auto& modules = state.placement().modules();
        for (std::size_t i = 0; i < best_pose.size(); ++i) {
          best_pose[i] = Pose{modules[i].anchor, modules[i].rotated};
        }
      }};

  const double best_cost =
      anneal_delta(state.cost(), problem, context.annealing,
                   initial.module_count(), rng, stats);
  if (stats) {
    for (int k = 0; k < AnnealingStats::kMoveKindSlots; ++k) {
      stats->proposals_by_kind[k] = proposals_by_kind[k];
      stats->accepted_by_kind[k] = accepted_by_kind[k];
    }
  }
  // No recordable state seen: fall back to the final current state, as the
  // copying loop does.
  if (!std::isfinite(best_cost)) return state.placement();
  Placement best = state.placement();
  for (std::size_t i = 0; i < best_pose.size(); ++i) {
    best.set_position(static_cast<int>(i), best_pose[i].anchor,
                      best_pose[i].rotated);
  }
  return best;
}

}  // namespace

void check_schedule(const AnnealingSchedule& schedule) {
  if (!(schedule.cooling_rate > 0.0 && schedule.cooling_rate < 1.0)) {
    throw std::invalid_argument(
        "annealing cooling_rate must lie in (0, 1), got " +
        std::to_string(schedule.cooling_rate));
  }
  if (!(schedule.min_temperature > 0.0) ||
      !std::isfinite(schedule.min_temperature)) {
    throw std::invalid_argument(
        "annealing min_temperature must be positive and finite, got " +
        std::to_string(schedule.min_temperature));
  }
  if (!std::isfinite(schedule.initial_temperature)) {
    throw std::invalid_argument(
        "annealing initial_temperature must be finite");
  }
}

PlacementOutcome anneal_from(const Placement& initial,
                             const PlacerContext& context) {
  check_schedule(context.annealing);
  const auto start_time = std::chrono::steady_clock::now();

  CostEvaluator evaluator(context.weights, context.fti_options);
  evaluator.set_defects(context.defects);
  evaluator.set_route_links(context.route_links);
  Rng rng(context.seed);

  PlacementOutcome outcome;
  outcome.placement =
      anneal_delta_engine(initial, evaluator, context, rng, &outcome.stats);
  outcome.cost = evaluator.evaluate(outcome.placement);
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  return outcome;
}

}  // namespace dmfb
