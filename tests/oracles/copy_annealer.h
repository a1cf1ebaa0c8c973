// copy_annealer.h — the copying simulated-annealing loop, kept as the
// test oracle of the production delta engine (core/annealer.h +
// core/incremental_cost.h).
//
// Every proposal copies the whole state and re-evaluates its cost from
// scratch: slow, but obviously the paper's loop (Fig. 3). It shares no
// code with the production loop — only the schedule and stats types —
// and prices FTI with the summed-area-table oracle
// (oracles/reference_fti.h), not the library's bitboard kernel, so a
// seed-for-seed match between the two (test_incremental_cost,
// test_closed_loop, bench_perf_sa) checks the delta evaluator, its FTI
// kernel and the in-place loop together. Built into the dmfb_oracles
// library, linked by the tests, bench_perf_sa, bench_perf_sim and
// bench_perf_mer only; the dmfb library never sees it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>

#include "assay/schedule.h"
#include "core/annealer.h"
#include "core/cost.h"
#include "core/placement.h"
#include "core/placer.h"
#include "util/rng.h"

namespace dmfb::oracle {

/// Problem plumbing: cost of a state, neighbour generation (given the
/// current temperature as a fraction of T0, for the controlling window),
/// and which states may be recorded as "the answer" (e.g. only feasible
/// placements).
template <typename State>
struct AnnealingProblem {
  std::function<double(const State&)> cost;
  std::function<State(const State&, double /*temperature_fraction*/, Rng&)>
      neighbor;
  std::function<bool(const State&)> recordable;  ///< nullable -> always true
};

/// Runs the annealing loop and returns the best recordable state seen
/// (falling back to the final state if no recordable state is ever
/// visited — callers that start from a feasible state always get one).
/// Same schedule, acceptance rule, random-stream consumption and stats
/// as dmfb::anneal_delta.
template <typename State>
State anneal(State initial, const AnnealingProblem<State>& problem,
             const AnnealingSchedule& schedule, int module_count, Rng& rng,
             AnnealingStats* stats_out = nullptr) {
  using Clock = std::chrono::steady_clock;
  const auto start_time = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start_time).count();
  };
  AnnealingStats stats;
  const auto recordable = [&](const State& s) {
    return !problem.recordable || problem.recordable(s);
  };

  State current = std::move(initial);
  double current_cost = problem.cost(current);

  State best = current;
  bool have_best = recordable(current);
  double best_cost = have_best ? current_cost
                               : std::numeric_limits<double>::infinity();

  const long long inner_iterations =
      static_cast<long long>(schedule.iterations_per_module) *
      std::max(1, module_count);

  double temperature = schedule.initial_temperature;
  while (temperature > schedule.min_temperature) {
    const double fraction =
        schedule.initial_temperature > 0.0
            ? temperature / schedule.initial_temperature
            : 0.0;
    for (long long i = 0; i < inner_iterations; ++i) {
      State candidate = problem.neighbor(current, fraction, rng);
      const double candidate_cost = problem.cost(candidate);
      const double delta = candidate_cost - current_cost;
      ++stats.proposals;
      bool accept = delta < 0.0;
      if (!accept && temperature > 0.0) {
        accept = rng.next_double() < std::exp(-delta / temperature);
        if (accept) ++stats.uphill_accepted;
      }
      if (accept) {
        current = std::move(candidate);
        current_cost = candidate_cost;
        ++stats.accepted;
        if (current_cost < best_cost && recordable(current)) {
          best = current;
          best_cost = current_cost;
          have_best = true;
          stats.seconds_to_best = elapsed();
        }
      }
    }
    temperature *= schedule.cooling_rate;
    ++stats.temperature_steps;
  }

  stats.final_temperature = temperature;
  stats.best_cost = best_cost;
  stats.wall_seconds = elapsed();
  stats.proposals_per_second =
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.proposals) / stats.wall_seconds
          : 0.0;
  if (stats_out) *stats_out = stats;
  return have_best ? best : current;
}

/// CostEvaluator::evaluate with the FTI term priced by the
/// summed-area-table oracle: same terms, same arithmetic order, so equal
/// coverage counts give bit-identical values. `evaluator` supplies the
/// weights, FTI options, defects and route links.
CostBreakdown evaluate_cost(const CostEvaluator& evaluator,
                            const Placement& placement);

/// The copying placement engine: anneal() over whole Placement copies,
/// each proposal made by apply_random_move and priced by evaluate_cost.
/// The oracle counterpart of dmfb::anneal_from — same context, same
/// seed, and (by the delta engine's contract) the same placement, cost
/// and stats.
PlacementOutcome anneal_copy(const Placement& initial,
                             const PlacerContext& context);

/// Greedy constructive initial (the "greedy" placer) then anneal_copy: the
/// oracle counterpart of the "sa" placer without a warm start.
PlacementOutcome place_copy(const Schedule& schedule,
                            const PlacerContext& context);

}  // namespace dmfb::oracle
