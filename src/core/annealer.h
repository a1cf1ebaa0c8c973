// annealer.h — the simulated-annealing engine (Fig. 3 of the paper).
//
// Implements exactly the paper's loop: geometric cooling
// T_new = alpha * T_old, an inner loop of N = Na * Nm iterations per
// temperature, Metropolis acceptance (accept when dC < 0 or
// r < exp(-dC / T)), and a stopping criterion tied to the controlling
// window reaching its minimum span (expressed as a minimum temperature).
// The state lives behind the problem's callbacks and is mutated in place
// (sa_placer.cpp drives an IncrementalPlacementState through it); the
// copying reference loop it is pinned against lives in tests/oracles/.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "util/rng.h"

namespace dmfb {

/// Annealing parameters; defaults are the paper's (§4d).
struct AnnealingSchedule {
  double initial_temperature = 10000.0;  ///< T0, "almost every move accepted"
  double cooling_rate = 0.9;             ///< alpha in T_new = alpha * T_old
  int iterations_per_module = 400;       ///< Na in N = Na * Nm
  double min_temperature = 0.05;         ///< stop when T falls below this
};

/// Counters for reporting and the ablation benches.
struct AnnealingStats {
  /// Move-kind telemetry slots, indexed by static_cast<int>(MoveKind)
  /// (displace, displace-rotate, swap, swap-rotate).
  static constexpr int kMoveKindSlots = 4;

  long long proposals = 0;
  long long accepted = 0;
  long long uphill_accepted = 0;
  /// Proposal and acceptance tallies per generation move kind, so bench
  /// JSON can attribute where proposal time goes. The placer fills both;
  /// the copying oracle (tests/oracles/) records proposals only (its
  /// accept decision happens behind the type-erased state).
  long long proposals_by_kind[kMoveKindSlots] = {0, 0, 0, 0};
  long long accepted_by_kind[kMoveKindSlots] = {0, 0, 0, 0};
  int temperature_steps = 0;
  double final_temperature = 0.0;
  double best_cost = std::numeric_limits<double>::infinity();
  /// Wall time of the annealing loop itself (excludes the caller's
  /// initial-placement construction) and the throughput it implies —
  /// bench_perf_sa records these for the engine and its copying oracle.
  double wall_seconds = 0.0;
  double proposals_per_second = 0.0;
  /// Wall time (from the loop's start) at which `best_cost` was last
  /// improved ("time to target cost"). 0 when the initial state was
  /// never improved on.
  double seconds_to_best = 0.0;
};

namespace detail {

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

inline void finish_stats(AnnealingStats& stats,
                         std::chrono::steady_clock::time_point start) {
  stats.wall_seconds = detail::seconds_since(start);
  stats.proposals_per_second =
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.proposals) / stats.wall_seconds
          : 0.0;
}

}  // namespace detail

/// The annealing loop over an in-place state, mutated by
/// `propose_delta` and then either kept (`commit`) or rolled back
/// (`revert`); no per-proposal state copy ever happens. Given a bit-exact
/// delta evaluator (IncrementalPlacementState) and the same seed, the
/// accept/reject trajectory, stats and best state are identical to the
/// copying reference loop's (tests/oracles/copy_annealer.h). Returns the
/// best recordable cost seen (+infinity if none was; the caller then
/// falls back to the final current state, as the copying loop does).
///
/// `Problem` is any type with these five members — sa_placer.cpp passes
/// a struct of concrete lambdas so the callbacks inline into the loop:
///   double propose_delta(double temperature_fraction, Rng&)
///       applies one random move in place and returns the cost delta;
///   double commit()  keeps it and returns the new absolute cost
///       (recomputed from tallies, so no drift accumulates);
///   void revert()    rolls it back;
///   bool recordable() may the committed state be recorded as the answer?
///   void record_best(double cost)  the committed state is the new best:
///       snapshot it (one copy per improvement, not one per proposal).
template <typename Problem>
double anneal_delta(double initial_cost, const Problem& problem,
                    const AnnealingSchedule& schedule, int module_count,
                    Rng& rng, AnnealingStats* stats_out = nullptr) {
  const auto start_time = std::chrono::steady_clock::now();
  AnnealingStats stats;

  double current_cost = initial_cost;
  bool have_best = problem.recordable();
  double best_cost = have_best ? current_cost
                               : std::numeric_limits<double>::infinity();
  if (have_best) problem.record_best(best_cost);

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
      const double delta = problem.propose_delta(fraction, rng);
      ++stats.proposals;
      bool accept = delta < 0.0;
      if (!accept && temperature > 0.0) {
        // The Metropolis draw always happens (stream compatibility with
        // the copying loop), but exp() is skipped where its value is known: a
        // zero delta always accepts (r < exp(0) = 1 for r in [0, 1)),
        // and below -746 exp() is exactly 0.0 (the subnormal floor is at
        // ~-745.13; cutting higher would drop the copying loop's accept
        // on an exactly-zero draw against a subnormal exp value).
        const double r = rng.next_double();
        if (delta == 0.0) {
          accept = true;
        } else {
          const double exponent = -delta / temperature;
          accept = exponent > -746.0 && r < std::exp(exponent);
        }
        if (accept) ++stats.uphill_accepted;
      }
      if (accept) {
        current_cost = problem.commit();
        ++stats.accepted;
        if (current_cost < best_cost && problem.recordable()) {
          best_cost = current_cost;
          have_best = true;
          problem.record_best(best_cost);
          stats.seconds_to_best = detail::seconds_since(start_time);
        }
      } else {
        problem.revert();
      }
    }
    temperature *= schedule.cooling_rate;
    ++stats.temperature_steps;
  }

  stats.final_temperature = temperature;
  stats.best_cost = best_cost;
  detail::finish_stats(stats, start_time);
  if (stats_out) *stats_out = stats;
  return have_best ? best_cost : std::numeric_limits<double>::infinity();
}

}  // namespace dmfb
