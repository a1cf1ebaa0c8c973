// Tests for the simulated-annealing loop (core/annealer.h's in-place
// anneal_delta) and its copying oracle (tests/oracles/copy_annealer.h),
// exercised on simple numeric problems with known optima.
#include "core/annealer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "oracles/copy_annealer.h"

namespace dmfb {
namespace {

using oracle::anneal;
using oracle::AnnealingProblem;

/// 1-D quadratic: minimum at x = 17.
AnnealingProblem<int> quadratic_problem() {
  AnnealingProblem<int> problem;
  problem.cost = [](const int& x) {
    const double d = x - 17.0;
    return d * d;
  };
  problem.neighbor = [](const int& x, double fraction, Rng& rng) {
    const int span = std::max(1, static_cast<int>(100 * fraction));
    return x + rng.next_int(-span, span);
  };
  return problem;
}

TEST(AnnealerTest, FindsQuadraticMinimum) {
  Rng rng(1);
  AnnealingSchedule schedule;
  schedule.initial_temperature = 1000.0;
  schedule.min_temperature = 0.01;
  AnnealingStats stats;
  const int best =
      anneal(1000, quadratic_problem(), schedule, 1, rng, &stats);
  EXPECT_EQ(best, 17);
  EXPECT_DOUBLE_EQ(stats.best_cost, 0.0);
}

TEST(AnnealerTest, DeterministicForSeed) {
  AnnealingSchedule schedule;
  schedule.initial_temperature = 100.0;
  schedule.iterations_per_module = 50;
  Rng a(7);
  Rng b(7);
  EXPECT_EQ(anneal(500, quadratic_problem(), schedule, 2, a),
            anneal(500, quadratic_problem(), schedule, 2, b));
}

TEST(AnnealerTest, StatsAreConsistent) {
  Rng rng(3);
  AnnealingSchedule schedule;
  schedule.initial_temperature = 100.0;
  schedule.cooling_rate = 0.5;
  schedule.iterations_per_module = 10;
  schedule.min_temperature = 1.0;
  AnnealingStats stats;
  anneal(50, quadratic_problem(), schedule, 3, rng, &stats);
  // Temperatures: 100, 50, 25, ..., > 1 — ceil(log2(100)) = 7 steps.
  EXPECT_EQ(stats.temperature_steps, 7);
  EXPECT_EQ(stats.proposals, 7LL * 10 * 3);
  EXPECT_LE(stats.accepted, stats.proposals);
  EXPECT_LE(stats.uphill_accepted, stats.accepted);
  EXPECT_LE(stats.final_temperature, 1.0);
}

TEST(AnnealerTest, HillClimbingHappensAtHighTemperature) {
  Rng rng(11);
  AnnealingSchedule schedule;
  schedule.initial_temperature = 1e6;  // accept nearly everything
  schedule.cooling_rate = 0.5;
  schedule.iterations_per_module = 100;
  schedule.min_temperature = 1e5;
  AnnealingStats stats;
  anneal(0, quadratic_problem(), schedule, 1, rng, &stats);
  EXPECT_GT(stats.uphill_accepted, 0);
}

TEST(AnnealerTest, ZeroTemperatureIsGreedy) {
  // With min_temperature close to T0 and T0 tiny, only downhill moves are
  // effectively accepted: from a start above the optimum the result can
  // never be worse than the start.
  Rng rng(13);
  AnnealingSchedule schedule;
  schedule.initial_temperature = 1e-9;
  schedule.cooling_rate = 0.5;
  schedule.iterations_per_module = 200;
  schedule.min_temperature = 1e-10;
  const auto problem = quadratic_problem();
  const int start = 400;
  const int best = anneal(start, problem, schedule, 1, rng);
  EXPECT_LE(problem.cost(best), problem.cost(start));
}

TEST(AnnealerTest, RecordablePredicateFiltersResult) {
  // Only even states may be recorded; the returned best must be even.
  AnnealingProblem<int> problem = quadratic_problem();
  problem.recordable = [](const int& x) { return x % 2 == 0; };
  Rng rng(17);
  AnnealingSchedule schedule;
  schedule.initial_temperature = 1000.0;
  schedule.min_temperature = 0.01;
  const int best = anneal(1000, problem, schedule, 1, rng);
  EXPECT_EQ(best % 2, 0);
  // 16 or 18 are the best even states.
  EXPECT_NEAR(best, 17, 1);
}

TEST(AnnealerTest, NoRecordableStateFallsBackToCurrent) {
  AnnealingProblem<int> problem = quadratic_problem();
  problem.recordable = [](const int&) { return false; };
  Rng rng(19);
  AnnealingSchedule schedule;
  schedule.initial_temperature = 10.0;
  schedule.iterations_per_module = 5;
  schedule.min_temperature = 5.0;
  // Must not crash; returns whatever state annealing ended on.
  const int result = anneal(42, problem, schedule, 1, rng);
  (void)result;
  SUCCEED();
}

/// Minimal in-place state for anneal_delta: an integer walker with
/// propose/commit/revert semantics over the quadratic objective, drawing
/// its moves exactly like quadratic_problem()'s neighbour.
struct InPlaceQuadratic {
  int current = 1000;
  int pending = 1000;

  static double cost_of(int x) {
    const double d = x - 17.0;
    return d * d;
  }

  struct Problem {
    InPlaceQuadratic* state;

    double propose_delta(double fraction, Rng& rng) const {
      const int span = std::max(1, static_cast<int>(100 * fraction));
      state->pending = state->current + rng.next_int(-span, span);
      return cost_of(state->pending) - cost_of(state->current);
    }
    double commit() const {
      state->current = state->pending;
      return cost_of(state->current);
    }
    void revert() const {}
    bool recordable() const { return true; }
    void record_best(double) const {}
  };

  Problem problem() { return Problem{this}; }
};

TEST(AnnealerTest, DeltaFindsQuadraticMinimum) {
  InPlaceQuadratic state;
  Rng rng(1);
  AnnealingSchedule schedule;
  schedule.initial_temperature = 1000.0;
  schedule.min_temperature = 0.01;
  AnnealingStats stats;
  const double best =
      anneal_delta(InPlaceQuadratic::cost_of(state.current), state.problem(),
                   schedule, 1, rng, &stats);
  EXPECT_DOUBLE_EQ(best, 0.0);
  EXPECT_DOUBLE_EQ(stats.best_cost, 0.0);
}

TEST(AnnealerTest, DeltaDeterministicForSeed) {
  AnnealingSchedule schedule;
  schedule.initial_temperature = 100.0;
  schedule.iterations_per_module = 50;
  InPlaceQuadratic a;
  InPlaceQuadratic b;
  Rng rng_a(7);
  Rng rng_b(7);
  EXPECT_EQ(anneal_delta(InPlaceQuadratic::cost_of(a.current), a.problem(),
                         schedule, 2, rng_a),
            anneal_delta(InPlaceQuadratic::cost_of(b.current), b.problem(),
                         schedule, 2, rng_b));
  EXPECT_EQ(a.current, b.current);
}

TEST(AnnealerTest, DeltaStatsAreConsistent) {
  InPlaceQuadratic state;
  Rng rng(3);
  AnnealingSchedule schedule;
  schedule.initial_temperature = 100.0;
  schedule.cooling_rate = 0.5;
  schedule.iterations_per_module = 10;
  schedule.min_temperature = 1.0;
  AnnealingStats stats;
  anneal_delta(InPlaceQuadratic::cost_of(state.current), state.problem(),
               schedule, 3, rng, &stats);
  // Temperatures: 100, 50, 25, ..., > 1 — ceil(log2(100)) = 7 steps.
  EXPECT_EQ(stats.temperature_steps, 7);
  EXPECT_EQ(stats.proposals, 7LL * 10 * 3);
  EXPECT_LE(stats.accepted, stats.proposals);
  EXPECT_LE(stats.uphill_accepted, stats.accepted);
  EXPECT_GT(stats.accepted, 0);
  EXPECT_LE(stats.final_temperature, 1.0);
}

TEST(AnnealerTest, DeltaMatchesCopyingLoopSeedForSeed) {
  // Same moves, same Metropolis draws, same acceptance rule: the in-place
  // loop and the copying oracle walk the identical trajectory.
  AnnealingSchedule schedule;
  schedule.initial_temperature = 1000.0;
  schedule.cooling_rate = 0.8;
  schedule.iterations_per_module = 40;
  schedule.min_temperature = 0.05;
  InPlaceQuadratic state;
  Rng rng_delta(29);
  Rng rng_copy(29);
  AnnealingStats delta_stats;
  AnnealingStats copy_stats;
  const double best_delta =
      anneal_delta(InPlaceQuadratic::cost_of(state.current), state.problem(),
                   schedule, 2, rng_delta, &delta_stats);
  const int best_copy =
      anneal(1000, quadratic_problem(), schedule, 2, rng_copy, &copy_stats);
  EXPECT_EQ(best_delta, InPlaceQuadratic::cost_of(best_copy));
  EXPECT_EQ(delta_stats.proposals, copy_stats.proposals);
  EXPECT_EQ(delta_stats.accepted, copy_stats.accepted);
  EXPECT_EQ(delta_stats.uphill_accepted, copy_stats.uphill_accepted);
  EXPECT_EQ(delta_stats.temperature_steps, copy_stats.temperature_steps);
  EXPECT_EQ(rng_delta.next(), rng_copy.next());  // identical consumption
}

TEST(AnnealerTest, PaperDefaultsMatchSection4d) {
  const AnnealingSchedule schedule;
  EXPECT_DOUBLE_EQ(schedule.initial_temperature, 10000.0);
  EXPECT_DOUBLE_EQ(schedule.cooling_rate, 0.9);
  EXPECT_EQ(schedule.iterations_per_module, 400);
}

}  // namespace
}  // namespace dmfb
