// Cross-checks for the delta-cost engine (core/incremental_cost.h): the
// incremental state must track a from-scratch evaluation exactly — after
// every propose, commit and revert, for beta = 0 and beta > 0, with and
// without defect maps — and the delta annealing engine must replay the
// copying oracle's (tests/oracles/) trajectory seed for seed. Every FTI
// reference here is an oracle (oracles/reference_fti.h), never the
// library's evaluate_fti: that is a full build of the same bitboard
// kernel the incremental state patches.
#include "core/incremental_cost.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/fti.h"
#include "core/moves.h"
#include "core/placer.h"
#include "core/sa_placer.h"
#include "oracles/copy_annealer.h"
#include "oracles/reference_fti.h"
#include "util/rng.h"

namespace dmfb {
namespace {

/// A schedule whose module intervals produce a mixed conflict structure:
/// some pairs overlap in time (and so may conflict spatially), some are
/// disjoint and reuse cells.
Schedule mixed_schedule(int modules, Rng& rng) {
  Schedule s;
  for (int i = 0; i < modules; ++i) {
    const int w = 1 + static_cast<int>(rng.next_below(4));
    const int h = 1 + static_cast<int>(rng.next_below(4));
    const double start = static_cast<double>(rng.next_below(30));
    const double duration = 5.0 + static_cast<double>(rng.next_below(20));
    const std::string id = std::to_string(i);
    const ModuleSpec spec{"m" + id, ModuleKind::kMixer, w, h, duration};
    s.add(ScheduledModule{i, "M" + id, spec, start, start + duration, -1, -1});
  }
  return s;
}

/// Where a check's initial placement lives: the canvas, the FTI options
/// the evaluator prices with, and anchors pinned after the random
/// scatter — across a bitboard word boundary (x = 63/64, 127/128), or
/// partly outside the canvas so the shared domain grows past it.
struct Layout {
  int width = 0;
  int height = 0;
  FtiOptions fti;
  std::vector<std::pair<int, Point>> pinned;
};

/// A placement with every anchor randomized (in canvas, any orientation),
/// then the layout's pins applied.
Placement random_placement(const Schedule& schedule, const Layout& layout,
                           Rng& rng) {
  Placement p(schedule, layout.width, layout.height);
  MoveOptions scatter;
  scatter.single_move_probability = 1.0;
  scatter.rotate_probability = 0.5;
  scatter.use_controlling_window = false;
  for (int i = 0; i < 3 * p.module_count(); ++i) {
    apply_random_move(p, 1.0, scatter, rng);
  }
  for (const auto& [index, anchor] : layout.pinned) p.set_anchor(index, anchor);
  return p;
}

/// The 16x16 canvas of the cross-checks and the 12x12 one of the audits.
const Layout kCanvas16{.width = 16, .height = 16, .fti = {}, .pinned = {}};
const Layout kCanvas12{.width = 12, .height = 12, .fti = {}, .pinned = {}};
/// Rows of two and three bitboard words, with modules straddling each
/// word boundary (their widths are at least 2 for the seeds below).
const Layout kTwoWords{.width = 70, .height = 12, .fti = {},
                       .pinned = {{0, {62, 1}}, {1, {63, 6}}}};
const Layout kThreeWords{.width = 130, .height = 10, .fti = {},
                         .pinned = {{0, {62, 0}}, {1, {126, 4}},
                                    {2, {127, 1}}}};
/// Relocation without transposition.
const Layout kNoRotation{.width = 16, .height = 16,
                         .fti = {.allow_rotation = false}, .pinned = {}};
/// One module hangs off the left edge, one off the top, so the domain
/// starts left of the canvas and its rows span two words.
const Layout kOutsideCanvas{.width = 66, .height = 10, .fti = {},
                            .pinned = {{0, {-2, 3}}, {1, {40, 8}}}};

/// The tracked breakdown against the copying oracle's from-scratch
/// pricing (CostEvaluator::evaluate's terms, FTI from the
/// summed-area-table oracle).
void expect_matches_evaluator(const IncrementalPlacementState& state,
                              const CostEvaluator& evaluator) {
  const CostBreakdown fresh =
      oracle::evaluate_cost(evaluator, state.placement());
  const CostBreakdown tracked = state.breakdown();
  EXPECT_EQ(tracked.area_cells, fresh.area_cells);
  EXPECT_EQ(tracked.overlap_cells, fresh.overlap_cells);
  EXPECT_EQ(tracked.defect_cells, fresh.defect_cells);
  EXPECT_DOUBLE_EQ(tracked.fti, fresh.fti);
  EXPECT_EQ(tracked.route_pressure, fresh.route_pressure);
  EXPECT_DOUBLE_EQ(tracked.value, fresh.value);
  EXPECT_DOUBLE_EQ(state.cost(), fresh.value);
  EXPECT_EQ(state.feasible(), state.placement().feasible());
  EXPECT_EQ(state.defect_cells(), evaluator.defect_usage(state.placement()));
}

/// Random move sequence with random commit/revert decisions; the tracked
/// cost must equal a fresh evaluation after every step.
void run_cross_check(double beta, std::vector<Point> defects,
                     std::uint64_t seed, const Layout& layout = kCanvas16) {
  Rng rng(seed);
  const Schedule schedule = mixed_schedule(8, rng);
  const Placement initial = random_placement(schedule, layout, rng);

  CostWeights weights;
  weights.beta = beta;
  CostEvaluator evaluator(weights, layout.fti);
  evaluator.set_defects(std::move(defects));

  IncrementalPlacementState state(initial, evaluator);
  expect_matches_evaluator(state, evaluator);

  MoveOptions moves;  // defaults: displacements, swaps and rotations
  for (int step = 0; step < 200; ++step) {
    const double fraction = 1.0 - static_cast<double>(step) / 200.0;
    const PlacementMove move =
        generate_random_move(state.placement(), fraction, moves, rng);
    const double before = state.cost();
    const double delta = state.propose(move);
    ASSERT_TRUE(state.has_pending());
    // Mid-proposal, cost() keeps reporting the committed state.
    EXPECT_DOUBLE_EQ(state.cost(), before);

    if (rng.next_bool(0.5)) {
      EXPECT_DOUBLE_EQ(state.commit(), before + delta);
    } else {
      state.revert();
      EXPECT_DOUBLE_EQ(state.cost(), before);
    }
    ASSERT_FALSE(state.has_pending());
    expect_matches_evaluator(state, evaluator);
  }
}

TEST(IncrementalCostTest, TracksEvaluatorAreaOnly) {
  run_cross_check(/*beta=*/0.0, {}, /*seed=*/11);
  run_cross_check(/*beta=*/0.0, {}, /*seed=*/12);
}

TEST(IncrementalCostTest, TracksEvaluatorWithFti) {
  run_cross_check(/*beta=*/30.0, {}, /*seed=*/21);
  run_cross_check(/*beta=*/30.0, {}, /*seed=*/22);
}

TEST(IncrementalCostTest, TracksEvaluatorWithDefects) {
  const std::vector<Point> defects{{3, 3}, {7, 2}, {12, 12}, {3, 3}};
  run_cross_check(/*beta=*/0.0, defects, /*seed=*/31);
  run_cross_check(/*beta=*/30.0, defects, /*seed=*/32);
}

TEST(IncrementalCostTest, TracksEvaluatorOnWideCanvases) {
  run_cross_check(/*beta=*/30.0, {}, /*seed=*/23, kTwoWords);
  run_cross_check(/*beta=*/30.0, {}, /*seed=*/24, kThreeWords);
}

TEST(IncrementalCostTest, TracksEvaluatorWithoutRotation) {
  run_cross_check(/*beta=*/30.0, {}, /*seed=*/25, kNoRotation);
}

TEST(IncrementalCostTest, TracksEvaluatorWithModuleOutsideCanvas) {
  run_cross_check(/*beta=*/30.0, {}, /*seed=*/26, kOutsideCanvas);
}

void expect_identical_outcomes(const PlacementOutcome& copy,
                               const PlacementOutcome& delta) {
  EXPECT_EQ(copy.stats.proposals, delta.stats.proposals);
  EXPECT_EQ(copy.stats.accepted, delta.stats.accepted);
  EXPECT_EQ(copy.stats.uphill_accepted, delta.stats.uphill_accepted);
  for (int k = 0; k < AnnealingStats::kMoveKindSlots; ++k) {
    // Identical trajectories draw identical move kinds.
    EXPECT_EQ(copy.stats.proposals_by_kind[k],
              delta.stats.proposals_by_kind[k])
        << "kind " << k;
  }
  EXPECT_DOUBLE_EQ(copy.stats.best_cost, delta.stats.best_cost);
  EXPECT_DOUBLE_EQ(copy.cost.value, delta.cost.value);
  ASSERT_EQ(copy.placement.module_count(), delta.placement.module_count());
  for (int i = 0; i < copy.placement.module_count(); ++i) {
    EXPECT_EQ(copy.placement.module(i).anchor, delta.placement.module(i).anchor)
        << "module " << i;
    EXPECT_EQ(copy.placement.module(i).rotated,
              delta.placement.module(i).rotated)
        << "module " << i;
  }
}

/// Seed-for-seed equivalence of the copying oracle and the delta engine
/// over a shortened (but real) annealing run.
void run_engine_equivalence(double beta, std::vector<Point> defects,
                            std::uint64_t seed,
                            const Layout& layout = kCanvas16) {
  Rng rng(seed);
  const Schedule schedule = mixed_schedule(7, rng);
  const Placement initial = random_placement(schedule, layout, rng);

  PlacerContext context;
  context.canvas_width = layout.width;
  context.canvas_height = layout.height;
  context.fti_options = layout.fti;
  context.annealing.initial_temperature = 200.0;
  context.annealing.cooling_rate = 0.8;
  context.annealing.iterations_per_module = 30;
  context.annealing.min_temperature = 0.5;
  context.weights.beta = beta;
  context.defects = std::move(defects);
  context.seed = seed;

  const PlacementOutcome copy = oracle::anneal_copy(initial, context);
  const PlacementOutcome delta = anneal_from(initial, context);
  expect_identical_outcomes(copy, delta);
}

TEST(IncrementalCostTest, EnginesAgreeSeedForSeedAreaOnly) {
  run_engine_equivalence(/*beta=*/0.0, {}, /*seed=*/101);
  run_engine_equivalence(/*beta=*/0.0, {}, /*seed=*/102);
}

TEST(IncrementalCostTest, EnginesAgreeSeedForSeedWithFti) {
  run_engine_equivalence(/*beta=*/30.0, {}, /*seed=*/201);
}

TEST(IncrementalCostTest, EnginesAgreeSeedForSeedOnWideCanvas) {
  run_engine_equivalence(/*beta=*/30.0, {}, /*seed=*/202, kTwoWords);
}

TEST(IncrementalCostTest, EnginesAgreeSeedForSeedWithDefects) {
  run_engine_equivalence(/*beta=*/0.0, {{2, 2}, {9, 9}}, /*seed=*/301);
}

TEST(IncrementalCostTest, GenerateThenApplyEqualsApplyRandomMove) {
  // The engine and its oracle share one random stream contract:
  // generating a move and applying it must consume and produce exactly
  // what the in-place mutation does.
  Rng seed_rng(7);
  const Schedule schedule = mixed_schedule(6, seed_rng);
  Placement a = random_placement(schedule, kCanvas16, seed_rng);
  Placement b = a;

  MoveOptions moves;
  Rng rng_a(99);
  Rng rng_b(99);
  for (int step = 0; step < 100; ++step) {
    const double fraction = 1.0 - static_cast<double>(step) / 100.0;
    const MoveKind kind_a = apply_random_move(a, fraction, moves, rng_a);
    const PlacementMove move =
        generate_random_move(b, fraction, moves, rng_b);
    apply_move(b, move);
    EXPECT_EQ(kind_a, move.kind);
    for (int i = 0; i < a.module_count(); ++i) {
      ASSERT_EQ(a.module(i).anchor, b.module(i).anchor) << "module " << i;
      ASSERT_EQ(a.module(i).rotated, b.module(i).rotated) << "module " << i;
    }
  }
  EXPECT_EQ(rng_a.next(), rng_b.next());  // identical stream consumption
}

/// The coverage-grid audit (the per-cell counterpart of
/// run_cross_check): `steps` random moves with random commit/revert
/// decisions, pinning the incremental evaluator's per-cell coverage
/// state against BOTH oracles after every operation — the
/// summed-area-table evaluator's mask and the definition-faithful
/// `is_cell_covered_reference` — including mid-proposal, where the
/// eager state reflects the proposed placement.
void run_coverage_audit(double beta, double gamma, std::uint64_t seed,
                        const Layout& layout = kCanvas12,
                        int steps = 320) {
  Rng rng(seed);
  const Schedule schedule = mixed_schedule(6, rng);
  const Placement initial = random_placement(schedule, layout, rng);

  CostWeights weights;
  weights.beta = beta;
  weights.gamma = gamma;
  CostEvaluator evaluator(weights, layout.fti);
  if (gamma != 0.0) {
    std::vector<RouteLink> links;
    for (int i = 0; i < initial.module_count(); ++i) {
      links.push_back(RouteLink{i > 0 ? i - 1 : -1, i, 1 + i % 3});
    }
    evaluator.set_route_links(std::move(links));
  }

  IncrementalPlacementState state(initial, evaluator);

  const auto audit_coverage = [&](const char* when, int step) {
    const FtiIncrementalEvaluator* fti = state.fti_evaluator();
    if (fti == nullptr) return;  // beta == 0: the term is never engaged
    const Rect region = state.placement().bounding_box();
    ASSERT_EQ(fti->region(), region) << when << " step " << step;
    const FtiResult reference = oracle::evaluate_fti_reference(
        state.placement(), fti->options(), region);
    EXPECT_EQ(fti->covered_cells(), reference.covered_cells)
        << when << " step " << step;
    // Every region cell plus a one-cell ring outside (uncovered by
    // definition on both sides).
    for (int y = region.y - 1; y <= region.top(); ++y) {
      for (int x = region.x - 1; x <= region.right(); ++x) {
        const Point cell{x, y};
        const bool incremental = fti->is_cell_covered(cell);
        const bool in_region = region.contains(cell);
        const bool summed = in_region && reference.covered.at(
                                             x - region.x, y - region.y) != 0;
        ASSERT_EQ(incremental, summed)
            << when << " step " << step << " cell (" << x << "," << y << ")";
        const bool definition = oracle::is_cell_covered_reference(
            state.placement(), cell, fti->options(), region);
        ASSERT_EQ(incremental, definition)
            << when << " step " << step << " cell (" << x << "," << y << ")";
      }
    }
  };

  MoveOptions moves;  // defaults: displacements, swaps and rotations
  audit_coverage("initial", -1);
  for (int step = 0; step < steps; ++step) {
    const double fraction =
        1.0 - static_cast<double>(step) / static_cast<double>(steps);
    const PlacementMove move =
        generate_random_move(state.placement(), fraction, moves, rng);
    const double before = state.cost();
    const double delta = state.propose(move);
    ASSERT_TRUE(state.has_pending());
    audit_coverage("proposed", step);

    if (rng.next_bool(0.5)) {
      EXPECT_DOUBLE_EQ(state.commit(), before + delta);
    } else {
      state.revert();
      EXPECT_DOUBLE_EQ(state.cost(), before);
    }
    audit_coverage("resolved", step);
    expect_matches_evaluator(state, evaluator);
  }
}

TEST(IncrementalCostTest, CoverageAuditAreaOnly) {
  run_coverage_audit(/*beta=*/0.0, /*gamma=*/0.0, /*seed=*/401);
}

TEST(IncrementalCostTest, CoverageAuditWithFti) {
  run_coverage_audit(/*beta=*/30.0, /*gamma=*/0.0, /*seed=*/402);
}

TEST(IncrementalCostTest, CoverageAuditWithFtiAndRoutePressure) {
  run_coverage_audit(/*beta=*/30.0, /*gamma=*/0.05, /*seed=*/403);
}

TEST(IncrementalCostTest, CoverageAuditRoutePressureOnly) {
  run_coverage_audit(/*beta=*/0.0, /*gamma=*/0.05, /*seed=*/404);
}

// The wide audits take fewer steps: the definition-faithful reference
// enumerates maximal empty rectangles over the whole region per cell.
TEST(IncrementalCostTest, CoverageAuditOnWideCanvases) {
  run_coverage_audit(/*beta=*/30.0, /*gamma=*/0.0, /*seed=*/405, kTwoWords,
                     /*steps=*/120);
  run_coverage_audit(/*beta=*/30.0, /*gamma=*/0.0, /*seed=*/406, kThreeWords,
                     /*steps=*/120);
}

TEST(IncrementalCostTest, CoverageAuditWithoutRotation) {
  run_coverage_audit(/*beta=*/30.0, /*gamma=*/0.0, /*seed=*/407, kNoRotation);
}

TEST(IncrementalCostTest, CoverageAuditWithModuleOutsideCanvas) {
  run_coverage_audit(/*beta=*/30.0, /*gamma=*/0.0, /*seed=*/408,
                     kOutsideCanvas, /*steps=*/160);
}

/// A module boxed between two concurrent walls on a strip one footprint
/// tall: its only relocation anchors lie in the gap between the walls.
/// Proposals slide each wall edge a column at a time across the bitboard
/// word boundary at x = `boundary`, then jump the boxed module over it,
/// so its whole footprint is patched into the walls' bitboards straddling
/// two words. The incremental evaluator's per-cell coverage must match
/// the summed-area-table oracle after every update and every restore.
void run_word_boundary_sweep(int boundary, FtiOptions options) {
  Schedule schedule;
  const auto add = [&](int index, int functional_width) {
    const ModuleSpec spec{"m", ModuleKind::kMixer, functional_width, 3, 10.0};
    schedule.add(ScheduledModule{index, "M", spec, 0.0, 10.0, -1, -1});
  };
  add(0, 2);              // the boxed module: 4x5 footprint
  add(1, boundary - 10);  // left wall, (boundary - 8) wide
  add(2, 6);              // right wall, 8 wide
  const Rect region{0, 0, boundary + 16, 5};
  Placement placement(schedule, region.width, region.height);
  placement.set_anchor(0, {boundary - 8, 0});
  placement.set_anchor(1, {0, 0});
  placement.set_anchor(2, {boundary - 4, 0});

  FtiIncrementalEvaluator fti(options);
  FtiIncrementalEvaluator::Backup backup;
  const auto check = [&](const char* when, int step) {
    const FtiResult reference =
        oracle::evaluate_fti_reference(placement, options, region);
    EXPECT_EQ(fti.covered_cells(), reference.covered_cells)
        << when << " step " << step;
    for (int y = region.y; y < region.top(); ++y) {
      for (int x = region.x; x < region.right(); ++x) {
        ASSERT_EQ(fti.is_cell_covered({x, y}), reference.covered.at(x, y) != 0)
            << when << " step " << step << " cell (" << x << "," << y << ")";
      }
    }
  };
  fti.update(placement, region, nullptr, 0, backup);
  check("built", -1);

  std::vector<std::pair<int, int>> steps;  // (module, columns right)
  for (int i = 0; i < 12; ++i) steps.emplace_back(2, 1);  // gap end
  for (int i = 0; i < 12; ++i) steps.emplace_back(1, 1);  // gap start
  for (const int dx : {5, 1, 1, 1, -7}) steps.emplace_back(0, dx);
  for (std::size_t step = 0; step < steps.size(); ++step) {
    const auto [index, dx] = steps[step];
    const Point from = placement.module(index).anchor;
    const Point to{from.x + dx, from.y};
    const Rect footprint = placement.module(index).footprint();
    const FtiIncrementalEvaluator::MovedModule move{
        index, footprint,
        Rect{footprint.x + dx, footprint.y, footprint.width,
             footprint.height}};
    const int at = static_cast<int>(step);

    placement.set_anchor(index, to);
    fti.update(placement, region, &move, 1, backup);
    check("proposed", at);
    placement.set_anchor(index, from);
    fti.restore(backup);
    check("restored", at);
    placement.set_anchor(index, to);
    fti.update(placement, region, &move, 1, backup);
  }
  check("swept", static_cast<int>(steps.size()));
}

TEST(IncrementalCostTest, CoverageAcrossBitboardWordBoundaries) {
  for (const int boundary : {64, 128}) {
    for (const bool rotation : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "boundary " << boundary << " rotation " << rotation);
      run_word_boundary_sweep(boundary, FtiOptions{.allow_rotation = rotation});
    }
  }
}

TEST(IncrementalCostTest, EmptyPlacementProposalsAreNoOps) {
  const Schedule empty;
  Placement placement(empty, 8, 8);
  CostEvaluator evaluator(CostWeights{});
  IncrementalPlacementState state(placement, evaluator);
  Rng rng(1);
  const PlacementMove move =
      generate_random_move(state.placement(), 1.0, MoveOptions{}, rng);
  EXPECT_EQ(move.count, 0);
  EXPECT_DOUBLE_EQ(state.propose(move), 0.0);
  EXPECT_DOUBLE_EQ(state.commit(), 0.0);
  EXPECT_DOUBLE_EQ(state.cost(), 0.0);
}

}  // namespace
}  // namespace dmfb
