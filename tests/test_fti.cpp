// Tests for the Fault Tolerance Index (core/fti.h), including the pinning
// property: the library's bitboard kernel must agree cell by cell with
// both oracles in tests/oracles/reference_fti.h — the summed-area-table
// evaluator and the MER-based definition.
#include "core/fti.h"

#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/scheduler.h"
#include "core/greedy_placer.h"
#include "oracles/reference_fti.h"
#include "util/rng.h"

namespace dmfb {
namespace {

/// One 4x4 module alone in time.
Schedule single_module_schedule() {
  Schedule s;
  const ModuleSpec spec{"m", ModuleKind::kMixer, 2, 2, 10.0};
  s.add(ScheduledModule{0, "A", spec, 0.0, 10.0, -1, -1});
  return s;
}

TEST(FtiTest, TightArrayHasZeroFti) {
  // A 4x4 module on a 4x4 array: no spare cells, nothing is covered
  // inside the module, and there are no unused cells.
  Placement p(single_module_schedule(), 4, 4);
  p.set_anchor(0, {0, 0});
  const FtiResult r = evaluate_fti(p);
  EXPECT_EQ(r.array, (Rect{0, 0, 4, 4}));
  EXPECT_EQ(r.total_cells, 16);
  EXPECT_EQ(r.covered_cells, 0);
  EXPECT_DOUBLE_EQ(r.fti(), 0.0);
}

TEST(FtiTest, FullSpareRegionGivesFullCoverage) {
  // A 4x4 module on an 8x4 region: the module can always shift into the
  // free half, and the free half is unused, so FTI = 1.
  Placement p(single_module_schedule(), 8, 4);
  p.set_anchor(0, {0, 0});
  const FtiResult r = evaluate_fti(p, {}, Rect{0, 0, 8, 4});
  EXPECT_EQ(r.total_cells, 32);
  EXPECT_EQ(r.covered_cells, 32);
  EXPECT_DOUBLE_EQ(r.fti(), 1.0);
}

TEST(FtiTest, SpareTooSmallCoversOnlyShiftableCells) {
  // 4x4 module on a 6x4 region. The 2x4 spare strip alone cannot hold the
  // module, but removal frees the module's own cells: anchors x in
  // {0,1,2} are candidates. A fault in columns 0-1 is avoided by anchor
  // x=2; faults in columns 2-3 are inside every candidate. Covered:
  // module columns 0-1 (8 cells) + free columns 4-5 (8 cells).
  Placement p(single_module_schedule(), 6, 4);
  p.set_anchor(0, {0, 0});
  const FtiResult r = evaluate_fti(p, {}, Rect{0, 0, 6, 4});
  EXPECT_EQ(r.covered_cells, 16);
  EXPECT_DOUBLE_EQ(r.fti(), 16.0 / 24.0);
  for (int y = 0; y < 4; ++y) {
    EXPECT_EQ(r.covered.at(2, y), 0);
    EXPECT_EQ(r.covered.at(3, y), 0);
  }
}

TEST(FtiTest, RelocationMayReuseOwnCells) {
  // 4x4 module on a 5x4 region. Removing the module frees its cells; the
  // relocated module may reuse all of them except the faulty one. A 4x4
  // empty rect exists iff the faulty cell is in the leftmost column
  // (shift right) — for faults in columns 1..3 no 4x4 rect avoids them.
  Placement p(single_module_schedule(), 5, 4);
  p.set_anchor(0, {0, 0});
  const FtiResult r = evaluate_fti(p, {}, Rect{0, 0, 5, 4});
  // Covered: free column x=4 (4 cells) + module column x=0 (4 cells).
  EXPECT_EQ(r.covered_cells, 8);
  for (int y = 0; y < 4; ++y) {
    EXPECT_EQ(r.covered.at(0, y), 1) << y;
    EXPECT_EQ(r.covered.at(2, y), 0) << y;
    EXPECT_EQ(r.covered.at(4, y), 1) << y;
  }
}

TEST(FtiTest, RotationEnablesRelocation) {
  // A 3x6 module with a 6x3 spare region below: only the rotated
  // footprint fits.
  Schedule s;
  const ModuleSpec slim{"slim", ModuleKind::kMixer, 1, 4, 5.0};  // 3x6
  s.add(ScheduledModule{0, "A", slim, 0.0, 5.0, -1, -1});
  // Block the area right of the module with a second concurrent module
  // so only the 6x3 strip at the top remains.
  const ModuleSpec blocker{"blocker", ModuleKind::kMixer, 1, 4, 5.0};  // 3x6
  s.add(ScheduledModule{1, "B", blocker, 0.0, 5.0, -1, -1});

  Placement p(s, 6, 9);
  p.set_anchor(0, {0, 0});
  p.set_anchor(1, {3, 0});
  const Rect region{0, 0, 6, 9};

  FtiOptions with_rotation{.allow_rotation = true};
  FtiOptions without_rotation{.allow_rotation = false};
  const auto fti_rot = evaluate_fti(p, with_rotation, region);
  const auto fti_norot = evaluate_fti(p, without_rotation, region);
  // With rotation, A (and B) can always relocate into the 6x3 top strip,
  // so every cell is covered.
  EXPECT_GT(fti_rot.covered_cells, fti_norot.covered_cells);
  EXPECT_EQ(fti_rot.covered_cells, 54);
  // Without rotation a module can only shift vertically within its own
  // freed column: faults in rows 0..2 are avoidable (shift to rows 3..8),
  // faults in rows 3..5 are not. 9 covered cells per module + 18 free.
  EXPECT_EQ(fti_norot.covered_cells, 36);
}

TEST(FtiTest, FastEvaluatorMatchesReferenceOnPcr) {
  const auto assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const Placement p = place_greedy(schedule, 16, 16);
  const Rect region = p.bounding_box();
  const FtiResult fast = evaluate_fti(p, {}, region);
  long long reference_covered = 0;
  for (int y = region.y; y < region.top(); ++y) {
    for (int x = region.x; x < region.right(); ++x) {
      const bool ref =
          oracle::is_cell_covered_reference(p, Point{x, y}, {}, region);
      const bool fst =
          fast.covered.at(x - region.x, y - region.y) != 0;
      EXPECT_EQ(ref, fst) << "cell (" << x << "," << y << ")";
      if (ref) ++reference_covered;
    }
  }
  EXPECT_EQ(reference_covered, fast.covered_cells);
}

/// `evaluate_fti`, the summed-area-table oracle and the MER definition
/// over `region`, compared cell for cell.
void expect_kernel_matches_oracles(const Placement& p,
                                   const FtiOptions& options,
                                   const Rect& region) {
  const FtiResult kernel = evaluate_fti(p, options, region);
  const FtiResult summed = oracle::evaluate_fti_reference(p, options, region);
  EXPECT_EQ(kernel.array, region);
  EXPECT_EQ(kernel.total_cells, summed.total_cells);
  EXPECT_EQ(kernel.covered_cells, summed.covered_cells);
  ASSERT_EQ(kernel.covered.width(), summed.covered.width());
  ASSERT_EQ(kernel.covered.height(), summed.covered.height());
  long long definition_covered = 0;
  for (int y = region.y; y < region.top(); ++y) {
    for (int x = region.x; x < region.right(); ++x) {
      const bool definition =
          oracle::is_cell_covered_reference(p, Point{x, y}, options, region);
      if (definition) ++definition_covered;
      const Point local{x - region.x, y - region.y};
      EXPECT_EQ(kernel.covered.at(local) != 0, definition)
          << "kernel cell (" << x << "," << y << ")";
      EXPECT_EQ(summed.covered.at(local) != 0, definition)
          << "summed-area cell (" << x << "," << y << ")";
    }
  }
  if (!region.empty()) {
    EXPECT_EQ(kernel.covered_cells, definition_covered);
  }
}

class FtiRandomPinning : public ::testing::TestWithParam<int> {};

TEST_P(FtiRandomPinning, KernelEqualsBothOraclesOnRandomPlacements) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1237 + 3);
  const ModuleSpec shapes[] = {
      {"a", ModuleKind::kMixer, 2, 2, 10.0},
      {"b", ModuleKind::kMixer, 1, 4, 5.0},
      {"c", ModuleKind::kMixer, 2, 3, 6.0},
      {"d", ModuleKind::kStorage, 1, 1, 4.0},
  };
  for (int trial = 0; trial < 5; ++trial) {
    Schedule s;
    const int modules = 2 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < modules; ++i) {
      const auto& spec = shapes[rng.next_below(4)];
      const double start = static_cast<double>(rng.next_below(3)) * 5.0;
      s.add(ScheduledModule{i, "M" + std::to_string(i), spec, start,
                            start + 5.0, -1, -1});
    }
    const int canvas = 12;
    Placement p(s, canvas, canvas);
    // Random (possibly infeasible) anchors; FTI must still be well defined.
    for (int i = 0; i < p.module_count(); ++i) {
      const Rect fp = p.module(i).footprint();
      p.set_anchor(i, Point{static_cast<int>(
                                rng.next_below(canvas - fp.width + 1)),
                            static_cast<int>(
                                rng.next_below(canvas - fp.height + 1))});
    }
    // Odd trials hang module 0 off one canvas edge by 1..3 cells, so the
    // bounding box (and the kernel's domain) grows past the canvas.
    if (trial % 2 == 1) {
      const Rect fp = p.module(0).footprint();
      const int overhang = 1 + static_cast<int>(rng.next_below(3));
      Point anchor = p.module(0).anchor;
      switch (rng.next_below(4)) {
        case 0: anchor.x = -overhang; break;
        case 1: anchor.x = canvas - fp.width + overhang; break;
        case 2: anchor.y = -overhang; break;
        default: anchor.y = canvas - fp.height + overhang; break;
      }
      p.set_anchor(0, anchor);
    }
    const Rect box = p.bounding_box();
    const Rect regions[] = {
        box,
        Rect{-2, -3, canvas + 5, canvas + 4},  // past the canvas everywhere
        Rect{box.x + 1, box.y + 2, box.width - 3, box.height - 3},  // inside
        Rect{},
        Rect{box.x + 1, box.y, 0, box.height},  // zero width
    };
    for (const bool rotation : {true, false}) {
      const FtiOptions options{.allow_rotation = rotation};
      for (const Rect& region : regions) {
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << " rotation " << rotation
                     << " region (" << region.x << "," << region.y << ") "
                     << region.width << "x" << region.height);
        expect_kernel_matches_oracles(p, options, region);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtiRandomPinning, ::testing::Range(0, 10));

TEST(FtiTest, LastAnchorReadsTheNextBitboardWord) {
  // Module A (3x3 footprint) sits in a slot exactly its width, walled by
  // C on the left and by B's one column at x = `boundary`, the first bit
  // of the next bitboard word. Only anchor x = boundary - 3 is valid, so
  // all of A's cells are uncovered; reading one word too few would let
  // the anchor at boundary - 2 through and cover column boundary - 3.
  for (const int boundary : {64, 128}) {
    SCOPED_TRACE(testing::Message() << "boundary " << boundary);
    Schedule s;
    const auto add = [&](int index, int functional_width) {
      const ModuleSpec spec{"m", ModuleKind::kMixer, functional_width, 1,
                            10.0};
      s.add(ScheduledModule{index, "M", spec, 0.0, 10.0, -1, -1});
    };
    add(0, 1);             // A
    add(1, 1);             // B, hanging two columns off the canvas
    add(2, boundary - 5);  // C
    Placement p(s, boundary + 1, 3);
    p.set_anchor(0, {boundary - 3, 0});
    p.set_anchor(1, {boundary, 0});
    p.set_anchor(2, {0, 0});
    const Rect canvas{0, 0, boundary + 1, 3};
    expect_kernel_matches_oracles(p, {}, canvas);
    for (int y = 0; y < 3; ++y) {
      EXPECT_EQ(evaluate_fti(p, {}, canvas).covered.at(boundary - 3, y), 0);
    }
  }
}

TEST(FtiTest, CoveredCountMatchesSummedAreaOracleOnPcr) {
  const auto assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const Placement p = place_greedy(schedule, 16, 16);
  const Rect region = p.bounding_box();
  EXPECT_EQ(oracle::evaluate_fti_reference(p, {}, region).covered_cells,
            evaluate_fti(p, {}, region).covered_cells);
}

TEST(FtiTest, FtiBetweenZeroAndOne) {
  const auto assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const Placement p = place_greedy(schedule, 20, 20);
  const auto r = evaluate_fti(p);
  EXPECT_GE(r.fti(), 0.0);
  EXPECT_LE(r.fti(), 1.0);
  EXPECT_EQ(r.total_cells, r.array.area());
}

TEST(FtiTest, EmptyRegionYieldsZero) {
  Placement p(single_module_schedule(), 6, 6);
  const FtiResult r = evaluate_fti(p, {}, Rect{});
  EXPECT_EQ(r.total_cells, 0);
  EXPECT_DOUBLE_EQ(r.fti(), 0.0);
}

}  // namespace
}  // namespace dmfb
