// reference_fti.h — reference Fault Tolerance Index evaluators and the
// brute-force maximal-empty-rectangle enumeration, kept as test oracles
// of the library's bitboard FTI kernel (core/fti.h) and staircase sweep
// (core/mer.h).
//
// Two FTI references, sharing no code with the kernel:
//  * evaluate_fti_reference — the summed-area-table evaluator the kernel
//    replaced: per module, a prefix-sum table over its temporal
//    neighbours' occupancy of the region, and a second over its valid
//    anchors, answer "can it relocate avoiding this cell?" in O(1);
//  * is_cell_covered_reference — the paper's definition (§5.3) read
//    literally: for every module on the cell, remove it, mark the cell
//    faulty and search the maximal-empty-rectangle list for a target.
// maximal_empty_rectangles_brute checks every candidate rectangle,
// O(W^2 H^2), and pins the staircase sweep.
//
// Built into the dmfb_oracles library, linked by the tests and
// bench_perf_mer; the dmfb library never sees it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/fti.h"
#include "core/placement.h"
#include "util/geometry.h"
#include "util/matrix.h"

namespace dmfb::oracle {

/// Summed-area table of a boolean occupancy grid (nonzero = occupied).
class PrefixSum2D {
 public:
  PrefixSum2D() = default;

  explicit PrefixSum2D(const Matrix<std::uint8_t>& occupied) {
    rebuild_from(occupied.width(), occupied.height(),
                 [&](int x, int y) { return occupied.at(x, y) != 0; });
  }

  /// Rebuilds over a width-by-height grid whose occupancy is given by
  /// `cell(x, y) -> bool`, fused into the prefix pass.
  template <typename CellFn>
  void rebuild_from(int width, int height, CellFn&& cell) {
    width_ = width;
    height_ = height;
    sums_.reset(width_ + 1, height_ + 1, 0);
    for (int y = 0; y < height_; ++y) {
      for (int x = 0; x < width_; ++x) {
        sums_.at(x + 1, y + 1) = sums_.at(x, y + 1) + sums_.at(x + 1, y) -
                                 sums_.at(x, y) + (cell(x, y) ? 1 : 0);
      }
    }
  }

  int width() const { return width_; }
  int height() const { return height_; }

  /// Number of occupied cells inside `r` (must be within bounds).
  long long occupied_in(const Rect& r) const {
    if (r.empty()) return 0;
    return sums_.at(r.right(), r.top()) - sums_.at(r.x, r.top()) -
           sums_.at(r.right(), r.y) + sums_.at(r.x, r.y);
  }

  bool is_rect_empty(const Rect& r) const { return occupied_in(r) == 0; }

 private:
  int width_ = 0;
  int height_ = 0;
  Matrix<long long> sums_;
};

/// The summed-area-table FTI evaluator: same contract as
/// dmfb::evaluate_fti (region defaults to the bounding box).
FtiResult evaluate_fti_reference(const Placement& placement,
                                 const FtiOptions& options = {},
                                 std::optional<Rect> region = std::nullopt);

/// The definition: coverage of one cell (absolute coordinates) over
/// `region`, deciding each module on the cell by a maximal-empty-rectangle
/// search. Cells outside the region are uncovered.
bool is_cell_covered_reference(const Placement& placement, Point cell,
                               const FtiOptions& options, const Rect& region);

/// Every maximal empty rectangle of the grid, found by checking every
/// candidate; same order as dmfb::maximal_empty_rectangles.
std::vector<Rect> maximal_empty_rectangles_brute(
    const Matrix<std::uint8_t>& occupied);

}  // namespace dmfb::oracle
