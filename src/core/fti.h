// fti.h — the Fault Tolerance Index (§5.2–5.3 of the paper).
//
// Single-cell fault model, uniform failure probability. A cell is
// *C-covered* for a placement C iff, were that cell to fail, the assay
// could still run after partial reconfiguration: for every module whose
// footprint contains the cell, the module can be relocated to a region
// that is free during the module's entire operation interval and does not
// contain the faulty cell. Unused cells are trivially covered.
//
//   FTI = (#C-covered cells) / (m * n)
//
// FTI = 1 means any single fault is survivable; FTI = 0 means none is.
//
// Implementation note: the library has one FTI kernel, the bitboard
// `FtiIncrementalEvaluator` below. The annealer keeps one alive and
// patches it per proposal; `evaluate_fti` builds one from scratch. It
// never enumerates maximal empty rectangles: a module's relocation
// anchors are read off an occupancy bitboard by shift-OR dilation, and
// the cells it blocks are the intersection of those anchors'
// footprints. Two independent references live outside the library as
// test oracles (tests/oracles/reference_fti.h): the summed-area-table
// evaluator the kernel replaced and the MER-based definition. The
// reconfiguration engine (reconfig.h) uses the staircase MERs (mer.h)
// directly, since it needs actual target locations.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/placement.h"
#include "util/geometry.h"
#include "util/matrix.h"

namespace dmfb {

/// Options shared by the FTI evaluator and the reconfiguration engine.
struct FtiOptions {
  /// Allow the relocated module to be transposed (90-degree rotation).
  bool allow_rotation = true;
};

/// Result of evaluating FTI over an array region.
struct FtiResult {
  Rect array;                     ///< region evaluated (the m x n array)
  long long covered_cells = 0;    ///< k in the paper's FTI = k/(m*n)
  long long total_cells = 0;      ///< m * n
  Matrix<std::uint8_t> covered;   ///< 1 = C-covered, indexed region-relative

  double fti() const {
    return total_cells == 0
               ? 0.0
               : static_cast<double>(covered_cells) / total_cells;
  }
};

/// Evaluates the fault tolerance of `placement` over `region` (defaults to
/// the placement's bounding box — the m x n array a designer would
/// fabricate for it). Cells of `region` outside every module are covered;
/// module cells are covered iff relocation avoiding them succeeds for every
/// module using them. One full build of `FtiIncrementalEvaluator`.
FtiResult evaluate_fti(const Placement& placement,
                       const FtiOptions& options = {},
                       std::optional<Rect> region = std::nullopt);

/// Caches per-module relocation state — and the per-cell coverage state
/// derived from it — across annealing proposals.
///
/// A module's relocation state lives over one shared, region-independent
/// *domain* (the canvas, united with the evaluation region and grown on
/// demand) and depends only on the footprints of the modules it
/// time-overlaps — not on the region and not on the module's own
/// position. It is two views of the same cells: a count of temporal
/// neighbour footprints per cell (neighbours may overlap one another)
/// and an occupancy bitboard, bit x of row y set iff that count is
/// nonzero, `ceil(domain width / 64)` words per row. Nothing is rebuilt
/// on the hot path: a move adjusts the counts over the moved
/// footprints' symmetric difference, and a count crossing 0 toggles one
/// bit — O(dirty) integer steps, all exactly invertible on revert.
/// Anchor validity is derived on demand per clamped anchor row: OR the
/// footprint's h bitboard rows, dilate them across w columns by
/// shift-OR, and read the free anchors' count and extremes off the
/// complement with popcount and bit scans. Region bounds are applied by
/// that clamp, which test_fti/test_incremental_cost pin to be
/// cell-for-cell identical to the summed-area-table oracle over the
/// region.
///
/// Coverage itself is maintained incrementally too: the cells a module
/// *blocks* (cells of its footprint no relocation can avoid) form the
/// intersection of every region-valid anchor's footprint — a rectangle,
/// derivable from the anchor extremes, and empty as soon as those
/// anchors spread wider than one footprint. A per-cell counter grid
/// sums those rectangles; the covered count is region area minus its
/// nonzero cells. A region (bounding-box) drift re-derives a module's
/// block only when cheap anchor-count probes (new and intersected clamp
/// rectangles) show its valid-anchor set actually changed. `update`
/// records the displaced state so the caller's revert path can restore
/// it without recomputation.
class FtiIncrementalEvaluator {
 public:
  explicit FtiIncrementalEvaluator(FtiOptions options = {})
      : options_(options) {}

  /// One orientation's footprint extent: anchor (x, y) is valid iff a
  /// w-by-h footprint there lies in the domain and covers no bitboard
  /// bit.
  struct Orientation {
    int w = 0;
    int h = 0;
  };

  /// One module's cached relocation state over the shared domain.
  struct ModuleGrids {
    Matrix<std::uint16_t> occupancy;  ///< neighbour footprints per cell
    /// Bitboard rows of `occupancy > 0`, `words_per_row` words each.
    std::vector<std::uint64_t> occupied;
    int orientation_count = 0;
    Orientation orientations[2];
  };

  /// One module's contribution to a proposal: where it was and where it
  /// is now. `update` patches its temporal neighbours' grids with the
  /// difference; `restore` applies the exact inverse.
  struct MovedModule {
    int index = -1;
    Rect from;
    Rect to;
  };


  /// One module's cached coverage contribution: its region-valid anchor
  /// stats per orientation (count and bounding box, valid for
  /// `stats_region`) and the rectangle of cells it blocks (empty for
  /// the overwhelmingly common can-always-relocate case). Plain data —
  /// backed up by value.
  struct ModuleBlock {
    long long anchors[2] = {0, 0};  ///< region-valid anchors per orientation
    Rect anchor_bbox[2];            ///< their bounding boxes (absolute)
    Rect stats_region;              ///< region the stats were derived for
    /// Intersection of every region-valid anchor's footprint, over the
    /// orientations that have anchors (the cells those orientations
    /// cannot avoid). Meaningless when `unrelocatable`.
    Rect core;
    bool unrelocatable = false;  ///< no orientation has a region-valid anchor
    Rect block;  ///< cells currently contributed to the coverage grid

    friend bool operator==(const ModuleBlock&, const ModuleBlock&) = default;
  };

  /// Displaced cache state from one `update`, restorable via `restore`.
  struct Backup {
    Rect region;
    bool full = false;  ///< full (re)build: `all*` hold every module's data
    std::vector<ModuleGrids> all;
    std::vector<ModuleBlock> all_blocks;
    std::vector<std::pair<int, ModuleBlock>> some_blocks;
    Matrix<std::uint16_t> grid;  ///< full-build coverage grid, wholesale
    Rect grid_bounds;
    Rect domain;
    long long blocked = 0;
    MovedModule moved[2];  ///< applied deltas, inverted by `restore`
    int moved_count = 0;
  };

  const Rect& region() const { return region_; }
  const FtiOptions& options() const { return options_; }

  /// Points the evaluator at `region` and patches the cached grids with
  /// the `moved` modules' footprint deltas (dirtying exactly their
  /// temporal neighbours), then refreshes the coverage grid under those
  /// footprints and — only when a region change is shown to have
  /// changed their valid-anchor sets — anyone else's. Everything is
  /// built on first use (or when the region outgrows the shared
  /// domain). The displaced state lands in `backup` (an out-param so
  /// its buffers recycle across proposals) for undo via `restore`.
  void update(const Placement& placement, const Rect& region,
              const MovedModule* moved, int moved_count, Backup& backup);


  /// Restores the cache to its state before the matching `update`,
  /// consuming `backup`'s entries (the container itself survives for
  /// reuse).
  void restore(Backup& backup);

  /// Covered-cell count over the cached region, read off the maintained
  /// tallies in O(1). Whenever the cache is in sync with the placement
  /// it equals the oracles' count over `region()` (pinned by
  /// test_incremental_cost).
  long long covered_cells() const {
    return region_.empty() ? 0 : region_.area() - blocked_;
  }

  /// Per-cell coverage state (absolute coordinates) — what the audit
  /// tests pin against both oracles in tests/oracles/reference_fti.h.
  /// Cells outside the region are uncovered, matching the references.
  bool is_cell_covered(Point cell) const;

 private:
  /// Builds module `index`'s counts and bitboard over the shared domain
  /// from scratch (full builds only; the hot path patches instead).
  void build_module(const Placement& placement, int index);

  /// Patches module `mover`'s temporal neighbours' counts with its
  /// footprint change `from` -> `to` (the exact inverse of the swapped
  /// call). Neighbours whose occupancy actually crossed between covered
  /// and free are marked with `touch_stamp` in `visit_stamp_` — the
  /// others' bitboards are unchanged and need no re-derive.
  void apply_move_delta(int mover, const Rect& from, const Rect& to,
                        std::uint64_t touch_stamp = 0);

  /// Derives module `index`'s anchor stats, core and `unrelocatable`
  /// flag against the current region from its bitboard (count and
  /// extremes from one clamp scan per orientation).
  ModuleBlock derive_stats(int index) const;

  /// Bitboard words per domain row.
  int words_per_row() const { return (domain_.width + 63) / 64; }

  /// Fills `block` of `stats` from its core against module `index`'s
  /// current footprint clipped to the region.
  void clip_block(int index, const Placement& placement,
                  ModuleBlock& stats) const;

  /// Swaps module `index`'s grid contribution to `fresh`, recording the
  /// old state in `backup`.
  void apply_block(int index, const ModuleBlock& fresh, Backup& backup);

  // Coverage-grid plumbing: counts of blocking modules per cell over
  // `grid_bounds_`, with `blocked_` tracking its nonzero cells (all of
  // which lie inside the current region by construction).
  void grid_add(const Rect& rect);
  void grid_remove(const Rect& rect);
  void grid_ensure(const Rect& rect);

  FtiOptions options_;
  Rect region_;
  Rect domain_;  ///< shared grid extent (canvas ∪ regions seen)
  std::vector<ModuleGrids> queries_;  ///< per module
  std::vector<ModuleBlock> blocks_;   ///< per module
  std::vector<std::vector<int>> neighbors_;  ///< temporal adjacency (fixed)
  Matrix<std::uint16_t> grid_;  ///< blocking-module counts per cell
  Rect grid_bounds_;            ///< absolute rect `grid_` covers
  long long blocked_ = 0;       ///< nonzero grid cells (all inside region)
  /// Per-module visit stamps for one update()/preview() pass (refresh
  /// dedup).
  std::vector<std::uint64_t> visit_stamp_;
  std::uint64_t stamp_ = 0;
  /// `derive_stats` scratch: one dilated anchor row and its clamp mask.
  mutable std::vector<std::uint64_t> scan_row_;
};

}  // namespace dmfb
