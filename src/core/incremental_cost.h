// incremental_cost.h — O(1)-amortized delta-cost evaluation for the
// simulated-annealing placers.
//
// A copying annealer evaluates every proposal by duplicating the whole
// Placement and recomputing cost from scratch: overlap walks every
// conflicting pair, defect usage is O(modules x defects), and (with
// beta > 0) the FTI evaluator rebuilds every module's occupancy prefix
// sums over the full region. Classic SA placers (TimberWolf, VPR) instead
// mutate one state in place and price a move by the terms it actually
// touched, undoing on rejection. IncrementalPlacementState is that
// engine's state: it owns the current Placement plus caches —
//
//   * per-conflicting-pair overlap areas with a running total,
//   * per-module defect-hit counts against a prefix-summed defect grid,
//   * bounding-box extents via sorted coordinate multisets,
//   * per-module FTI relocation queries (FtiIncrementalEvaluator),
//   * per-RouteLink routing-pressure costs in CSR adjacency (gamma != 0),
//
// and exposes propose(move) -> delta, commit(), revert(). Every absolute
// cost is recomputed from the maintained integer tallies with the exact
// arithmetic of CostEvaluator::evaluate, so the delta engine's accept
// decisions — and therefore its whole trajectory — are bit-identical to
// the copying oracle's (tests/oracles/) for the same seed
// (test_incremental_cost.cpp pins this).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/cost.h"
#include "core/fti.h"
#include "core/moves.h"
#include "core/placement.h"

namespace dmfb {

/// Sorted multiset of integer coordinates, specialized for the annealer's
/// bounded range (canvas extents): a flat count histogram with cached
/// min/max. insert/erase are allocation-free and O(1) amortized — erasing
/// an extreme scans to the next occupied bucket, bounded by the canvas
/// span — which is what keeps bounding-box maintenance off the delta
/// engine's critical path (a node-allocating std::multiset measurably
/// dominated it).
class ExtentSet {
 public:
  void insert(int value) {
    ensure(value);
    ++counts_[static_cast<std::size_t>(value - offset_)];
    ++size_;
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  void erase(int value) {
    --counts_[static_cast<std::size_t>(value - offset_)];
    --size_;
    if (size_ == 0) {
      min_ = std::numeric_limits<int>::max();
      max_ = std::numeric_limits<int>::min();
      return;
    }
    if (value == min_) {
      while (counts_[static_cast<std::size_t>(min_ - offset_)] == 0) ++min_;
    }
    if (value == max_) {
      while (counts_[static_cast<std::size_t>(max_ - offset_)] == 0) --max_;
    }
  }

  bool empty() const { return size_ == 0; }
  int min() const { return min_; }  ///< undefined when empty
  int max() const { return max_; }  ///< undefined when empty

 private:
  /// Grows the histogram to cover `value` (with slack, so growth is rare).
  void ensure(int value) {
    if (counts_.empty()) {
      offset_ = value - 8;
      counts_.assign(64, 0);
      return;
    }
    const int end = offset_ + static_cast<int>(counts_.size());
    if (value >= offset_ && value < end) return;
    const int new_offset = std::min(offset_, value - 8);
    const int new_end = std::max(end, value + 8);
    std::vector<int> grown(static_cast<std::size_t>(new_end - new_offset), 0);
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      grown[static_cast<std::size_t>(offset_ - new_offset) + i] = counts_[i];
    }
    counts_ = std::move(grown);
    offset_ = new_offset;
  }

  std::vector<int> counts_;
  int offset_ = 0;
  int min_ = std::numeric_limits<int>::max();
  int max_ = std::numeric_limits<int>::min();
  int size_ = 0;
};

/// In-place move/undo placement state for delta-cost annealing. At most
/// one proposal may be outstanding: propose() mutates the owned placement
/// and returns the cost delta; commit() keeps it, revert() restores the
/// previous state from the recorded undo data (no recomputation).
class IncrementalPlacementState {
 public:
  /// Takes ownership of `placement` and prices it with `evaluator`'s
  /// weights, FTI options and defect map.
  IncrementalPlacementState(Placement placement,
                            const CostEvaluator& evaluator);

  /// The current committed placement. Between propose() and
  /// commit()/revert() the content is unspecified (the beta = 0 fast path
  /// prices a move without mutating anything; the FTI path mutates
  /// eagerly) — resolve the proposal before reading it.
  const Placement& placement() const { return placement_; }

  /// Absolute cost of the committed placement; bit-identical to
  /// CostEvaluator::evaluate(placement()).value.
  double cost() const {
    return pending_.active && pending_.eager ? pending_.old_value : value_;
  }

  /// Cost decomposition from the maintained tallies (same fields as
  /// CostEvaluator::evaluate).
  CostBreakdown breakdown() const;

  /// Overlap-free and within the canvas — Placement::feasible() of the
  /// committed placement, without the O(pairs + modules) walk.
  bool feasible() const {
    return overlap_total_ == 0 && outside_count_ == 0;
  }

  /// Module cells on defective electrodes (CostEvaluator::defect_usage).
  long long defect_cells() const { return defect_total_; }

  /// The engaged FTI evaluator (nullptr at beta = 0, where the term is
  /// never computed). Exposed so the coverage-audit tests can pin its
  /// per-cell state against the reference evaluators.
  const FtiIncrementalEvaluator* fti_evaluator() const {
    return weights_.beta != 0.0 ? &fti_ : nullptr;
  }

  /// Prices `move` and returns (new cost - old cost). With beta = 0 this
  /// mutates nothing — the touched cost terms are re-derived against
  /// hypothetical footprints, so a rejected proposal costs no writes at
  /// all; with beta != 0 the state is mutated eagerly (the FTI cache
  /// patch needs the moved placement) and undone by revert(). A
  /// proposal must be resolved by commit() or revert() before the next
  /// propose().
  double propose(const PlacementMove& move);

  /// Keeps the proposed move; returns the (new) absolute cost.
  double commit();

  /// Discards the proposed move.
  void revert();

  bool has_pending() const { return pending_.active; }

 private:
  struct TouchedModule {
    int index = -1;
    Point anchor{0, 0};
    bool rotated = false;
    bool outside = false;
    long long defect_hits = 0;
    Rect footprint;  ///< pre-move footprint (cache restore on revert)
  };

  struct Pending {
    bool active = false;
    bool eager = false;  ///< beta != 0: state already mutated, undo below
    PlacementMove move;

    // Lazy (beta = 0) candidates, applied by commit(). `footprints_` is
    // updated by propose() itself (the overlap/bbox pricing reads it);
    // revert() puts `old_footprints` back.
    Rect old_footprints[2];
    bool new_outside[2] = {false, false};
    long long new_defect_hits[2] = {0, 0};
    std::vector<std::pair<int, long long>> new_pair_overlaps;
    std::vector<std::pair<int, long long>> new_link_costs;
    long long cand_overlap_total = 0;
    long long cand_defect_total = 0;
    long long cand_pressure_total = 0;
    int cand_outside_count = 0;
    Rect cand_bbox;
    double cand_value = 0.0;

    // Eager (beta != 0) undo data, applied by revert().
    TouchedModule old_modules[2];
    std::vector<std::pair<int, long long>> old_pair_overlaps;
    std::vector<std::pair<int, long long>> old_link_costs;
    long long old_overlap_total = 0;
    long long old_defect_total = 0;
    long long old_pressure_total = 0;
    int old_outside_count = 0;
    long long old_covered = 0;
    Rect old_bbox;
    double old_value = 0.0;
    FtiIncrementalEvaluator::Backup fti_backup;
  };

  /// The combined objective, in the exact expression order of
  /// CostEvaluator::evaluate (bit-compatibility with the copying oracle).
  double value_of(long long area_cells, long long overlap_cells,
                  long long defect_cells, double fti,
                  long long route_pressure) const;

  /// value_of over the committed tallies.
  double value_from_tallies() const;

  double propose_eager(const PlacementMove& move);

  long long defect_hits(const Rect& footprint) const;
  Rect bounding_box_from_extents() const;
  void erase_extents(const Rect& footprint);
  void insert_extents(const Rect& footprint);

  Placement placement_;
  CostWeights weights_;
  std::vector<Point> defects_;

  /// Current footprint of every module — PlacedModule::footprint() is hot
  /// enough in the proposal loop (pair overlaps, extents, defects all need
  /// it) that re-deriving it from the spec each time measurably costs.
  std::vector<Rect> footprints_;

  /// One conflicting pair with its cached overlap, packed so the pricing
  /// loop touches one cache line per pair (indices and overlap together).
  struct PairEntry {
    int i = 0;
    int j = 0;
    long long overlap = 0;
  };

  /// Conflicting pairs touching each module, in CSR form (module m's
  /// pair indices are pair_adjacency_[pair_offsets_[m] ..
  /// pair_offsets_[m + 1])) — flat arrays, no per-module pointer chase.
  std::vector<int> pair_offsets_;
  std::vector<int> pair_adjacency_;
  std::vector<PairEntry> pair_entries_;  ///< parallel to conflicting_pairs()
  long long overlap_total_ = 0;

  /// Prefix-summed defect counts over the defects' bounding rect
  /// (multiplicity-aware: duplicate defect points count twice, matching
  /// CostEvaluator::defect_usage).
  Rect defect_bounds_;
  std::vector<long long> defect_sums_;  ///< (w+1) x (h+1), row-major
  std::vector<long long> module_defect_hits_;
  long long defect_total_ = 0;

  /// Current (committed) placement bounding box.
  Rect bbox_;

  /// Bounding-box extents, one entry per module footprint edge.
  /// Maintained only on the eager (beta != 0) path, where the extent
  /// structures make move/undo bounding-box updates O(1); the beta = 0
  /// path prices candidate boxes with a short scan over `footprints_`
  /// instead (cheaper than histogram maintenance at placement sizes, and
  /// rejected proposals then write nothing at all).
  ExtentSet lefts_, rights_, bottoms_, tops_;

  std::vector<bool> outside_;  ///< per module: footprint leaves the canvas
  int outside_count_ = 0;

  /// FTI caches; engaged only when weights_.beta != 0 (the evaluator
  /// owns the temporal adjacency its patches fan out over).
  FtiIncrementalEvaluator fti_;
  long long covered_cells_ = 0;

  /// One demand edge with its cached weighted distance, mirroring
  /// PairEntry: indices and cost on one cache line for the pricing loop.
  struct LinkEntry {
    RouteLink link;
    long long cost = 0;
  };

  /// Routing-pressure caches, CSR adjacency by incident module (a link
  /// touches its target and, when on-chip, its source). Engaged — built
  /// and priced — only when weights_.gamma != 0 and the evaluator carried
  /// links; otherwise every container stays empty and proposals skip the
  /// term entirely, exactly like FTI at beta = 0.
  std::vector<LinkEntry> link_entries_;
  std::vector<int> link_offsets_;
  std::vector<int> link_adjacency_;
  std::vector<std::uint64_t> link_stamp_;
  long long pressure_total_ = 0;

  /// Weighted distance of one link under the current `footprints_`.
  long long link_cost(const LinkEntry& entry) const;

  /// Proposal-scoped dedup stamps (pairs and links), reused so the hot
  /// path allocates nothing. 64-bit: a 32-bit stamp would wrap within
  /// minutes at the delta engine's proposal rate and silently skip pair
  /// re-pricing.
  std::vector<std::uint64_t> pair_stamp_;
  std::uint64_t stamp_ = 0;

  double value_ = 0.0;
  Pending pending_;
};

}  // namespace dmfb
