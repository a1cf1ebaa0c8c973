#include "core/incremental_cost.h"

#include <cassert>

namespace dmfb {

IncrementalPlacementState::IncrementalPlacementState(
    Placement placement, const CostEvaluator& evaluator)
    : placement_(std::move(placement)),
      weights_(evaluator.weights()),
      defects_(evaluator.defects()),
      fti_(evaluator.fti_options()) {
  const int count = placement_.module_count();
  const auto& pairs = placement_.conflicting_pairs();

  footprints_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    footprints_.push_back(placement_.module(i).footprint());
  }

  pair_entries_.assign(pairs.size(), PairEntry{});
  pair_offsets_.assign(static_cast<std::size_t>(count) + 1, 0);
  for (const auto& [i, j] : pairs) {
    ++pair_offsets_[static_cast<std::size_t>(i) + 1];
    ++pair_offsets_[static_cast<std::size_t>(j) + 1];
  }
  for (int i = 0; i < count; ++i) {
    pair_offsets_[static_cast<std::size_t>(i) + 1] +=
        pair_offsets_[static_cast<std::size_t>(i)];
  }
  pair_adjacency_.assign(2 * pairs.size(), 0);
  {
    std::vector<int> cursor(pair_offsets_.begin(), pair_offsets_.end() - 1);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const auto& [i, j] = pairs[p];
      pair_adjacency_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(i)]++)] = static_cast<int>(p);
      pair_adjacency_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(j)]++)] = static_cast<int>(p);
      pair_entries_[p].i = i;
      pair_entries_[p].j = j;
      pair_entries_[p].overlap =
          footprints_[static_cast<std::size_t>(i)].overlap_area(
              footprints_[static_cast<std::size_t>(j)]);
      overlap_total_ += pair_entries_[p].overlap;
    }
  }
  pair_stamp_.assign(pairs.size(), 0);

  // Prefix-summed defect counts over the defects' bounding rect (the
  // evaluator already maintains the rect), so a footprint's hit count is
  // one O(1) rectangle query.
  defect_bounds_ = evaluator.defect_bounds();
  if (!defects_.empty()) {
    const int w = defect_bounds_.width;
    const int h = defect_bounds_.height;
    std::vector<long long> counts(static_cast<std::size_t>(w) * h, 0);
    for (const Point& d : defects_) {
      counts[static_cast<std::size_t>(d.y - defect_bounds_.y) * w +
             (d.x - defect_bounds_.x)] += 1;
    }
    defect_sums_.assign(static_cast<std::size_t>(w + 1) * (h + 1), 0);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        defect_sums_[static_cast<std::size_t>(y + 1) * (w + 1) + (x + 1)] =
            defect_sums_[static_cast<std::size_t>(y) * (w + 1) + (x + 1)] +
            defect_sums_[static_cast<std::size_t>(y + 1) * (w + 1) + x] -
            defect_sums_[static_cast<std::size_t>(y) * (w + 1) + x] +
            counts[static_cast<std::size_t>(y) * w + x];
      }
    }
  }

  module_defect_hits_.assign(static_cast<std::size_t>(count), 0);
  outside_.assign(static_cast<std::size_t>(count), false);
  for (int i = 0; i < count; ++i) {
    const Rect& fp = footprints_[static_cast<std::size_t>(i)];
    if (weights_.beta != 0.0) insert_extents(fp);
    module_defect_hits_[static_cast<std::size_t>(i)] = defect_hits(fp);
    defect_total_ += module_defect_hits_[static_cast<std::size_t>(i)];
    if (!fp.within_bounds(placement_.canvas_width(),
                          placement_.canvas_height())) {
      outside_[static_cast<std::size_t>(i)] = true;
      ++outside_count_;
    }
  }
  bbox_ = placement_.bounding_box();

  // Routing-pressure caches (gamma != 0 only): CSR adjacency of links by
  // incident module, built like the pair adjacency above.
  if (weights_.gamma != 0.0 && !evaluator.route_links().empty()) {
    const auto& links = evaluator.route_links();
    link_offsets_.assign(static_cast<std::size_t>(count) + 1, 0);
    link_entries_.reserve(links.size());
    for (const RouteLink& link : links) {
      if (link.target_module < 0 || link.target_module >= count ||
          link.source_module >= count) {
        throw std::invalid_argument(
            "IncrementalPlacementState: route link module index out of "
            "range (links extracted for a different schedule?)");
      }
      link_entries_.push_back(LinkEntry{link, 0});
      ++link_offsets_[static_cast<std::size_t>(link.target_module) + 1];
      if (link.source_module >= 0 &&
          link.source_module != link.target_module) {
        ++link_offsets_[static_cast<std::size_t>(link.source_module) + 1];
      }
    }
    for (int i = 0; i < count; ++i) {
      link_offsets_[static_cast<std::size_t>(i) + 1] +=
          link_offsets_[static_cast<std::size_t>(i)];
    }
    link_adjacency_.assign(
        static_cast<std::size_t>(link_offsets_.back()), 0);
    std::vector<int> cursor(link_offsets_.begin(), link_offsets_.end() - 1);
    for (std::size_t p = 0; p < link_entries_.size(); ++p) {
      const RouteLink& link = link_entries_[p].link;
      link_adjacency_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(link.target_module)]++)] =
          static_cast<int>(p);
      if (link.source_module >= 0 &&
          link.source_module != link.target_module) {
        link_adjacency_[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(link.source_module)]++)] =
            static_cast<int>(p);
      }
    }
    for (auto& entry : link_entries_) {
      entry.cost = link_cost(entry);
      pressure_total_ += entry.cost;
    }
    link_stamp_.assign(link_entries_.size(), 0);
  }

  if (weights_.beta != 0.0) {
    FtiIncrementalEvaluator::Backup scratch;
    fti_.update(placement_, bbox_, nullptr, 0, scratch);
    covered_cells_ = fti_.covered_cells();
  }
  value_ = value_from_tallies();
}

CostBreakdown IncrementalPlacementState::breakdown() const {
  CostBreakdown result;
  result.area_cells = bbox_.area();
  result.overlap_cells = overlap_total_;
  result.defect_cells = defect_total_;
  if (weights_.beta != 0.0) {
    const long long total = bbox_.area();
    result.fti =
        total == 0 ? 0.0 : static_cast<double>(covered_cells_) / total;
  }
  result.route_pressure = pressure_total_;
  result.value = value_;
  return result;
}

double IncrementalPlacementState::value_of(long long area_cells,
                                           long long overlap_cells,
                                           long long defect_cells,
                                           double fti,
                                           long long route_pressure) const {
  // Exactly CostEvaluator::evaluate's expression (term order included —
  // base objective, then the gamma term appended outside it), so copy-
  // and delta-engine costs agree bit for bit.
  double value = weights_.alpha * static_cast<double>(area_cells) +
                 weights_.lambda_overlap * static_cast<double>(overlap_cells) +
                 weights_.lambda_defect * static_cast<double>(defect_cells) -
                 weights_.beta * fti;
  if (weights_.gamma != 0.0) {
    value += weights_.gamma * static_cast<double>(route_pressure);
  }
  return value;
}

double IncrementalPlacementState::value_from_tallies() const {
  double fti = 0.0;
  if (weights_.beta != 0.0) {
    const long long total = bbox_.area();
    fti = total == 0 ? 0.0 : static_cast<double>(covered_cells_) / total;
  }
  return value_of(bbox_.area(), overlap_total_, defect_total_, fti,
                  pressure_total_);
}

long long IncrementalPlacementState::link_cost(const LinkEntry& entry) const {
  const Rect& target =
      footprints_[static_cast<std::size_t>(entry.link.target_module)];
  const Rect& source =
      entry.link.source_module >= 0
          ? footprints_[static_cast<std::size_t>(entry.link.source_module)]
          : target;
  return entry.link.weight *
         detail::route_link_distance(entry.link, source, target,
                                     placement_.canvas_width(),
                                     placement_.canvas_height());
}

long long IncrementalPlacementState::defect_hits(const Rect& footprint) const {
  if (defects_.empty()) return 0;
  const Rect r = footprint.intersection(defect_bounds_);
  if (r.empty()) return 0;
  const int w = defect_bounds_.width;
  const int x1 = r.x - defect_bounds_.x;
  const int y1 = r.y - defect_bounds_.y;
  const int x2 = x1 + r.width;
  const int y2 = y1 + r.height;
  const auto at = [&](int x, int y) {
    return defect_sums_[static_cast<std::size_t>(y) * (w + 1) + x];
  };
  return at(x2, y2) - at(x1, y2) - at(x2, y1) + at(x1, y1);
}

Rect IncrementalPlacementState::bounding_box_from_extents() const {
  if (lefts_.empty()) return Rect{};
  const int left = lefts_.min();
  const int right = rights_.max();
  const int bottom = bottoms_.min();
  const int top = tops_.max();
  return Rect{left, bottom, right - left, top - bottom};
}

void IncrementalPlacementState::erase_extents(const Rect& footprint) {
  lefts_.erase(footprint.x);
  rights_.erase(footprint.right());
  bottoms_.erase(footprint.y);
  tops_.erase(footprint.top());
}

void IncrementalPlacementState::insert_extents(const Rect& footprint) {
  lefts_.insert(footprint.x);
  rights_.insert(footprint.right());
  bottoms_.insert(footprint.y);
  tops_.insert(footprint.top());
}

double IncrementalPlacementState::propose(const PlacementMove& move) {
  assert(!pending_.active);

  // Clamped displacements frequently land exactly where the module
  // already is (window span 1 at low temperature); such a move changes
  // nothing, so the delta is 0 without touching a single cache — the FTI
  // path in particular skips its whole patch.
  bool noop = true;
  for (int c = 0; c < move.count && noop; ++c) {
    const PlacedModule& m =
        placement_.modules()[static_cast<std::size_t>(move.changes[c].index)];
    noop = m.anchor == move.changes[c].anchor &&
           m.rotated == move.changes[c].rotated;
  }
  if (noop) {
    Pending& pending = pending_;
    pending.active = true;
    pending.eager = false;
    pending.move.count = 0;
    pending.new_pair_overlaps.clear();
    pending.new_link_costs.clear();
    pending.cand_overlap_total = overlap_total_;
    pending.cand_defect_total = defect_total_;
    pending.cand_pressure_total = pressure_total_;
    pending.cand_outside_count = outside_count_;
    pending.cand_bbox = bbox_;
    pending.cand_value = value_;
    return 0.0;
  }

  if (weights_.beta != 0.0) return propose_eager(move);

  // beta = 0 fast path: price the move against hypothetical footprints
  // without touching placement or caches. commit() applies the staged
  // values; revert() just drops them.
  Pending& pending = pending_;
  pending.active = true;
  pending.eager = false;
  pending.move = move;
  pending.new_pair_overlaps.clear();
  pending.new_link_costs.clear();

  long long cand_overlap = overlap_total_;
  long long cand_defect = defect_total_;
  long long cand_pressure = pressure_total_;
  int cand_outside = outside_count_;
  // Does the committed bounding box survive the move? (An interior module
  // moving within the box cannot change it; only then is the scan below
  // skippable.)
  bool bbox_survives = true;

  for (int c = 0; c < move.count; ++c) {
    const ModuleMove& change = move.changes[c];
    const std::size_t idx = static_cast<std::size_t>(change.index);
    const Rect fp = footprint_rect(placement_.module(change.index).spec,
                                   change.anchor, change.rotated);
    // footprints_ takes the hypothetical value now so the overlap and
    // bbox pricing below read it branch-free; revert() restores.
    pending.old_footprints[c] = footprints_[idx];
    footprints_[idx] = fp;

    const Rect& old_fp = pending.old_footprints[c];
    bbox_survives = bbox_survives &&
                    old_fp.x > bbox_.x && old_fp.y > bbox_.y &&
                    old_fp.right() < bbox_.right() &&
                    old_fp.top() < bbox_.top() && bbox_.contains(fp);

    const bool outside = !fp.within_bounds(placement_.canvas_width(),
                                           placement_.canvas_height());
    pending.new_outside[c] = outside;
    cand_outside +=
        static_cast<int>(outside) - static_cast<int>(outside_[idx]);
    long long hits = 0;
    if (!defects_.empty()) {
      hits = defect_hits(fp);
      cand_defect += hits - module_defect_hits_[idx];
    }
    pending.new_defect_hits[c] = hits;
  }

  const auto price_pairs_of = [&](int module_index, bool stamped) {
    const std::size_t module = static_cast<std::size_t>(module_index);
    const int begin = pair_offsets_[module];
    const int end = pair_offsets_[module + 1];
    for (int a = begin; a < end; ++a) {
      const int p = pair_adjacency_[static_cast<std::size_t>(a)];
      const std::size_t q = static_cast<std::size_t>(p);
      if (stamped) {
        if (pair_stamp_[q] == stamp_) continue;
        pair_stamp_[q] = stamp_;
      }
      const PairEntry& entry = pair_entries_[q];
      const long long overlap =
          footprints_[static_cast<std::size_t>(entry.i)].overlap_area(
              footprints_[static_cast<std::size_t>(entry.j)]);
      pending.new_pair_overlaps.emplace_back(p, overlap);
      cand_overlap += overlap - entry.overlap;
    }
  };
  if (move.count == 1) {
    // A single-module move cannot visit a pair twice: no stamp dedup.
    price_pairs_of(move.changes[0].index, /*stamped=*/false);
  } else {
    ++stamp_;
    for (int c = 0; c < move.count; ++c) {
      price_pairs_of(move.changes[c].index, /*stamped=*/true);
    }
  }

  // Re-price the routing-pressure links incident to the touched modules
  // (a link between both touched modules updates once, via the stamp).
  if (!link_entries_.empty()) {
    const auto price_links_of = [&](int module_index, bool stamped) {
      const std::size_t module = static_cast<std::size_t>(module_index);
      const int begin = link_offsets_[module];
      const int end = link_offsets_[module + 1];
      for (int a = begin; a < end; ++a) {
        const int p = link_adjacency_[static_cast<std::size_t>(a)];
        const std::size_t q = static_cast<std::size_t>(p);
        if (stamped) {
          if (link_stamp_[q] == stamp_) continue;
          link_stamp_[q] = stamp_;
        }
        const long long cost = link_cost(link_entries_[q]);
        pending.new_link_costs.emplace_back(p, cost);
        cand_pressure += cost - link_entries_[q].cost;
      }
    };
    if (move.count == 1) {
      price_links_of(move.changes[0].index, /*stamped=*/false);
    } else {
      // Reuses the stamp the pair pass above advanced; link_stamp_ is a
      // separate array, so every entry still reads as unvisited.
      for (int c = 0; c < move.count; ++c) {
        price_links_of(move.changes[c].index, /*stamped=*/true);
      }
    }
  }

  // Candidate bounding box: unchanged for interior moves, else a short
  // branch-free scan over the (already updated) footprints. At placement
  // sizes this beats maintaining extent structures, and a rejected
  // proposal writes almost nothing.
  Rect cand_bbox = bbox_;
  const int count = placement_.module_count();
  if (!bbox_survives && count > 0) {
    int left = std::numeric_limits<int>::max();
    int right = std::numeric_limits<int>::min();
    int bottom = std::numeric_limits<int>::max();
    int top = std::numeric_limits<int>::min();
    for (const Rect& fp : footprints_) {
      left = std::min(left, fp.x);
      right = std::max(right, fp.right());
      bottom = std::min(bottom, fp.y);
      top = std::max(top, fp.top());
    }
    cand_bbox = Rect{left, bottom, right - left, top - bottom};
  }

  pending.cand_overlap_total = cand_overlap;
  pending.cand_defect_total = cand_defect;
  pending.cand_pressure_total = cand_pressure;
  pending.cand_outside_count = cand_outside;
  pending.cand_bbox = cand_bbox;
  pending.cand_value =
      value_of(cand_bbox.area(), cand_overlap, cand_defect, 0.0,
               cand_pressure);
  return pending.cand_value - value_;
}

double IncrementalPlacementState::propose_eager(const PlacementMove& move) {
  ++stamp_;

  Pending& pending = pending_;
  pending.active = true;
  pending.eager = true;
  pending.move = move;
  pending.old_overlap_total = overlap_total_;
  pending.old_defect_total = defect_total_;
  pending.old_pressure_total = pressure_total_;
  pending.old_outside_count = outside_count_;
  pending.old_covered = covered_cells_;
  pending.old_bbox = bbox_;
  pending.old_value = value_;
  pending.old_pair_overlaps.clear();
  pending.old_link_costs.clear();

  for (int c = 0; c < move.count; ++c) {
    const ModuleMove& change = move.changes[c];
    const std::size_t idx = static_cast<std::size_t>(change.index);
    const PlacedModule& m = placement_.module(change.index);
    pending.old_modules[c] =
        TouchedModule{change.index, m.anchor,
                      m.rotated, outside_[idx],
                      module_defect_hits_[idx], footprints_[idx]};

    erase_extents(footprints_[idx]);
    placement_.set_position(change.index, change.anchor, change.rotated);
    const Rect fp = footprint_rect(m.spec, change.anchor, change.rotated);
    footprints_[idx] = fp;
    insert_extents(fp);

    const bool outside = !fp.within_bounds(placement_.canvas_width(),
                                           placement_.canvas_height());
    if (outside != outside_[idx]) {
      outside_count_ += outside ? 1 : -1;
      outside_[idx] = outside;
    }

    if (!defects_.empty()) {
      const long long hits = defect_hits(fp);
      defect_total_ += hits - module_defect_hits_[idx];
      module_defect_hits_[idx] = hits;
    }
  }

  // Re-price only the conflicting pairs a touched module participates in
  // (stamped so a pair shared by both touched modules updates once, after
  // both footprints moved).
  for (int c = 0; c < move.count; ++c) {
    const std::size_t module = static_cast<std::size_t>(move.changes[c].index);
    const int begin = pair_offsets_[module];
    const int end = pair_offsets_[module + 1];
    for (int a = begin; a < end; ++a) {
      const int p = pair_adjacency_[static_cast<std::size_t>(a)];
      PairEntry& entry = pair_entries_[static_cast<std::size_t>(p)];
      if (pair_stamp_[static_cast<std::size_t>(p)] == stamp_) continue;
      pair_stamp_[static_cast<std::size_t>(p)] = stamp_;
      const long long overlap =
          footprints_[static_cast<std::size_t>(entry.i)].overlap_area(
              footprints_[static_cast<std::size_t>(entry.j)]);
      pending.old_pair_overlaps.emplace_back(p, entry.overlap);
      overlap_total_ += overlap - entry.overlap;
      entry.overlap = overlap;
    }
  }

  // Re-price touched routing-pressure links in place (same stamp; the
  // link stamps live in their own array, so reuse is safe).
  if (!link_entries_.empty()) {
    for (int c = 0; c < move.count; ++c) {
      const std::size_t module =
          static_cast<std::size_t>(move.changes[c].index);
      const int begin = link_offsets_[module];
      const int end = link_offsets_[module + 1];
      for (int a = begin; a < end; ++a) {
        const int p = link_adjacency_[static_cast<std::size_t>(a)];
        LinkEntry& entry = link_entries_[static_cast<std::size_t>(p)];
        if (link_stamp_[static_cast<std::size_t>(p)] == stamp_) continue;
        link_stamp_[static_cast<std::size_t>(p)] = stamp_;
        const long long cost = link_cost(entry);
        pending.old_link_costs.emplace_back(p, entry.cost);
        pressure_total_ += cost - entry.cost;
        entry.cost = cost;
      }
    }
  }

  bbox_ = bounding_box_from_extents();

  if (weights_.beta != 0.0) {
    // The evaluator patches exactly what the move touched: each moved
    // footprint's symmetric difference dirties its temporal neighbours'
    // occupancy/anchor grids, and the per-cell coverage state follows —
    // O(dirty) integer increments, inverted bit-exactly by revert().
    FtiIncrementalEvaluator::MovedModule fti_moves[2];
    for (int c = 0; c < move.count; ++c) {
      fti_moves[c].index = move.changes[c].index;
      fti_moves[c].from = pending.old_modules[c].footprint;
      fti_moves[c].to =
          footprints_[static_cast<std::size_t>(move.changes[c].index)];
    }
    fti_.update(placement_, bbox_, fti_moves, move.count,
                pending.fti_backup);
    covered_cells_ = fti_.covered_cells();
  }

  value_ = value_from_tallies();
  return value_ - pending.old_value;
}

double IncrementalPlacementState::commit() {
  Pending& pending = pending_;
  assert(pending.active);
  pending.active = false;
  if (pending.eager) return value_;

  // Lazy path: apply the staged move and candidate tallies (footprints_
  // was already updated by propose()).
  for (int c = 0; c < pending.move.count; ++c) {
    const ModuleMove& change = pending.move.changes[c];
    const std::size_t idx = static_cast<std::size_t>(change.index);
    placement_.set_position(change.index, change.anchor, change.rotated);
    outside_[idx] = pending.new_outside[c];
    module_defect_hits_[idx] = pending.new_defect_hits[c];
  }
  for (const auto& [p, overlap] : pending.new_pair_overlaps) {
    pair_entries_[static_cast<std::size_t>(p)].overlap = overlap;
  }
  for (const auto& [p, cost] : pending.new_link_costs) {
    link_entries_[static_cast<std::size_t>(p)].cost = cost;
  }
  overlap_total_ = pending.cand_overlap_total;
  defect_total_ = pending.cand_defect_total;
  pressure_total_ = pending.cand_pressure_total;
  outside_count_ = pending.cand_outside_count;
  bbox_ = pending.cand_bbox;
  value_ = pending.cand_value;
  return value_;
}

void IncrementalPlacementState::revert() {
  Pending& pending = pending_;
  assert(pending.active);
  pending.active = false;
  if (!pending.eager) {
    // Lazy proposals staged everything except the footprint cache.
    // Reverse order, like the eager undo: were a move ever to touch one
    // module twice, the first-saved (pre-move) footprint must win.
    for (int c = pending.move.count - 1; c >= 0; --c) {
      footprints_[static_cast<std::size_t>(pending.move.changes[c].index)] =
          pending.old_footprints[c];
    }
    return;
  }

  for (int c = pending.move.count - 1; c >= 0; --c) {
    const TouchedModule& old = pending.old_modules[c];
    const std::size_t idx = static_cast<std::size_t>(old.index);
    erase_extents(footprints_[idx]);
    placement_.set_position(old.index, old.anchor, old.rotated);
    footprints_[idx] = old.footprint;
    insert_extents(old.footprint);
    outside_[idx] = old.outside;
    module_defect_hits_[idx] = old.defect_hits;
  }
  outside_count_ = pending.old_outside_count;
  defect_total_ = pending.old_defect_total;
  for (const auto& [p, overlap] : pending.old_pair_overlaps) {
    pair_entries_[static_cast<std::size_t>(p)].overlap = overlap;
  }
  overlap_total_ = pending.old_overlap_total;
  for (const auto& [p, cost] : pending.old_link_costs) {
    link_entries_[static_cast<std::size_t>(p)].cost = cost;
  }
  pressure_total_ = pending.old_pressure_total;
  bbox_ = pending.old_bbox;
  if (weights_.beta != 0.0) {
    fti_.restore(pending.fti_backup);
    covered_cells_ = pending.old_covered;
  }
  value_ = pending.old_value;
}

}  // namespace dmfb
