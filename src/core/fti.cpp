#include "core/fti.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace dmfb {

FtiResult evaluate_fti(const Placement& placement, const FtiOptions& options,
                       std::optional<Rect> region_opt) {
  const Rect region = region_opt.value_or(placement.bounding_box());
  FtiResult result;
  result.array = region;
  result.total_cells = region.area();
  result.covered = Matrix<std::uint8_t>(region.width, region.height, 1);
  if (region.empty()) return result;

  FtiIncrementalEvaluator evaluator(options);
  FtiIncrementalEvaluator::Backup backup;
  evaluator.update(placement, region, nullptr, 0, backup);
  for (int y = 0; y < region.height; ++y) {
    for (int x = 0; x < region.width; ++x) {
      if (!evaluator.is_cell_covered(Point{region.x + x, region.y + y})) {
        result.covered.at(x, y) = 0;
      }
    }
  }
  result.covered_cells = evaluator.covered_cells();
  return result;
}

// --- incremental evaluator --------------------------------------------

namespace {

/// Anchor clamp rectangle for a w-by-h footprint over `region`, in
/// absolute coordinates: the anchors whose footprint lies entirely
/// inside the region (empty when the region cannot hold the footprint)
/// — the clamp the summed-area-table oracle encodes structurally by
/// building its tables over the region alone.
Rect anchor_clamp(const Rect& region, int w, int h) {
  return Rect{region.x, region.y, region.width - w + 1,
              region.height - h + 1};
}

/// ORs `row` shifted down by `shift` bits into itself: bit i gains bit
/// i + shift, across word boundaries. Ascending order reads every word
/// before it is written.
void or_shifted_down(std::uint64_t* row, int words, int shift) {
  const int word_shift = shift / 64;
  const int bit_shift = shift % 64;
  for (int k = 0; k + word_shift < words; ++k) {
    const int src = k + word_shift;
    std::uint64_t carried = row[src] >> bit_shift;
    if (bit_shift != 0 && src + 1 < words) {
      carried |= row[src + 1] << (64 - bit_shift);
    }
    row[k] |= carried;
  }
}

/// Bits [lo, hi) of word `k` of a row (bit positions row-relative).
std::uint64_t word_mask(int k, int lo, int hi) {
  const int first = std::max(lo - 64 * k, 0);
  const int last = std::min(hi - 64 * k, 64);
  if (first >= last) return 0;
  const std::uint64_t below_last =
      last == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << last) - 1;
  return below_last & (~std::uint64_t{0} << first);
}

/// Count and bounding box (absolute coordinates) of the valid anchors
/// of a w-by-h footprint over bitboard `occupied` (`words` words per
/// domain row) inside the absolute clamp rectangle, which lies in the
/// domain's anchor area. Each anchor row ORs the footprint's h bitboard
/// rows and dilates them across w columns by shift-OR, so a clear bit x
/// marks a free footprint at x. The scan stops early once the anchors provably
/// spread wider than one footprint (bbox wider than w or taller than
/// h): that alone makes the orientation block nothing, and the caller
/// never needs the exact count (`spread` set, count/bbox partial).
struct AnchorStats {
  long long count = 0;
  Rect bbox;  ///< absolute; empty when count == 0
  bool spread = false;  ///< anchors provably spread beyond one footprint
};

AnchorStats scan_anchors(const std::vector<std::uint64_t>& occupied,
                         int words, const Rect& domain, int w, int h,
                         const Rect& clamp,
                         std::vector<std::uint64_t>& row) {
  AnchorStats stats;
  if (clamp.empty()) return stats;
  // The clamp already lies in the domain's anchor area: update()
  // rebuilds whenever a non-empty region leaves the domain, so the
  // region, and with it every anchor of a footprint inside it, is in it.
  const Rect local{clamp.x - domain.x, clamp.y - domain.y, clamp.width,
                   clamp.height};
  // Only the words holding clamp anchors or the footprint cells to
  // their right take part: `span` words from `first_word`, the first
  // half of `row` the anchor row being derived, the second its clamp
  // mask.
  const int first_word = local.x / 64;
  const int span = (local.right() + w - 2) / 64 - first_word + 1;
  row.resize(2 * static_cast<std::size_t>(span));
  std::uint64_t* blocked = row.data();
  std::uint64_t* clamp_mask = blocked + span;
  for (int k = 0; k < span; ++k) {
    clamp_mask[k] = word_mask(k, local.x - 64 * first_word,
                              local.right() - 64 * first_word);
  }
  const std::uint64_t* rows = occupied.data() + first_word;
  int min_x = 0, max_x = 0, min_y = 0, max_y = 0;
  for (int y = local.y; y < local.top(); ++y) {
    // Bit x of `blocked`: some footprint row has an occupied cell in
    // column x, then (dilation) in columns [x, x + w).
    const std::uint64_t* src = rows + static_cast<std::size_t>(y) * words;
    std::copy(src, src + span, blocked);
    for (int dy = 1; dy < h; ++dy) {
      src += words;
      for (int k = 0; k < span; ++k) blocked[k] |= src[k];
    }
    for (int covered = 1; covered < w;) {
      const int shift = std::min(covered, w - covered);
      or_shifted_down(blocked, span, shift);
      covered += shift;
    }
    int row_min = -1, row_max = 0;
    for (int k = 0; k < span; ++k) {
      const std::uint64_t free = ~blocked[k] & clamp_mask[k];
      if (free == 0) continue;
      if (row_min < 0) row_min = 64 * k + std::countr_zero(free);
      row_max = 64 * k + 63 - std::countl_zero(free);
    }
    if (row_min < 0) continue;
    row_min += 64 * first_word;
    row_max += 64 * first_word;
    if (stats.count == 0) {
      min_x = row_min;
      max_x = row_max;
      min_y = y;
    } else {
      min_x = std::min(min_x, row_min);
      max_x = std::max(max_x, row_max);
    }
    max_y = y;  // rows scanned bottom-up: the last hit is the top
    if (max_x - min_x + 1 > w || max_y - min_y + 1 > h) {
      stats.spread = true;
      return stats;
    }
    for (int k = 0; k < span; ++k) {
      stats.count += std::popcount(~blocked[k] & clamp_mask[k]);
    }
  }
  if (stats.count > 0) {
    stats.bbox = Rect{domain.x + min_x, domain.y + min_y, max_x - min_x + 1,
                      max_y - min_y + 1};
  }
  return stats;
}

/// Appends the up-to-four rectangles of `a` minus `b` to `out`.
int subtract_rect(const Rect& a, const Rect& b, Rect out[4]) {
  const Rect inter = a.intersection(b);
  if (inter.empty()) {
    out[0] = a;
    return a.empty() ? 0 : 1;
  }
  int count = 0;
  if (inter.x > a.x) {
    out[count++] = Rect{a.x, a.y, inter.x - a.x, a.height};
  }
  if (inter.right() < a.right()) {
    out[count++] =
        Rect{inter.right(), a.y, a.right() - inter.right(), a.height};
  }
  if (inter.y > a.y) {
    out[count++] = Rect{inter.x, a.y, inter.width, inter.y - a.y};
  }
  if (inter.top() < a.top()) {
    out[count++] =
        Rect{inter.x, inter.top(), inter.width, a.top() - inter.top()};
  }
  return count;
}

}  // namespace

void FtiIncrementalEvaluator::build_module(const Placement& placement,
                                           int index) {
  // The occupancy counts hold every temporal neighbour's footprint,
  // clipped to the shared, region-covering domain. Region bounds are
  // applied by the clamped count/extreme queries.
  ModuleGrids& grids = queries_[static_cast<std::size_t>(index)];
  const int grid_w = domain_.width;
  const int grid_h = domain_.height;
  const int words = words_per_row();
  grids.occupancy.reset(grid_w, grid_h, 0);
  grids.occupied.assign(static_cast<std::size_t>(words) * grid_h, 0);
  for (const int neighbor : neighbors_[static_cast<std::size_t>(index)]) {
    Rect fp = placement.module(neighbor).footprint();
    fp.x -= domain_.x;
    fp.y -= domain_.y;
    const Rect clipped = fp.intersection(Rect{0, 0, grid_w, grid_h});
    for (int y = clipped.y; y < clipped.top(); ++y) {
      std::uint64_t* bits =
          &grids.occupied[static_cast<std::size_t>(y) * words];
      for (int x = clipped.x; x < clipped.right(); ++x) {
        ++grids.occupancy.at(x, y);
        bits[x >> 6] |= std::uint64_t{1} << (x & 63);
      }
    }
  }
  const ModuleSpec& spec = placement.module(index).spec;
  const int w = spec.footprint_width();
  const int h = spec.footprint_height();
  grids.orientation_count = (options_.allow_rotation && w != h) ? 2 : 1;
  grids.orientations[0] = Orientation{w, h};
  grids.orientations[1] = Orientation{h, w};
}

void FtiIncrementalEvaluator::apply_move_delta(int mover, const Rect& from,
                                               const Rect& to,
                                               std::uint64_t touch_stamp) {
  if (from == to) return;
  // Only the symmetric difference changes anyone's occupancy — a
  // one-cell displacement touches two thin strips, not two footprints.
  Rect removed[4];
  Rect added[4];
  const int removed_count = subtract_rect(from, to, removed);
  const int added_count = subtract_rect(to, from, added);

  // The strips in domain coordinates, the same for every neighbour.
  struct Strip {
    Rect cells;
    std::uint16_t delta;  ///< +1 or -1 (mod 2^16)
    std::uint16_t edge;   ///< count before a 0-crossing
  };
  Strip strips[8];
  int strip_count = 0;
  const Rect bounds{0, 0, domain_.width, domain_.height};
  const auto add_strips = [&](const Rect* rects, int n, bool adding) {
    for (int r = 0; r < n; ++r) {
      Rect local = rects[r];
      local.x -= domain_.x;
      local.y -= domain_.y;
      local = local.intersection(bounds);
      if (local.empty()) continue;
      strips[strip_count++] =
          Strip{local, static_cast<std::uint16_t>(adding ? 1 : 0xFFFF),
                static_cast<std::uint16_t>(adding ? 0 : 1)};
    }
  };
  add_strips(removed, removed_count, false);
  add_strips(added, added_count, true);

  const int words = words_per_row();
  for (const int neighbor : neighbors_[static_cast<std::size_t>(mover)]) {
    ModuleGrids& grids = queries_[static_cast<std::size_t>(neighbor)];
    // A count crossing 0 flips the cell between covered and free: one
    // bitboard bit, gathered branch-free per word. Anchor validity is
    // re-read by the next derive, so no further bookkeeping happens
    // here.
    std::uint64_t crossed = 0;
    for (int s = 0; s < strip_count; ++s) {
      const Strip& strip = strips[s];
      const Rect& cells = strip.cells;
      for (int y = cells.y; y < cells.top(); ++y) {
        std::uint16_t* counts = &grids.occupancy.at(0, y);
        std::uint64_t* bits =
            &grids.occupied[static_cast<std::size_t>(y) * words];
        for (int x = cells.x; x < cells.right();) {
          const int word = x >> 6;
          const int end = std::min(cells.right(), (word + 1) * 64);
          std::uint64_t toggles = 0;
          for (; x < end; ++x) {
            const std::uint16_t before = counts[x];
            counts[x] = static_cast<std::uint16_t>(before + strip.delta);
            toggles |= std::uint64_t{before == strip.edge} << (x & 63);
          }
          bits[word] ^= toggles;
          crossed |= toggles;
        }
      }
    }
    if (crossed != 0 && touch_stamp != 0) {
      visit_stamp_[static_cast<std::size_t>(neighbor)] = touch_stamp;
    }
  }
}

FtiIncrementalEvaluator::ModuleBlock FtiIncrementalEvaluator::derive_stats(
    int index) const {
  const ModuleGrids& grids = queries_[static_cast<std::size_t>(index)];
  ModuleBlock stats;
  bool any_anchor = false;
  bool core_started = false;
  bool core_empty = false;
  Rect core;
  for (int o = 0; o < grids.orientation_count; ++o) {
    if (any_anchor && core_empty) {
      // Outcome decided: relocatable, blocks nothing. Mark the stats
      // unknown (-1) so the region certificates re-derive instead of
      // trusting them.
      stats.anchors[o] = -1;
      stats.anchor_bbox[o] = Rect{};
      continue;
    }
    const Orientation& orientation = grids.orientations[o];
    const int w = orientation.w;
    const int h = orientation.h;
    const AnchorStats scanned =
        scan_anchors(grids.occupied, words_per_row(), domain_, w, h,
                     anchor_clamp(region_, w, h), scan_row_);
    // An orientation without region-valid anchors offers no relocation at
    // all; it constrains the blocked-cell intersection with "everything".
    if (scanned.count == 0 && !scanned.spread) {
      stats.anchors[o] = 0;
      stats.anchor_bbox[o] = Rect{};
      continue;
    }
    any_anchor = true;
    if (scanned.spread) {
      // The anchors provably spread wider than one footprint: this
      // orientation blocks nothing, and the exact count/extremes were
      // never finished — sentinel as above.
      stats.anchors[o] = -1;
      stats.anchor_bbox[o] = Rect{};
      core_started = true;
      core_empty = true;
      continue;
    }
    stats.anchors[o] = scanned.count;
    stats.anchor_bbox[o] = scanned.bbox;
    if (core_empty) continue;
    // The cells every valid anchor's footprint shares: [max anchor,
    // min anchor + extent) per axis — empty as soon as the anchors
    // spread further apart than one footprint reaches.
    const Rect& bb = scanned.bbox;
    const Rect common{bb.right() - 1, bb.top() - 1, w - bb.width + 1,
                      h - bb.height + 1};
    if (common.empty()) {
      core_started = true;
      core_empty = true;
      continue;
    }
    core = core_started ? core.intersection(common) : common;
    core_started = true;
    core_empty = core.empty();
  }
  stats.unrelocatable = !any_anchor;
  stats.core = core_empty ? Rect{} : core;
  stats.stats_region = region_;
  return stats;
}

void FtiIncrementalEvaluator::clip_block(int index,
                                         const Placement& placement,
                                         ModuleBlock& stats) const {
  const Rect fp_in_region =
      placement.module(index).footprint().intersection(region_);
  stats.block = stats.unrelocatable
                    ? fp_in_region
                    : fp_in_region.intersection(stats.core);
}

void FtiIncrementalEvaluator::grid_ensure(const Rect& rect) {
  if (grid_bounds_.contains(rect)) return;
  // Grown with slack so low-temperature bounding-box drift re-allocates
  // rarely; counts are preserved cell for cell.
  const Rect grown = grid_bounds_.united(rect).inflated(8);
  Matrix<std::uint16_t> next(grown.width, grown.height, 0);
  for (int y = 0; y < grid_bounds_.height; ++y) {
    for (int x = 0; x < grid_bounds_.width; ++x) {
      next.at(x + grid_bounds_.x - grown.x, y + grid_bounds_.y - grown.y) =
          grid_.at(x, y);
    }
  }
  grid_ = std::move(next);
  grid_bounds_ = grown;
}

void FtiIncrementalEvaluator::grid_add(const Rect& rect) {
  if (rect.empty()) return;
  grid_ensure(rect);
  for (int y = rect.y; y < rect.top(); ++y) {
    for (int x = rect.x; x < rect.right(); ++x) {
      std::uint16_t& count =
          grid_.at(x - grid_bounds_.x, y - grid_bounds_.y);
      if (count++ == 0) ++blocked_;
    }
  }
}

void FtiIncrementalEvaluator::grid_remove(const Rect& rect) {
  if (rect.empty()) return;
  for (int y = rect.y; y < rect.top(); ++y) {
    for (int x = rect.x; x < rect.right(); ++x) {
      std::uint16_t& count =
          grid_.at(x - grid_bounds_.x, y - grid_bounds_.y);
      if (--count == 0) --blocked_;
    }
  }
}

void FtiIncrementalEvaluator::apply_block(int index, const ModuleBlock& fresh,
                                          Backup& backup) {
  ModuleBlock& current = blocks_[static_cast<std::size_t>(index)];
  backup.some_blocks.emplace_back(index, current);
  grid_remove(current.block);
  grid_add(fresh.block);
  current = fresh;
}

void FtiIncrementalEvaluator::update(const Placement& placement,
                                     const Rect& region,
                                     const MovedModule* moved,
                                     int moved_count, Backup& backup) {
  const int count = placement.module_count();
  backup.region = region_;
  backup.full = false;
  backup.all.clear();
  backup.all_blocks.clear();
  backup.some_blocks.clear();
  backup.moved_count = 0;

  const Rect canvas{0, 0, placement.canvas_width(),
                    placement.canvas_height()};
  // Full (re)builds happen on first use and when the region outgrows
  // the shared domain — never on the steady-state proposal path, where
  // the domain is the (fixed) canvas.
  if (queries_.size() != static_cast<std::size_t>(count) ||
      (!region.empty() && !domain_.contains(region))) {
    backup.full = true;
    backup.all = std::move(queries_);
    backup.all_blocks = std::move(blocks_);
    backup.grid = std::move(grid_);
    backup.grid_bounds = grid_bounds_;
    backup.domain = domain_;
    backup.blocked = blocked_;

    neighbors_.assign(static_cast<std::size_t>(count), {});
    for (const auto& [i, j] : placement.conflicting_pairs()) {
      neighbors_[static_cast<std::size_t>(i)].push_back(j);
      neighbors_[static_cast<std::size_t>(j)].push_back(i);
    }
    visit_stamp_.assign(static_cast<std::size_t>(count), 0);
    stamp_ = 0;

    region_ = region;
    domain_ = canvas.united(region);
    queries_.assign(static_cast<std::size_t>(count), ModuleGrids{});
    blocks_.assign(static_cast<std::size_t>(count), ModuleBlock{});
    grid_ = Matrix<std::uint16_t>{};
    grid_bounds_ = Rect{};
    blocked_ = 0;
    if (!region.empty()) grid_ensure(region);
    for (int i = 0; i < count; ++i) {
      build_module(placement, i);
      ModuleBlock& block = blocks_[static_cast<std::size_t>(i)];
      block = derive_stats(i);
      clip_block(i, placement, block);
      grid_add(block.block);
    }
    return;
  }

  const Rect old_region = region_;
  region_ = region;
  const bool region_changed = !(region == old_region);

  backup.moved_count = moved_count;
  const std::uint64_t touch_stamp = ++stamp_;
  for (int c = 0; c < moved_count; ++c) {
    backup.moved[c] = moved[c];
    apply_move_delta(moved[c].index, moved[c].from, moved[c].to,
                     touch_stamp);
  }

  const std::uint64_t refresh_stamp = ++stamp_;
  // Dirtied neighbours whose occupancy actually crossed: their anchor
  // sets changed, so re-derive their stats (one clamp scan per
  // orientation). Neighbours the move patched without any crossing keep
  // identical bitboards and fall through to the region handling below.
  for (int c = 0; c < moved_count; ++c) {
    for (const int neighbor :
         neighbors_[static_cast<std::size_t>(moved[c].index)]) {
      const std::size_t n = static_cast<std::size_t>(neighbor);
      if (visit_stamp_[n] != touch_stamp) continue;
      visit_stamp_[n] = refresh_stamp;
      ModuleBlock fresh = derive_stats(neighbor);
      clip_block(neighbor, placement, fresh);
      if (!(fresh == blocks_[n])) apply_block(neighbor, fresh, backup);
    }
  }

  if (!region_changed) {
    // Same region, same anchor sets: only the moved modules' coverage
    // contribution can still change — their block follows their
    // footprint under the cached core, no anchor queries at all.
    for (int c = 0; c < moved_count; ++c) {
      const std::size_t i = static_cast<std::size_t>(moved[c].index);
      if (visit_stamp_[i] == refresh_stamp) continue;
      visit_stamp_[i] = refresh_stamp;
      ModuleBlock fresh = blocks_[i];
      clip_block(moved[c].index, placement, fresh);
      if (!(fresh == blocks_[i])) apply_block(moved[c].index, fresh, backup);
    }
    return;
  }

  // The region moved under everyone — but almost nobody's block
  // actually changes, and two monotonicity certificates prove it
  // without scanning any bitboard. Growth: a region containing the
  // stats' reference region only gains anchors, and a gained anchor can
  // only shrink the blocked-cell intersection — an empty core stays
  // empty, so the (empty) block stands. Shrink: a region inside the
  // reference whose clamp still contains every cached anchor bounding
  // box leaves the anchor sets — and so the stats — exactly as derived;
  // only the footprint clip can move the block. Everything else pays
  // one derive (a clamp scan per orientation).
  (void)old_region;
  for (int index = 0; index < count; ++index) {
    const std::size_t i = static_cast<std::size_t>(index);
    if (visit_stamp_[i] == refresh_stamp) continue;
    const ModuleBlock& current = blocks_[i];
    const ModuleGrids& grids = queries_[i];

    if (!current.unrelocatable && current.core.empty() &&
        region.contains(current.stats_region)) {
      continue;  // grown region, provably still-empty core: block empty
    }
    if (current.stats_region.contains(region)) {
      bool sets_unchanged = true;
      for (int o = 0; o < grids.orientation_count; ++o) {
        if (current.anchors[o] == 0) continue;  // empty shrinks to empty
        const Orientation& orientation = grids.orientations[o];
        // Unknown (sentinel, -1) stats have an empty bbox, which
        // contains() rejects — they always re-derive.
        if (!anchor_clamp(region, orientation.w, orientation.h)
                 .contains(current.anchor_bbox[o])) {
          sets_unchanged = false;
          break;
        }
      }
      if (sets_unchanged) {
        ModuleBlock fresh = current;
        clip_block(index, placement, fresh);
        if (!(fresh == current)) apply_block(index, fresh, backup);
        continue;
      }
    }
    ModuleBlock fresh = derive_stats(index);
    clip_block(index, placement, fresh);
    if (!(fresh == current)) apply_block(index, fresh, backup);
  }
}

void FtiIncrementalEvaluator::restore(Backup& backup) {
  region_ = backup.region;
  if (backup.full) {
    queries_ = std::move(backup.all);
    blocks_ = std::move(backup.all_blocks);
    grid_ = std::move(backup.grid);
    grid_bounds_ = backup.grid_bounds;
    domain_ = backup.domain;
    blocked_ = backup.blocked;
    return;
  }
  // The count patches are exact integer increments and each 0-crossing
  // toggles its bit back: applying the swapped deltas in reverse order
  // undoes them bit for bit.
  for (int c = backup.moved_count - 1; c >= 0; --c) {
    apply_move_delta(backup.moved[c].index, backup.moved[c].to,
                     backup.moved[c].from);
  }
  backup.moved_count = 0;
  for (auto& [index, saved] : backup.some_blocks) {
    grid_remove(blocks_[static_cast<std::size_t>(index)].block);
    grid_add(saved.block);
    blocks_[static_cast<std::size_t>(index)] = saved;
  }
}

bool FtiIncrementalEvaluator::is_cell_covered(Point cell) const {
  if (!region_.contains(cell)) return false;
  if (!grid_bounds_.contains(Rect{cell.x, cell.y, 1, 1})) return true;
  return grid_.at(cell.x - grid_bounds_.x, cell.y - grid_bounds_.y) == 0;
}

}  // namespace dmfb
