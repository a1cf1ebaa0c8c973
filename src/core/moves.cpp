#include "core/moves.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace dmfb {

const char* to_string(MoveKind kind) {
  switch (kind) {
    case MoveKind::kDisplace:
      return "displace";
    case MoveKind::kDisplaceRotate:
      return "displace-rotate";
    case MoveKind::kSwap:
      return "swap";
    case MoveKind::kSwapRotate:
      return "swap-rotate";
  }
  return "?";
}

template <>
MoveKind from_string<MoveKind>(std::string_view text) {
  if (text == "displace") return MoveKind::kDisplace;
  if (text == "displace-rotate") return MoveKind::kDisplaceRotate;
  if (text == "swap") return MoveKind::kSwap;
  if (text == "swap-rotate") return MoveKind::kSwapRotate;
  throw std::invalid_argument(
      "unknown MoveKind \"" + std::string(text) +
      "\" (expected one of: displace, displace-rotate, swap, swap-rotate)");
}

std::ostream& operator<<(std::ostream& os, MoveKind kind) {
  return os << to_string(kind);
}

std::istream& operator>>(std::istream& is, MoveKind& kind) {
  std::string token;
  is >> token;
  kind = from_string<MoveKind>(token);
  return is;
}

namespace {

/// Clamps `anchor` so a footprint of module `index`'s spec in the given
/// orientation stays inside the canvas (a footprint too large for the
/// canvas pins to 0 instead of handing std::clamp an inverted range).
Point clamp_anchor(const Placement& placement, int index, bool rotated,
                   Point anchor) {
  // modules()[...] over module(): index is in range by construction and
  // this sits in the proposal loop.
  const auto& spec = placement.modules()[static_cast<std::size_t>(index)].spec;
  const int w = rotated ? spec.footprint_height() : spec.footprint_width();
  const int h = rotated ? spec.footprint_width() : spec.footprint_height();
  const int max_x = std::max(0, placement.canvas_width() - w);
  const int max_y = std::max(0, placement.canvas_height() - h);
  return Point{std::clamp(anchor.x, 0, max_x), std::clamp(anchor.y, 0, max_y)};
}

/// Orientation after a requested flip; square footprints are
/// rotation-invariant so flipping them would be a null move. Returns
/// whether the orientation actually changed.
bool flipped_orientation(const Placement& placement, int index,
                         bool& rotated) {
  const auto& m = placement.module(index);
  rotated = m.rotated;
  if (m.spec.square()) return false;
  rotated = !m.rotated;
  return true;
}

}  // namespace

Point max_anchor(const Placement& placement, int index) {
  const auto& m = placement.module(index);
  const Rect fp = m.footprint();
  return Point{placement.canvas_width() - fp.width,
               placement.canvas_height() - fp.height};
}

int controlling_window_span(const Placement& placement,
                            double temperature_fraction,
                            const MoveOptions& options) {
  const int full_span =
      std::max(placement.canvas_width(), placement.canvas_height());
  if (!options.use_controlling_window) return full_span;
  const double fraction = std::clamp(temperature_fraction, 0.0, 1.0);
  // Round-half-up — identical to lround for these non-negative values,
  // without the libm call (this sits in the annealer's proposal loop).
  const int span = static_cast<int>(full_span * fraction + 0.5);
  return std::max(options.min_window, span);
}

PlacementMove generate_random_move(const Placement& placement,
                                   double temperature_fraction,
                                   const MoveOptions& options, Rng& rng) {
  return generate_random_move_with_span(
      placement,
      controlling_window_span(placement, temperature_fraction, options),
      options, rng);
}

PlacementMove generate_random_move_with_span(const Placement& placement,
                                             int window_span,
                                             const MoveOptions& options,
                                             Rng& rng) {
  PlacementMove move;
  const int count = placement.module_count();
  if (count == 0) return move;

  const bool single =
      count < 2 || rng.next_bool(options.single_move_probability);
  const bool rotate = rng.next_bool(options.rotate_probability);

  if (single) {
    const int index = static_cast<int>(rng.next_below(count));
    const int span = window_span;
    const PlacedModule& m =
        placement.modules()[static_cast<std::size_t>(index)];
    const Point current = m.anchor;
    bool rotated = m.rotated;
    const bool flipped =
        rotate && flipped_orientation(placement, index, rotated);
    const Point target{current.x + rng.next_int(-span, span),
                       current.y + rng.next_int(-span, span)};
    move.kind = flipped ? MoveKind::kDisplaceRotate : MoveKind::kDisplace;
    move.count = 1;
    move.changes[0] = ModuleMove{
        index, clamp_anchor(placement, index, rotated, target), rotated};
    return move;
  }

  // Pair interchange.
  const int i = static_cast<int>(rng.next_below(count));
  int j = static_cast<int>(rng.next_below(count - 1));
  if (j >= i) ++j;

  const Point anchor_i = placement.module(i).anchor;
  const Point anchor_j = placement.module(j).anchor;
  bool rotated_i = placement.module(i).rotated;
  bool rotated_j = placement.module(j).rotated;
  bool flipped = false;
  if (rotate) {
    // Move (iv): at least one module of the pair changes orientation.
    if (rng.next_bool(0.5)) {
      flipped = flipped_orientation(placement, i, rotated_i);
    } else {
      flipped = flipped_orientation(placement, j, rotated_j);
    }
  }
  move.kind = flipped ? MoveKind::kSwapRotate : MoveKind::kSwap;
  move.count = 2;
  move.changes[0] = ModuleMove{
      i, clamp_anchor(placement, i, rotated_i, anchor_j), rotated_i};
  move.changes[1] = ModuleMove{
      j, clamp_anchor(placement, j, rotated_j, anchor_i), rotated_j};
  return move;
}

void apply_move(Placement& placement, const PlacementMove& move) {
  for (int c = 0; c < move.count; ++c) {
    const ModuleMove& change = move.changes[c];
    placement.set_position(change.index, change.anchor, change.rotated);
  }
}

MoveKind apply_random_move(Placement& placement, double temperature_fraction,
                           const MoveOptions& options, Rng& rng) {
  const PlacementMove move =
      generate_random_move(placement, temperature_fraction, options, rng);
  apply_move(placement, move);
  return move.kind;
}

}  // namespace dmfb
