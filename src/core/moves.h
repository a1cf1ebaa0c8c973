// moves.h — the annealer's generation function (§4b-c of the paper).
//
// Four move types: (i) single-module displacement to a random location,
// (ii) displacement with orientation change, (iii) pair interchange,
// (iv) pair interchange with at least one orientation change. Probability
// p selects single-module displacement, 1-p pair interchange; the ratio is
// set experimentally (the ablation bench sweeps it). A temperature-
// controlled window discourages long displacements at low temperatures.
#pragma once

#include <iosfwd>

#include "core/placement.h"
#include "util/enum_text.h"
#include "util/rng.h"

namespace dmfb {

/// Which of the paper's four generation moves was applied.
enum class MoveKind {
  kDisplace,          ///< (i)
  kDisplaceRotate,    ///< (ii)
  kSwap,              ///< (iii)
  kSwapRotate,        ///< (iv)
};

/// Textual round-trip ("displace", "displace-rotate", "swap",
/// "swap-rotate") for logs and ablation configs; `from_string` and `>>`
/// throw std::invalid_argument on unknown text.
const char* to_string(MoveKind kind);
template <>
MoveKind from_string<MoveKind>(std::string_view text);
std::ostream& operator<<(std::ostream& os, MoveKind kind);
std::istream& operator>>(std::istream& is, MoveKind& kind);

/// Move-generation tuning.
struct MoveOptions {
  /// p — probability of a single-module move (vs. a pair interchange).
  double single_move_probability = 0.8;
  /// Among single moves, probability that the orientation also changes
  /// (move (ii) instead of (i)); likewise for pair moves (iv) vs (iii).
  double rotate_probability = 0.3;
  /// Enables the controlling window (§4c). When false, displacements are
  /// uniform over the canvas at any temperature (ablation A2).
  bool use_controlling_window = true;
  /// Minimum window half-span; the stopping criterion corresponds to the
  /// window reaching this.
  int min_window = 1;
};

/// One module's final state under a proposed move.
struct ModuleMove {
  int index = -1;
  Point anchor{0, 0};
  bool rotated = false;
};

/// A generated move as a value: the final (anchor, orientation) of every
/// touched module (one for displacements, two for pair interchanges). The
/// delta-cost annealing engine applies and undoes these without copying
/// the placement; `apply_random_move` is a generate + apply pair, so the
/// engine and its copying oracle (tests/oracles/) draw the identical
/// random stream and stay seed-for-seed reproducible against each other.
struct PlacementMove {
  MoveKind kind = MoveKind::kDisplace;
  int count = 0;          ///< touched modules (0 on an empty placement)
  ModuleMove changes[2];  ///< entries [0, count)
};

/// Draws one random move against `placement` without mutating it.
/// `temperature_fraction` is T / T0 in [0, 1] and scales the controlling
/// window. Anchors are clamped so footprints stay inside the canvas
/// (Fig. 4(a): modules are prevented from leaving the core area).
PlacementMove generate_random_move(const Placement& placement,
                                   double temperature_fraction,
                                   const MoveOptions& options, Rng& rng);

/// Same, with the controlling-window half-span precomputed (it depends
/// only on the canvas and the temperature fraction, so the annealing
/// loop hoists it per temperature step instead of re-deriving it per
/// proposal). Consumes the exact same random draws in the same order as
/// `generate_random_move`, so both stay stream-identical.
PlacementMove generate_random_move_with_span(const Placement& placement,
                                             int window_span,
                                             const MoveOptions& options,
                                             Rng& rng);

/// Applies a generated move to `placement` (the caller re-evaluates cost).
void apply_move(Placement& placement, const PlacementMove& move);

/// Applies one random move to `placement` in place — exactly
/// `apply_move(placement, generate_random_move(placement, ...))`.
/// Returns the move kind applied.
MoveKind apply_random_move(Placement& placement, double temperature_fraction,
                           const MoveOptions& options, Rng& rng);

/// Largest legal anchor for module `index` given its current orientation.
Point max_anchor(const Placement& placement, int index);

/// Half-span of the controlling window for the given temperature fraction:
/// from the full canvas extent at T = T0 down to options.min_window.
int controlling_window_span(const Placement& placement,
                            double temperature_fraction,
                            const MoveOptions& options);

}  // namespace dmfb
