// kamer_placer.h — online first-fit/best-fit placement over maximal empty
// rectangles, in the style of Bazargan et al.'s KAMER placer for
// dynamically reconfigurable FPGAs ([11] in the paper). The paper contrasts
// its annealing approach with exactly this family of template placers;
// implementing it gives the natural online baseline: modules are placed in
// start-time order into a maximal empty rectangle of the configuration
// they arrive at, with no global optimization.
#pragma once

#include <optional>
#include <string>

#include "assay/schedule.h"
#include "core/placement.h"
#include "core/reconfig.h"

namespace dmfb {

/// Result of an online placement run.
struct KamerResult {
  bool success = false;           ///< every module found a home
  Placement placement;            ///< valid iff success
  std::string failure_reason;     ///< which module failed, when
  int modules_placed = 0;
};

/// Places modules in order of start time (ties: larger footprint first)
/// onto a fixed array of `array_width` x `array_height` cells. Each module
/// goes into a maximal empty rectangle — w.r.t. the modules it overlaps in
/// time — chosen by `policy` (kBestFit mirrors KAMER's default), anchored
/// at the rectangle's bottom-left. Orientation is tried canonical first,
/// then rotated when `allow_rotation`.
KamerResult place_kamer(const Schedule& schedule, int array_width,
                        int array_height,
                        RelocationPolicy policy = RelocationPolicy::kBestFit,
                        bool allow_rotation = true);

/// Smallest square array on which the KAMER placer succeeds, searched by
/// increasing the side length from the largest module dimension. Returns
/// nullopt when no side up to `max_side` works.
std::optional<KamerResult> smallest_kamer_array(const Schedule& schedule,
                                                int max_side,
                                                RelocationPolicy policy =
                                                    RelocationPolicy::kBestFit);

}  // namespace dmfb
