// greedy_placer.h — the paper's baseline placement (§6.1) and the
// constructive initial placement for annealing (§4a).
//
// Modules are sorted by decreasing footprint area; each is placed at the
// first (bottom-left-most) location where it fits without overlapping any
// already-placed module whose time interval intersects its own.
#pragma once

#include <vector>

#include "assay/schedule.h"
#include "core/placement.h"

namespace dmfb {

/// Places `schedule`'s modules greedily on a canvas. Positions whose
/// footprint would cover a cell of `defects` are skipped (defect-aware
/// constructive placement over a manufacturing defect map). Throws
/// std::runtime_error when some module cannot be placed.
Placement place_greedy(const Schedule& schedule, int canvas_width,
                       int canvas_height,
                       const std::vector<Point>& defects = {});

/// Greedy placement of an existing Placement's modules (anchors are
/// overwritten; orientations reset to canonical). Used to build the
/// annealer's initial configuration.
void greedy_reset(Placement& placement,
                  const std::vector<Point>& defects = {});

}  // namespace dmfb
