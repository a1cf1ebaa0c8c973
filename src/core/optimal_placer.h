// optimal_placer.h — exact branch-and-bound placement for small instances.
//
// The paper's placement problem is NP-complete (§4), so the annealer is a
// heuristic; this module provides ground truth for instances small enough
// to enumerate, letting tests and the ablation bench measure the SA
// optimality gap exactly.
//
// The search normalizes candidate anchors: for a minimum-bounding-box
// packing there is always an optimal solution in which every module's
// anchor coordinates are 0 or flush against an edge of some temporally
// overlapping module (push-left/push-down argument), so only those
// positions are branched on.
#pragma once

#include <optional>

#include "assay/schedule.h"
#include "core/placement.h"

namespace dmfb {

/// Configuration of the exact search.
struct OptimalPlacerOptions {
  int max_modules = 8;            ///< refuse instances larger than this
  bool allow_rotation = true;
  long long max_nodes = 50'000'000;  ///< search-node budget (throws beyond)
};

/// Result of the exact search.
struct OptimalResult {
  Placement placement;
  long long area_cells = 0;
  long long nodes_visited = 0;
};

/// Finds a placement of provably minimum bounding-box area. Throws
/// std::invalid_argument for instances over options.max_modules and
/// std::runtime_error when the node budget is exhausted.
OptimalResult place_optimal(const Schedule& schedule,
                            const OptimalPlacerOptions& options = {});

}  // namespace dmfb
