// sa_placer.h — simulated-annealing module placement (§4 of the paper).
//
// Operates directly on physical coordinates, sizes and orientations of the
// modules (no problem encoding); infeasible intermediate placements are
// allowed and priced by an overlap penalty the annealer drives to zero.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "assay/schedule.h"
#include "core/annealer.h"
#include "core/cost.h"
#include "core/moves.h"
#include "core/placement.h"
#include "util/deprecation.h"

namespace dmfb {

/// Everything configurable about one annealing run.
struct SaPlacerOptions {
  int canvas_width = 24;   ///< core-area bound (Fig. 4(a))
  int canvas_height = 24;
  AnnealingSchedule schedule;  ///< paper defaults: T0=1e4, alpha=0.9, Na=400
  MoveOptions moves;
  CostWeights weights;     ///< beta = 0 reproduces stage-1 (area-only)
  FtiOptions fti_options;
  /// Electrodes known defective before placement (manufacturing test
  /// results). The annealer refuses to record placements using them, so
  /// the result routes modules around the defect map.
  std::vector<Point> defects;
  /// Droplet-transfer demand edges priced by weights.gamma (routing-aware
  /// placement; routing::extract_links produces them). Ignored at
  /// gamma = 0.
  std::vector<RouteLink> route_links;
  std::uint64_t seed = 0xDA7E2005ULL;
  /// Optional warm start (the synthesis service's placement memo): module
  /// poses are copied index-by-index onto the new schedule's placement and
  /// annealed from there instead of the greedy constructive initial. Used
  /// only when compatible — same module count and the seeded placement is
  /// feasible and defect-free — otherwise silently falls back to greedy.
  /// Poses only; the time structure always comes from the schedule given
  /// to place_simulated_annealing.
  std::shared_ptr<const Placement> initial;
};

/// Result of a placement run.
struct PlacementOutcome {
  Placement placement;
  CostBreakdown cost;      ///< of the returned placement
  AnnealingStats stats;
  double wall_seconds = 0.0;
};

/// Anneals from a greedy constructive initial placement. The returned
/// placement is the best feasible (overlap-free, in-canvas) one seen;
/// since the initial placement is feasible, the result always is.
DMFB_DEPRECATED("use make_placer(\"sa\")->place(schedule, context)")
PlacementOutcome place_simulated_annealing(const Schedule& schedule,
                                           const SaPlacerOptions& options = {});

/// Same, but annealing from a caller-supplied initial placement (used by
/// the two-stage placer's refinement step and by tests). Every proposal
/// is priced in place by an IncrementalPlacementState (the delta engine).
/// Throws std::invalid_argument when check_schedule rejects the schedule.
PlacementOutcome anneal_from(const Placement& initial,
                             const SaPlacerOptions& options);

/// Throws std::invalid_argument unless `schedule` cools to a stop in
/// finitely many temperature steps: 0 < cooling_rate < 1, min_temperature
/// positive and finite, and initial_temperature finite.
void check_schedule(const AnnealingSchedule& schedule);

}  // namespace dmfb
