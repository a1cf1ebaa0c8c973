// sa_placer.h — simulated-annealing module placement (§4 of the paper).
//
// Operates directly on physical coordinates, sizes and orientations of the
// modules (no problem encoding); infeasible intermediate placements are
// allowed and priced by an overlap penalty the annealer drives to zero.
#pragma once

#include "core/annealer.h"
#include "core/cost.h"
#include "core/placement.h"

namespace dmfb {

struct PlacerContext;  // core/placer.h

/// Result of a placement run.
struct PlacementOutcome {
  Placement placement;
  CostBreakdown cost;      ///< of the returned placement
  AnnealingStats stats;
  double wall_seconds = 0.0;
};

/// Anneals from `initial` under `context`'s annealing schedule, moves,
/// weights, FTI options, defects, route links and seed; the canvas and
/// warm start are the caller's business (the "sa" and "two-stage"
/// placers build `initial` from them). The returned placement is the
/// best feasible, defect-free one seen, so a feasible `initial` always
/// yields a feasible result. Every proposal is priced in place by an
/// IncrementalPlacementState (the delta engine). Throws
/// std::invalid_argument when check_schedule rejects the schedule.
PlacementOutcome anneal_from(const Placement& initial,
                             const PlacerContext& context);

/// Throws std::invalid_argument unless `schedule` cools to a stop in
/// finitely many temperature steps: 0 < cooling_rate < 1, min_temperature
/// positive and finite, and initial_temperature finite.
void check_schedule(const AnnealingSchedule& schedule);

}  // namespace dmfb
