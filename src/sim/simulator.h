// simulator.h — the types of droplet-level execution of a synthesized,
// placed assay: SimOptions in, SimulationResult out. EventSimEngine
// (sim/sim_engine.h) runs it:
//
//   SimulationResult r =
//       EventSimEngine(options).run(graph, schedule, placement, chip).result;
//
// This substrate substitutes for the fabricated chips the paper's group
// used: it executes the schedule on the placement, dispensing droplets at
// boundary ports, routing them to module sites with the A* router, merging
// and splitting their contents, and stalling whenever a module footprint
// or a route touches a faulty electrode. The behaviour the CAD results
// depend on — "a fault inside a module makes the assay fail until the
// module is relocated" — is preserved exactly.
//
// Routing model: only the functional regions of active modules block a
// droplet; segregation rings are passable, since per §6 of the paper the
// ring "provides a communication path for droplet movement".
//
// Simplifications: transport happens at slice boundaries and is not
// added to the schedule's makespan (the paper's schedule also excludes
// routing time); droplet-droplet collision is
// avoided structurally by routing one droplet at a time against the
// module occupancy. Those slice boundaries are exactly the changeover
// events the engine's queue dispatches: droplets and modules sleep until
// a module-start event pulls their inputs across the array, so nothing is
// stepped between boundaries.
//
// The engine keeps pooled per-step state, maintains the blocked grid in
// O(dirty) and diagnoses stalls. The original straight-line
// implementation survives as a test oracle
// (tests/oracles/reference_simulator.h) that the engine is audited
// against, the same way the copying annealer pins the delta engine.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "assay/schedule.h"
#include "assay/sequencing_graph.h"
#include "biochip/chip.h"
#include "biochip/droplet.h"
#include "core/placement.h"
#include "sim/route_planner.h"

namespace dmfb {

/// Simulator tuning.
struct SimOptions {
  /// Droplet transport speed; defaults to the repo-wide actuation rate
  /// (sim/route_planner.h), so simulated times and the routing layer's
  /// transport_seconds() agree.
  double droplet_speed_cells_per_s = kActuationStepsPerSecond;
  /// Plan real droplet routes (and fail when none exists). When false,
  /// droplets teleport; useful for placement-only experiments.
  bool verify_routing = true;
  /// Record the human-readable event log (SimulationResult::events).
  /// Batch and service runs that only consume the structured fields set
  /// this false to keep per-event string formatting off the hot path;
  /// everything except `events` is bit-identical either way. Reached
  /// through the pipeline as PipelineOptions::simulation.record_events.
  bool record_events = true;
};

/// One timestamped thing that happened during simulation.
struct SimEvent {
  double time_s = 0.0;
  std::string what;
};

/// Result of one assay execution.
struct SimulationResult {
  bool success = false;
  std::string failure_reason;
  /// Index (into schedule.modules()) of the module that failed, -1 if none.
  int failed_module = -1;
  /// The faulty cell responsible for the failure (valid iff failed).
  Point fault_cell{};
  double makespan_s = 0.0;
  std::vector<SimEvent> events;
  /// Output droplet of every completed reconfigurable operation.
  std::map<OperationId, Droplet> op_outputs;
  int routes_planned = 0;
  long long route_cells = 0;
  double transport_seconds = 0.0;
};

}  // namespace dmfb
