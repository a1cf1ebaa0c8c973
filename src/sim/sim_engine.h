// sim_engine.h — the event-queue droplet simulation engine.
//
// The reference simulator (a test oracle, tests/oracles/
// reference_simulator.h) walks the schedule module by module, building a
// chip-sized blocked matrix from scratch for every routing call, scanning
// the fault list linearly per module, and formatting event strings
// through stringstreams. This engine executes the identical model as a
// discrete-event loop with pooled per-step state:
//
//   - An event queue (binary heap keyed by (time, tie-break rank))
//     dispatches module-start and module-end events; droplets sleep in
//     their producer slots until a consuming module's start event pulls
//     them across the array, and modules sleep until their scheduled
//     times — nothing is stepped in between.
//   - The blocked grid is a persistent scratch maintained by the events
//     themselves: a start event stamps its module's functional rect (on
//     the next clock advance), an end event clears it (faults re-stamped
//     from an O(1) occupancy grid) — routing calls find the grid already
//     correct instead of rebuilding W*H cells each, and a run that tears
//     every module down leaves a clean grid the next run reuses outright
//     (keyed on Chip::fault_revision()).
//   - Shortest-path queries run on a generation-stamped A* (reused
//     frontier and cost arrays, no per-call allocation) that returns the
//     optimal path *length* — the only thing the simulation model
//     consumes — and skips the search entirely when no obstacle
//     intersects the source-target bounding box (the Manhattan distance
//     is then exact).
//   - Event strings are built into one reused buffer (identical bytes to
//     the reference), and SimOptions::record_events turns the log off
//     for batch runs that only read the structured fields.
//
// The results are bit-identical to the reference's — events, op_outputs,
// route accounting, failure reasons — pinned by the audit in
// tests/test_sim_engine.cpp, the same way the copy annealing engine pins
// the delta engine. On top of that contract the engine reports what the
// reference cannot: a StallReport naming the wait chain behind a routing
// failure (which running modules wall the droplet off, and when the
// earliest of them would clear) instead of just "cannot reach", plus
// routing telemetry (per-call CostStatistic and search counters).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/fault.h"
#include "sim/simulator.h"
#include "util/cost_statistic.h"
#include "util/matrix.h"

namespace dmfb {

/// Diagnosis of a routing stall: the wait chain the reference simulator's
/// bare "cannot reach" hides. Populated on the events the engine fails —
/// a droplet walled off its target, or no free perimeter entry for a
/// dispense.
struct StallReport {
  bool stalled = false;
  double time_s = 0.0;
  /// Module (schedule index) whose input transfer stalled.
  int waiting_module = -1;
  /// Label of the stalled droplet's producer operation (empty for a
  /// dispense with no free perimeter entry).
  std::string droplet_label;
  Point target{};
  /// Running modules (schedule indices) whose functional regions wall
  /// the droplet off — the wait-for chain, in schedule order. Empty with
  /// `fault_walled` set when faulty electrodes alone sever the path.
  std::vector<int> blocking_modules;
  /// Earliest end_s among the blockers: the soonest instant the chain
  /// would clear. The model routes at the changeover instant, so a
  /// positive gap to `time_s` is the deadlock certificate — waiting
  /// cannot help without retiming the schedule.
  double earliest_unblock_s = 0.0;
  /// Faulty electrodes sever every path even with no module active.
  bool fault_walled = false;
  /// Human-readable wait chain, e.g.
  /// "droplet of 'M3' -> 'M5' blocked by {M1 [2,8)s, S(M2) [0,6)s}; ...".
  std::string chain;
};

/// Where the engine's routing time goes (CostStatistic min/avg/max per
/// call), plus structural counters showing the pooled state at work.
struct SimEngineTelemetry {
  CostStatistic route_cost;  ///< per routing call (A* + grid upkeep)
  long long events_dispatched = 0;  ///< module start and end events
  long long routes_planned = 0;
  /// Heap pushes across all A* runs — the search effort actually spent.
  long long astar_pushes = 0;
  /// Routes priced by the obstacle-free Manhattan fast path (no search).
  long long manhattan_fast_paths = 0;
  /// Routing calls that found the blocked grid untouched since the
  /// previous routing call (no start/end event moved a module between
  /// them).
  long long blocked_grid_reuses = 0;
};

/// Mid-run execution snapshot, captured at the instant a run fails (when
/// run_online is given a checkpoint slot): everything the recovery
/// driver needs to resume the assay *from the failure* instead of
/// re-running from t=0 — the clock, which start/end events already
/// dispatched, the droplet inventory (positions, contents, the id
/// counter), and the completed-prefix result accounting. The residual
/// run seeded from a checkpoint replays nothing: completed modules are
/// skipped, in-flight modules re-arm only their end events, and the
/// restored event log / route counters make the merged SimulationResult
/// read as one continuous execution (completed-prefix events
/// bit-identical to the uninterrupted run — pinned by
/// tests/test_recovery.cpp and bench_recovery).
struct SimCheckpoint {
  bool valid = false;
  double time_s = 0.0;     ///< simulated clock at the failure
  int failed_module = -1;  ///< schedule index the run failed at (-1: stall)

  /// Per schedule index: has this module's start/end event dispatched?
  /// (A rolled-back module — injected fault under a live operation —
  /// reads as not-started, so the resume re-executes it.)
  std::vector<std::uint8_t> start_done;
  std::vector<std::uint8_t> end_done;

  // Droplet inventory, dense by operation id.
  std::map<OperationId, Droplet> op_outputs;
  std::vector<std::optional<Droplet>> dispensed;
  std::vector<Point> droplet_pos;
  std::vector<std::uint8_t> droplet_placed;
  int next_droplet_id = 0;

  // Completed-prefix accounting (the failure-reason line, if any, is
  // excluded — the resumed run appends from here).
  std::vector<SimEvent> events;
  int routes_planned = 0;
  long long route_cells = 0;
  double transport_seconds = 0.0;
};

/// One engine execution: the bit-identical simulation result plus the
/// engine-only diagnostics.
struct SimEngineRun {
  SimulationResult result;
  StallReport stall;
  SimEngineTelemetry telemetry;
  /// Planned faults that actually fired this invocation, in plan order
  /// (a prefix of the plan — the rest is still pending when the run
  /// failed first). The recovery driver injects these into its chip
  /// before resuming so grid rebuilds see them.
  std::vector<FiredFault> faults_fired;
};

/// The event-queue engine. Reusable: scratch state (grids, A* arrays,
/// path/heap pools) persists across run() calls, so batch drivers that
/// keep one engine per worker thread simulate allocation-free in steady
/// state. Not thread-safe; one engine per thread (the annealer's scratch
/// discipline).
class EventSimEngine {
 public:
  explicit EventSimEngine(SimOptions options = {});

  const SimOptions& options() const { return options_; }

  /// Runs `graph`'s operations per `schedule` at the locations in
  /// `placement` on `chip`, with diagnostics on the side. Throws
  /// std::invalid_argument when schedule and placement disagree on the
  /// module count or the chip is smaller than the placement's bounding
  /// box.
  SimEngineRun run(const SequencingGraph& graph, const Schedule& schedule,
                   const Placement& placement, const Chip& chip);

  /// The online variant: executes the assay while injecting `plan`'s
  /// faults mid-run (strictly in plan order), optionally resuming from a
  /// prior checkpoint, optionally capturing one at failure.
  ///
  ///   - A fault landing under a *live* module is detected immediately
  ///     (the paper's concurrent-testing model): the module's start is
  ///     rolled back — its output droplet and deferred finish/split log
  ///     lines removed, its start event re-armed for the resume — and the
  ///     run fails at the injection instant with the same
  ///     "module ... contains faulty cell" reason a start-time hit
  ///     produces. A latent fault is caught later by the existing
  ///     fail-on-start scan or as a routing StallReport.
  ///   - `resume_from` (nullable): restart the run mid-flight from a
  ///     checkpoint captured by an earlier invocation. The schedule may
  ///     have been retimed and the placement repaired in between — module
  ///     indices must be unchanged. Faults that fired earlier must
  ///     already be on `chip` (the recovery driver owns that).
  ///   - `checkpoint_out` (nullable): filled at the first failure.
  ///
  /// With an empty plan and no checkpoint this is bit-identical to
  /// run() (pinned by tests/test_sim_engine.cpp).
  SimEngineRun run_online(const SequencingGraph& graph,
                          const Schedule& schedule,
                          const Placement& placement, const Chip& chip,
                          const FaultInjectionPlan& plan,
                          const SimCheckpoint* resume_from = nullptr,
                          SimCheckpoint* checkpoint_out = nullptr);

 private:
  friend struct EngineRunState;

  SimOptions options_;

  // Persistent scratch, recycled across runs.
  Matrix<std::uint8_t> blocked_;     ///< module rects + faults
  Matrix<std::uint8_t> fault_grid_;  ///< faults only (O(1) membership)
  std::vector<Point> faults_;        ///< row-major, = Chip::faulty_cells()
  Rect fault_bbox_{};                ///< union of faults_ (fast reject)
  std::vector<int> filled_;          ///< modules currently in blocked_
  std::vector<Rect> filled_rects_;   ///< their functional rects, aligned
  std::vector<int> pending_fills_;   ///< started this instant, stamped on
                                     ///< the next clock advance
  std::vector<Rect> func_rects_;     ///< per-module functional region
  /// True when blocked_ is back to its faults-only state (every stamped
  /// module cleared by its end event). With matching dimensions and a
  /// provably fault-free chip (Chip::fault_revision() == 0) the per-run
  /// grid rebuild is skipped entirely; faulty or mutated chips always
  /// rebuild.
  bool grid_clean_ = false;
  std::vector<int> astar_g_;         ///< generation-stamped best-g grid
  std::vector<std::uint32_t> astar_stamp_;
  std::uint32_t astar_generation_ = 0;
  std::vector<std::uint64_t> frontier_;  ///< A* heap, reused per search
  std::string event_buffer_;  ///< reused event-string assembly buffer
};

}  // namespace dmfb
