// recovery.h — the closed loop the paper's fault-tolerance story implies:
// detect (tester) -> repair -> resume.
//
// Two generations of that loop live here:
//
//   - The offline loop (simulate_online_recovery): run, and if a fault
//     stalls a module, relocate it (partial reconfiguration, §5.1) and
//     re-run the whole assay from t = 0. Simple, and still the engine
//     behind the exhaustive fault campaign cross-validating the Fault
//     Tolerance Index (empirical survivability == evaluate_fti()'s
//     prediction, asserted by tests).
//
//   - The online engine (OnlineRecoveryEngine): faults are injected
//     *mid-run* through EventSimEngine::run_online while the event queue
//     is live; a detected failure captures a SimCheckpoint (clock,
//     completed ops, in-flight modules, droplet inventory) and repair is
//     attempted up an escalation ladder —
//
//         reconfigure  relocate only the modules touching the fault
//                      (Reconfigurator over maximal empty rectangles),
//                      dragging their droplets along, and re-run just the
//                      interrupted operation from the detection instant;
//         reroute      a routing stall whose wait chain has a known
//                      clearing time is retimed past it (shift_from), the
//                      local fix for a blocked changeover;
//         replace      full re-place of the residual schedule by a
//                      defect-aware placer, warm-started from the current
//                      placement (the compile-cache seam), droplets of
//                      in-flight modules migrated to their new sites —
//
//     and the run *resumes from the checkpoint* instead of re-running:
//     completed-prefix events are bit-identical to the uninterrupted run
//     and resume is gated >= 2x faster than a rerun (bench_recovery).
//     Every attempt is budgeted by a host-wall deadline and a cycle cap;
//     when the ladder is exhausted the engine degrades gracefully to a
//     partial result plus the structured RecoveryReport.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "assay/schedule.h"
#include "assay/sequencing_graph.h"
#include "core/fti.h"
#include "core/placement.h"
#include "core/placer.h"
#include "core/reconfig.h"
#include "sim/fault.h"
#include "sim/sim_engine.h"
#include "sim/simulator.h"

namespace dmfb {

/// Outcome of one detect-reconfigure-resume scenario.
struct OnlineRecoveryResult {
  bool fault_hit = false;      ///< the fault actually disturbed the assay
  bool recovered = false;      ///< reconfiguration succeeded
  bool completed = false;      ///< the (re-run) assay completed
  std::string detail;
  RecoveryResult reconfiguration;
  SimulationResult first_run;   ///< run that hit (or missed) the fault
  SimulationResult second_run;  ///< run after reconfiguration (if any)
};

/// Simulates the assay on a chip with a fault at `faulty_cell`. If the
/// fault stalls a module, applies partial reconfiguration within `array`
/// and re-runs. A fault on an unused cell simply completes the first run.
OnlineRecoveryResult simulate_online_recovery(
    const SequencingGraph& graph, const Schedule& schedule,
    const Placement& placement, Point faulty_cell, const Rect& array,
    const Reconfigurator& reconfigurator, const SimOptions& sim_options = {});

/// Exhaustive single-fault campaign over every cell of `array`.
struct FaultCampaignResult {
  long long total_cells = 0;
  long long survivable_cells = 0;  ///< recovery succeeded (or fault harmless)
  std::vector<Point> unsurvivable;
  double survivable_fraction() const {
    return total_cells == 0
               ? 0.0
               : static_cast<double>(survivable_cells) / total_cells;
  }
};

/// For every cell: can the placement survive that cell failing, using
/// partial reconfiguration only? This is the *empirical* FTI; it must
/// equal evaluate_fti()'s prediction (tests assert this).
FaultCampaignResult exhaustive_fault_campaign(
    const Placement& placement, const Rect& array,
    const Reconfigurator& reconfigurator);

// ---------------------------------------------------------------------------
// Online recovery: checkpointed resume up the escalation ladder.
// ---------------------------------------------------------------------------

/// The escalation ladder, cheapest rung first.
enum class RecoveryAction {
  kReconfigure,  ///< partial reconfiguration of the modules on the fault
  kReroute,      ///< retime the stalled changeover past its wait chain
  kReplace,      ///< defect-aware re-place of the residual schedule
};

const char* to_string(RecoveryAction action);

/// One rung attempt within one recovery cycle (telemetry).
struct RecoveryAttempt {
  RecoveryAction action = RecoveryAction::kReconfigure;
  int cycle = 0;         ///< recovery cycle (1-based) the attempt belongs to
  bool success = false;  ///< the repair was applied (the resume may still fail)
  double wall_s = 0.0;   ///< host seconds spent in this attempt
  std::string detail;
  std::vector<RelocationOutcome> relocations;  ///< reconfigure/replace moves
};

/// Structured telemetry of one online run: what fired, what was tried,
/// and where the assay ended up. Surfaced through the pipeline stage
/// observer and the dmfb_serve response.
struct RecoveryReport {
  int faults_injected = 0;  ///< planned faults that actually fired
  int recovery_cycles = 0;  ///< simulator failures the ladder handled
  std::vector<RecoveryAttempt> attempts;
  bool recovered = false;  ///< >= 1 repair was applied successfully
  bool completed = false;  ///< the assay ultimately finished
  /// Simulated seconds added by recovery: rolled-back work re-run plus
  /// retiming slack (final makespan == nominal makespan + time_lost_s
  /// when only reconfigure/reroute rungs fired).
  double time_lost_s = 0.0;
  double recovery_wall_s = 0.0;  ///< host seconds across all attempts
  double resumed_from_s = 0.0;   ///< simulated clock of the last resume
  /// Events in the clean completed prefix of the last checkpoint —
  /// bit-identical to the uninterrupted run's first this-many events.
  std::size_t clean_prefix_events = 0;
  std::string detail;  ///< one-line outcome summary
  StallReport last_stall;  ///< diagnosis of the last stall seen (if any)
};

/// Budgets and knobs of the online engine.
struct RecoveryOptions {
  SimOptions sim;
  FtiOptions fti;
  RelocationPolicy policy = RelocationPolicy::kNearest;
  /// Host-wall budget across all repair attempts of one run; when it is
  /// exhausted the engine degrades to a partial result. <= 0: unlimited.
  double deadline_s = 5.0;
  /// Hard cap on detect->repair->resume cycles (multi-fault campaigns
  /// escalate one failure at a time).
  int max_cycles = 8;
  bool enable_reconfigure = true;
  bool enable_reroute = true;
  bool enable_replace = true;
  /// Placer registry name for the replace rung; must be defect-aware
  /// ("sa", "greedy", "two-stage").
  std::string replace_placer = "sa";
  /// Context for the replace rung. canvas dimensions of 0 inherit the
  /// failing placement's canvas; defects and the warm-start placement are
  /// filled in by the engine. SynthesisPipeline sets it from its own
  /// placer_context.
  PlacerContext replace_context;
};

/// Result of one online run: the merged simulation (reads as one
/// continuous execution), the recovery telemetry, and the repaired
/// schedule/placement the run finished on.
struct OnlineRunResult {
  SimulationResult simulation;
  RecoveryReport recovery;
  Schedule final_schedule;
  Placement final_placement;
  /// Valid iff the run degraded: the state at the last unrecovered
  /// failure, for diagnostics or an out-of-band retry.
  SimCheckpoint last_checkpoint;
};

/// The online recovery engine (tentpole of the robustness story): drives
/// EventSimEngine::run_online under a FaultInjectionPlan, escalating each
/// detected failure up the reconfigure -> reroute -> replace ladder and
/// resuming from the failure checkpoint after every successful repair.
class OnlineRecoveryEngine {
 public:
  explicit OnlineRecoveryEngine(RecoveryOptions options = {});

  const RecoveryOptions& options() const { return options_; }

  /// Runs the assay on a pristine `array`-sized chip while injecting
  /// `plan` (see FaultInjectionPlan for trigger semantics). Never throws
  /// on recovery failure — inspect `recovery.completed`; throws only on
  /// the same argument errors EventSimEngine::run_online rejects.
  OnlineRunResult run(const SequencingGraph& graph, const Schedule& schedule,
                      const Placement& placement, const Rect& array,
                      const FaultInjectionPlan& plan) const;

 private:
  RecoveryOptions options_;
};

}  // namespace dmfb
