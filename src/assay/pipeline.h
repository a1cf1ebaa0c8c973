// pipeline.h — the `SynthesisPipeline` facade: the paper's whole flow
// (architectural-level synthesis -> placement -> droplet routing ->
// optional simulation) behind one entry point.
//
//   PipelineOptions options;
//   options.placer = "two-stage";        // any registered placer name
//   options.seed = 42;                   // reproduces the whole run
//   SynthesisPipeline pipeline(options);
//   PipelineResult result = pipeline.run(pcr_mixing_assay());
//
// Placement backends are resolved by name through the PlacerRegistry
// (core/placer.h), so drivers select "sa", "greedy", "kamer", "optimal",
// "two-stage" — or any custom registration — from configuration text.
// Routing backends resolve the same way through the RouterRegistry
// (sim/router_backend.h): "prioritized", "negotiated", "restart".
// `run_many` executes independent assays across a thread pool for
// throughput; every stochastic stage of item i derives its seed from
// `options.seed` and i, so batches are reproducible from one number.
//
// The flow is optionally a *closed loop*: with `feedback_rounds > 0` the
// pipeline re-places with measured route costs folded into the placement
// objective (the routing-pressure term, CostWeights::gamma) and re-routes,
// keeping the best round — so compact placements stop strangling the
// routes. With `feedback_rounds = 0` and `gamma = 0` (the defaults) the
// classic feed-forward flow runs bit-identically to previous releases.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "assay/assay_library.h"
#include "assay/binder.h"
#include "assay/schedule.h"
#include "assay/scheduler.h"
#include "assay/sequencing_graph.h"
#include "biochip/module_library.h"
#include "core/fti.h"
#include "core/placer.h"
#include "sim/fault.h"
#include "sim/recovery.h"
#include "sim/route_planner.h"
#include "sim/simulator.h"
#include "util/cost_statistic.h"

namespace dmfb {

/// The pipeline's stages, in execution order.
enum class PipelineStage {
  kBind,      ///< operation -> module-type binding
  kSchedule,  ///< resource-constrained list scheduling
  kPlace,     ///< module placement (pluggable backend)
  kRoute,     ///< concurrent droplet routing at changeovers
  kSimulate,  ///< droplet-level execution (optional)
};

const char* to_string(PipelineStage stage);
std::ostream& operator<<(std::ostream& os, PipelineStage stage);

/// Per-stage progress callback: invoked after each stage completes with the
/// stage, its wall time, and a one-line human-readable summary. run_many
/// invokes it concurrently from worker threads, so it must be thread-safe.
using StageObserver = std::function<void(
    PipelineStage stage, double wall_seconds, const std::string& detail)>;

/// Number of PipelineStage values, for per-stage telemetry arrays.
inline constexpr int kPipelineStageCount = 5;

/// Thread-safe StageObserver adapter: folds every completed stage's wall
/// time into a per-stage CostStatistic (count/min/avg/max), the same
/// accumulator the event simulator keeps internally — so batch drivers
/// (bench_closed_loop, bench_perf_sim) report cross-run stage timing
/// without a profiler. Install `observer()` as PipelineOptions::observer;
/// run_many invokes observers from worker threads, hence the mutex. The
/// collector must outlive every run observing into it.
class StageStatsCollector {
 public:
  StageObserver observer() {
    return [this](PipelineStage stage, double wall_seconds,
                  const std::string&) { record(stage, wall_seconds); };
  }

  void record(PipelineStage stage, double wall_seconds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_[static_cast<std::size_t>(stage)].record(wall_seconds);
  }

  /// Accumulated statistic for one stage (a copy, taken under the lock).
  CostStatistic statistic(PipelineStage stage) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_[static_cast<std::size_t>(stage)];
  }

 private:
  mutable std::mutex mutex_;
  std::array<CostStatistic, kPipelineStageCount> stats_{};
};

/// Everything configurable about one pipeline run — the single options
/// struct superseding the per-stage ones.
struct PipelineOptions {
  /// Binding strategy for `run(graph, library)`; ignored by the overloads
  /// that take an explicit binding (e.g. an AssayCase's Table-1 binding).
  BindingPolicy binding_policy = BindingPolicy::kRoundRobin;
  SchedulerOptions scheduler;

  /// Registry name of the placement backend.
  std::string placer = "sa";
  /// Note: `placer_context.weights.gamma` turns on routing-aware
  /// placement — the pipeline then extracts the schedule's droplet-demand
  /// links (routing::extract_links) and prices them in the placement
  /// objective, even at `feedback_rounds = 0`.
  PlacerContext placer_context;
  /// When false the pipeline stops after scheduling (no placement, FTI,
  /// routing or simulation) — for consumers that only need the schedule.
  bool place = true;

  /// Closed-loop synthesis: after the initial place->route, run up to
  /// this many extra rounds that fold the previous round's *measured*
  /// route costs back into the placement objective
  /// (routing::reweight_links -> placer_context.route_links) and
  /// re-place/re-route with a round seed split from the master seed. The
  /// loop stops early at a placement fixed point, and the best round —
  /// routed plans first, then lowest transport-inclusive makespan, then
  /// lowest placement cost — supplies the result, so feedback never does
  /// worse than round 0. 0 (default) = the classic feed-forward flow,
  /// bit-identical to previous releases when gamma is also 0. Ignored
  /// when `plan_droplet_routes` is false (no route cost to feed back);
  /// with `placer_context.weights.gamma == 0` there is no objective term
  /// for the measured costs to flow into, so rounds degrade to
  /// seed-diverse multi-start placement (best round still wins).
  int feedback_rounds = 0;

  /// Deadline-driven round budget: when positive, the closed loop stops
  /// spending feedback rounds as soon as the best round so far routed
  /// successfully with `transport_makespan_s` at or under this many
  /// seconds — the assay is fast enough, further rounds are wasted work.
  /// 0 (default) = no deadline; the loop is then bit-identical to
  /// previous releases (pinned by tests/test_closed_loop.cpp).
  double deadline_s = 0.0;

  /// Warm-start placement (the synthesis service's memo): handed to the
  /// placement backend on every round via
  /// PlacerContext::initial_placement. Annealing backends seed from it
  /// when compatible instead of the greedy constructive initial; null
  /// (default) = the classic cold start.
  std::shared_ptr<const Placement> initial_placement;

  /// Warm link weights (the service's cross-request route-pressure
  /// ledger): when non-empty and `placer_context.weights.gamma != 0`,
  /// round 0 prices these instead of the schedule's demand-only links, so
  /// a fresh compile starts from congestion measured by earlier compiles
  /// on the same layout. Feedback rounds still reweight from this run's
  /// own measurements. Empty (default) = demand-only links as before.
  std::vector<RouteLink> warm_links;

  /// Plan concurrent droplet routes at every configuration changeover.
  bool plan_droplet_routes = true;
  /// Registry name of the routing backend ("prioritized", "negotiated",
  /// "restart", or any custom registration — sim/router_backend.h).
  std::string router = "prioritized";
  /// `routing.seed` is overridden by `seed`. Routing runs on the calling
  /// thread; `run_many` parallelises across items.
  RoutePlannerOptions routing;
  /// Chip dimensions for routing/simulation; 0 = the placement canvas.
  int chip_width = 0;
  int chip_height = 0;

  /// Execute the assay droplet-by-droplet on a simulated chip.
  bool simulate = false;
  SimOptions simulation;

  /// Online fault recovery: when `simulate` is true and this plan is
  /// non-empty, the simulate stage drives the OnlineRecoveryEngine
  /// (sim/recovery.h) instead of a plain run — faults fire mid-run and
  /// each detected failure escalates the reconfigure -> reroute ->
  /// replace ladder, resuming from its checkpoint. The outcome lands in
  /// PipelineResult::recovery and the stage observer's detail line.
  FaultInjectionPlan fault_plan;
  /// Knobs/budgets of the online recovery engine (used iff fault_plan is
  /// non-empty). The pipeline overrides two of them: `recovery.sim` with
  /// `simulation`, and `recovery.replace_context` with `placer_context`
  /// re-seeded from `seed`, so the replace rung re-places under the
  /// request's own canvas, weights and schedule.
  RecoveryOptions recovery;

  /// Evaluate the Fault Tolerance Index of the final placement over its
  /// bounding box (the array a designer would fabricate).
  bool evaluate_fault_tolerance = true;

  /// Master seed: overrides placer_context.seed and routing.seed, and
  /// derives per-item seeds in run_many, so one number reproduces any run
  /// or batch.
  std::uint64_t seed = 0xDA7E2005ULL;

  /// Worker threads for run_many (0 = hardware concurrency).
  int threads = 0;

  StageObserver observer;  ///< nullable
};

/// Per-item seeds of a batch under `master_seed`: item i of any batch
/// driver anneals with element i, regardless of which thread or process
/// picks the item up. This is THE batch seed-split — run_many and the
/// multi-process dmfb_batch driver (service/batch.h) both derive their
/// item seeds here, so the same manifest under the same master seed
/// produces bit-identical per-item results in either harness (pinned by
/// tests/test_pipeline.cpp and tests/test_batch.cpp).
std::vector<std::uint64_t> derive_item_seeds(std::uint64_t master_seed,
                                             std::size_t count);

/// Wall time of one completed stage.
struct StageTiming {
  PipelineStage stage = PipelineStage::kBind;
  double wall_seconds = 0.0;
};

/// One completed feedback round's headline numbers (PipelineResult
/// records one entry per round when the closed loop runs).
struct FeedbackRoundResult {
  int round = 0;                ///< 0 = the classic feed-forward round
  std::uint64_t seed = 0;       ///< placement/routing seed of this round
  bool routed = false;          ///< did routing succeed this round?
  /// Transport-inclusive makespan of this round (== makespan_s when the
  /// round's routing failed).
  double transport_makespan_s = 0.0;
  /// The round's placement cost with the gamma (routing-pressure) term
  /// stripped — rounds price gamma over differently-weighted links, so
  /// only the base objective is comparable across rounds.
  double placement_cost = 0.0;
};

/// Everything the flow produced, stage by stage.
struct PipelineResult {
  std::string assay_name;
  std::uint64_t seed = 0;  ///< the seed this run is reproducible from

  /// Per-item batch status: run_many never discards a whole batch for
  /// one failed assay. An item whose compile threw comes back with
  /// ok = false, `error` holding the exception text, and default
  /// (empty) stage artifacts — the other items' results are intact.
  /// Single-assay run() still throws, so interactive callers keep the
  /// exception they expect.
  bool ok = true;
  std::string error;  ///< set iff !ok

  // Architectural-level synthesis.
  Binding binding;
  Schedule schedule;
  /// Makespan of `schedule`, which treats configuration changeovers as
  /// instantaneous; `transport_makespan_s` is the chip time that includes
  /// droplet transport. Kept as a field because a cached result carries
  /// no schedule: a loaded cache entry has its changeover-free makespan
  /// only here.
  double makespan_s = 0.0;
  long long peak_concurrent_cells = 0;

  // Physical design. `placement.cost` is the cost breakdown.
  PlacementOutcome placement;
  FtiResult fti;  ///< populated iff options.evaluate_fault_tolerance

  // Fluidic-level results.
  RoutePlan routes;           ///< populated iff options.plan_droplet_routes
  SimulationResult simulation;  ///< populated iff options.simulate
  /// Online fault-recovery telemetry; populated iff options.simulate and
  /// options.fault_plan is non-empty (faults_injected counts the planned
  /// faults that actually fired).
  RecoveryReport recovery;

  /// The schedule with every changeover's measured transport time folded
  /// into module start times (fold_transport, sim/route_planner.h).
  /// Populated iff routing ran and succeeded; its makespan_s() is
  /// `transport_makespan_s`.
  Schedule transported_schedule;
  /// Transport-inclusive makespan: schedule plus routed changeover
  /// transport at the chip's actuation rate. Falls back to `makespan_s`
  /// when routing did not run or failed.
  double transport_makespan_s = 0.0;

  /// Per-round history of the closed loop (empty when
  /// options.feedback_rounds == 0); entry [selected_round] produced the
  /// placement/routes above.
  std::vector<FeedbackRoundResult> feedback_history;
  int selected_round = 0;

  std::vector<StageTiming> stage_times;  ///< in execution order

  const CostBreakdown& cost() const { return placement.cost; }
  double total_wall_seconds() const;
  /// Summed wall time of one stage over every time it ran (feedback
  /// rounds re-run place/route; 0 when the stage never ran).
  double stage_seconds(PipelineStage stage) const;
};

/// End-to-end compile driver: bind -> schedule -> place -> route
/// (-> simulate). Reentrant; one instance may serve concurrent runs.
class SynthesisPipeline {
 public:
  explicit SynthesisPipeline(PipelineOptions options = {});

  const PipelineOptions& options() const { return options_; }

  /// Full flow with automatic binding per options().binding_policy.
  PipelineResult run(const SequencingGraph& graph,
                     const ModuleLibrary& library) const;

  /// Full flow with a caller-provided binding (e.g. the paper's Table 1).
  PipelineResult run(const SequencingGraph& graph,
                     const Binding& binding) const;

  /// Full flow on a benchmark case, using the case's binding and scheduler
  /// constraints (options().scheduler is ignored).
  PipelineResult run(const AssayCase& assay) const;

  /// Runs independent assays across a thread pool; results are in input
  /// order. Item i's stochastic stages are seeded with
  /// derive_item_seeds(options().seed, n)[i]. A failed item does not
  /// discard the batch: its entry carries ok = false and the exception
  /// text in `error` (see PipelineResult::ok), and every other item's
  /// result is returned normally.
  std::vector<PipelineResult> run_many(
      std::span<const SequencingGraph> graphs,
      const ModuleLibrary& library) const;
  std::vector<PipelineResult> run_many(std::span<const AssayCase> assays) const;

 private:
  PipelineResult run_bound(const SequencingGraph& graph, Binding binding,
                           const SchedulerOptions& scheduler,
                           double bind_seconds, std::uint64_t seed) const;
  std::vector<PipelineResult> run_indexed(
      std::size_t count,
      const std::function<PipelineResult(std::size_t, std::uint64_t)>& one)
      const;

  PipelineOptions options_;
};

}  // namespace dmfb
