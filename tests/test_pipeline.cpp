// Tests for the SynthesisPipeline facade (assay/pipeline.h): the
// end-to-end driver matches the hand-wired schedule -> place flow
// exactly, stages report through the observer in order, run_many is
// reproducible from one seed, and results carry every stage's artifacts.
#include "assay/pipeline.h"

#include <gtest/gtest.h>

#include <mutex>

#include "assay/assay_library.h"
#include "assay/random_assay.h"
#include "assay/scheduler.h"
#include "core/sa_placer.h"
#include "util/rng.h"

namespace dmfb {
namespace {

/// Short annealing runs so the whole suite stays fast.
PipelineOptions fast_options() {
  PipelineOptions options;
  options.placer_context.annealing.initial_temperature = 1000.0;
  options.placer_context.annealing.cooling_rate = 0.8;
  options.placer_context.annealing.iterations_per_module = 60;
  options.placer_context.ltsa.iterations_per_module = 60;
  return options;
}

TEST(PipelineTest, QuickstartAssayEndToEnd) {
  PipelineOptions options = fast_options();
  options.simulate = true;
  const SynthesisPipeline pipeline(options);
  const PipelineResult result = pipeline.run(pcr_mixing_assay());

  EXPECT_EQ(result.assay_name, "pcr-mixing-stage");
  EXPECT_EQ(result.binding.size(), 7u);  // M1..M7
  EXPECT_TRUE(result.schedule.validate_against(
                  pcr_mixing_assay().graph).empty());
  EXPECT_GT(result.transport_makespan_s, 0.0);

  // Placement: overlap-free, in canvas, FTI evaluated.
  EXPECT_TRUE(result.placement.placement.feasible());
  EXPECT_EQ(result.placement.cost.overlap_cells, 0);
  EXPECT_GT(result.fti.total_cells, 0);

  // Routing + simulation ran and succeeded.
  EXPECT_TRUE(result.routes.success) << result.routes.failure_reason;
  EXPECT_TRUE(result.simulation.success) << result.simulation.failure_reason;
  EXPECT_GT(result.simulation.routes_planned, 0);

  // Every stage accounted for, in execution order.
  ASSERT_EQ(result.stage_times.size(), 5u);
  EXPECT_EQ(result.stage_times[0].stage, PipelineStage::kBind);
  EXPECT_EQ(result.stage_times[1].stage, PipelineStage::kSchedule);
  EXPECT_EQ(result.stage_times[2].stage, PipelineStage::kPlace);
  EXPECT_EQ(result.stage_times[3].stage, PipelineStage::kRoute);
  EXPECT_EQ(result.stage_times[4].stage, PipelineStage::kSimulate);
  EXPECT_GE(result.total_wall_seconds(),
            result.stage_seconds(PipelineStage::kPlace));
}

TEST(PipelineTest, MatchesHandWiredFlow) {
  // The pipeline with the "sa" backend must reproduce the hand-wired
  // schedule -> place path bit-for-bit given the same seed.
  const AssayCase assay = pcr_mixing_assay();
  PipelineOptions options = fast_options();
  options.seed = 1234;
  const PipelineResult piped = SynthesisPipeline(options).run(assay);

  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  PlacerContext context = options.placer_context;
  context.seed = 1234;
  const PlacementOutcome hand = make_placer("sa")->place(schedule, context);

  EXPECT_EQ(piped.makespan_s, schedule.makespan_s());
  EXPECT_EQ(piped.schedule.module_count(), schedule.module_count());
  EXPECT_EQ(piped.placement.cost.area_cells, hand.cost.area_cells);
  ASSERT_EQ(piped.placement.placement.module_count(),
            hand.placement.module_count());
  for (int i = 0; i < hand.placement.module_count(); ++i) {
    EXPECT_EQ(piped.placement.placement.module(i).anchor,
              hand.placement.module(i).anchor);
    EXPECT_EQ(piped.placement.placement.module(i).rotated,
              hand.placement.module(i).rotated);
  }
}

TEST(PipelineTest, ReproducibleFromOneSeed) {
  PipelineOptions options = fast_options();
  options.seed = 7;
  options.plan_droplet_routes = false;
  const SynthesisPipeline pipeline(options);
  const PipelineResult a = pipeline.run(pcr_mixing_assay());
  const PipelineResult b = pipeline.run(pcr_mixing_assay());
  EXPECT_EQ(a.seed, 7u);
  EXPECT_EQ(a.placement.cost.area_cells, b.placement.cost.area_cells);
  for (int i = 0; i < a.placement.placement.module_count(); ++i) {
    EXPECT_EQ(a.placement.placement.module(i).anchor,
              b.placement.placement.module(i).anchor);
  }
}

TEST(PipelineTest, ObserverSeesStagesInOrder) {
  PipelineOptions options = fast_options();
  options.plan_droplet_routes = true;
  std::vector<PipelineStage> seen;
  options.observer = [&](PipelineStage stage, double wall_seconds,
                         const std::string& detail) {
    EXPECT_GE(wall_seconds, 0.0);
    EXPECT_FALSE(detail.empty());
    seen.push_back(stage);
  };
  SynthesisPipeline(options).run(pcr_mixing_assay());
  ASSERT_EQ(seen.size(), 4u);  // no simulate stage by default
  EXPECT_EQ(seen[0], PipelineStage::kBind);
  EXPECT_EQ(seen[1], PipelineStage::kSchedule);
  EXPECT_EQ(seen[2], PipelineStage::kPlace);
  EXPECT_EQ(seen[3], PipelineStage::kRoute);
}

TEST(PipelineTest, SynthesisOnlyRunStopsAfterScheduling) {
  PipelineOptions options = fast_options();
  options.place = false;
  options.simulate = true;  // ignored without a placement
  const PipelineResult result = SynthesisPipeline(options).run(
      pcr_mixing_assay());
  ASSERT_EQ(result.stage_times.size(), 2u);
  EXPECT_EQ(result.stage_times[1].stage, PipelineStage::kSchedule);
  EXPECT_GT(result.schedule.module_count(), 0);
  EXPECT_EQ(result.placement.placement.module_count(), 0);
  EXPECT_FALSE(result.routes.success);
  EXPECT_FALSE(result.simulation.success);
}

TEST(PipelineTest, RunWithAutomaticBinding) {
  const ModuleLibrary library = ModuleLibrary::standard();
  PipelineOptions options = fast_options();
  options.binding_policy = BindingPolicy::kSmallest;
  options.plan_droplet_routes = false;
  const PipelineResult result =
      SynthesisPipeline(options).run(pcr_mixing_graph(), library);
  EXPECT_EQ(result.binding.size(), 7u);
  EXPECT_TRUE(result.placement.placement.feasible());
}

TEST(PipelineTest, PlacerSelectableByName) {
  for (const char* name : {"greedy", "kamer", "two-stage"}) {
    PipelineOptions options = fast_options();
    options.placer = name;
    options.plan_droplet_routes = false;
    const PipelineResult result =
        SynthesisPipeline(options).run(pcr_mixing_assay());
    EXPECT_TRUE(result.placement.placement.feasible()) << name;
  }
  PipelineOptions options = fast_options();
  options.placer = "no-such-placer";
  EXPECT_THROW(SynthesisPipeline(options).run(pcr_mixing_assay()),
               std::invalid_argument);
}

TEST(PipelineTest, RouteStageReportsRouterBackend) {
  PipelineOptions options = fast_options();
  options.placer = "greedy";
  options.router = "restart";
  std::string route_detail;
  options.observer = [&](PipelineStage stage, double,
                         const std::string& detail) {
    if (stage == PipelineStage::kRoute) route_detail = detail;
  };
  const PipelineResult result =
      SynthesisPipeline(options).run(pcr_mixing_assay());
  EXPECT_TRUE(result.routes.success) << result.routes.failure_reason;
  // The observer names the backend, so logs attribute the route stage.
  EXPECT_EQ(route_detail.rfind("restart: ", 0), 0u) << route_detail;
}

TEST(PipelineTest, LargeChipRoutesWithoutReservingTheWholeHorizon) {
  // A 512 x 512 chip has a 4097-step routing horizon. Reserving every
  // step plane of search states up front is ~17 GB and used to throw
  // std::bad_alloc before the first route; the buffers now grow with the
  // deepest step a search reaches.
  PipelineOptions options = fast_options();
  options.placer = "greedy";
  options.chip_width = 512;
  options.chip_height = 512;
  const PipelineResult result =
      SynthesisPipeline(options).run(pcr_mixing_assay());
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.routes.success);
  EXPECT_GT(result.transport_makespan_s, 0.0);
}

TEST(PipelineTest, RunManyIsReproducibleAndOrdered) {
  const ModuleLibrary library = ModuleLibrary::standard();
  std::vector<AssayCase> cases;
  RandomAssayParams params;
  params.mix_operations = 4;
  for (std::uint64_t i = 0; i < 3; ++i) {
    cases.push_back(random_assay(params, library, /*seed=*/100 + i));
  }

  PipelineOptions options = fast_options();
  options.seed = 99;
  options.plan_droplet_routes = false;
  options.threads = 2;
  const SynthesisPipeline pipeline(options);
  const auto first = pipeline.run_many(std::span<const AssayCase>(cases));
  const auto second = pipeline.run_many(std::span<const AssayCase>(cases));

  ASSERT_EQ(first.size(), cases.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].assay_name, cases[i].name);
    EXPECT_TRUE(first[i].placement.placement.feasible());
    // Same master seed -> identical batch, independent of thread timing.
    EXPECT_EQ(first[i].seed, second[i].seed);
    EXPECT_EQ(first[i].placement.cost.area_cells,
              second[i].placement.cost.area_cells);
  }
  // Items get distinct derived seeds.
  EXPECT_NE(first[0].seed, first[1].seed);
  EXPECT_NE(first[1].seed, first[2].seed);
}

TEST(PipelineTest, RunManyGraphsWithSharedLibrary) {
  const ModuleLibrary library = ModuleLibrary::standard();
  std::vector<SequencingGraph> graphs;
  graphs.push_back(pcr_mixing_graph());
  graphs.push_back(pcr_mixing_graph());
  PipelineOptions options = fast_options();
  options.plan_droplet_routes = false;
  const auto results = SynthesisPipeline(options).run_many(
      std::span<const SequencingGraph>(graphs), library);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    EXPECT_TRUE(result.placement.placement.feasible());
  }
}

TEST(PipelineTest, DeriveItemSeedsIsTheBatchSeedSplit) {
  // The exact walk run_many consumes, pinned: SplitMix64 from the
  // master seed, one value per item in order. dmfb_batch derives its
  // item seeds through the same helper, so this is the cross-harness
  // reproducibility contract.
  const auto seeds = derive_item_seeds(/*master_seed=*/99, /*count=*/4);
  ASSERT_EQ(seeds.size(), 4u);
  SplitMix64 walk(99);
  for (const std::uint64_t seed : seeds) EXPECT_EQ(seed, walk.next());

  // Prefix property: a shorter batch is a prefix of a longer one.
  const auto longer = derive_item_seeds(99, 8);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(longer[i], seeds[i]);
  }
  EXPECT_TRUE(derive_item_seeds(99, 0).empty());
}

TEST(PipelineTest, RunManyMarksFailedItemsInsteadOfThrowing) {
  // Item 0 compiles; item 1 hits the optimal placer's module cap and
  // throws inside its worker. The batch survives: the failed item
  // carries ok=false and the exception text, the good item's result is
  // intact, and both still report their derived seeds.
  const ModuleLibrary library = ModuleLibrary::standard();
  RandomAssayParams params;
  params.mix_operations = 3;  // small enough for the optimal placer
  std::vector<AssayCase> cases;
  cases.push_back(random_assay(params, library, /*seed=*/5));
  cases.push_back(pcr_mixing_assay());  // 10 modules > max_modules=8

  PipelineOptions options = fast_options();
  options.placer = "optimal";
  options.plan_droplet_routes = false;
  const SynthesisPipeline pipeline(options);
  const auto results = pipeline.run_many(std::span<const AssayCase>(cases));

  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_TRUE(results[0].error.empty());
  EXPECT_TRUE(results[0].placement.placement.feasible());

  EXPECT_FALSE(results[1].ok);
  EXPECT_FALSE(results[1].error.empty());
  // The failed entry still records which seed the item would have run
  // with, so a single-item repro is one run() away.
  const auto seeds = derive_item_seeds(options.seed, cases.size());
  EXPECT_EQ(results[0].seed, seeds[0]);
  EXPECT_EQ(results[1].seed, seeds[1]);

  // Single-assay run() keeps the exception contract.
  EXPECT_THROW(pipeline.run(cases[1]), std::invalid_argument);
}

TEST(PipelineTest, FaultPlanRunsOnlineRecoveryThroughSimulateStage) {
  // Compile once clean to learn where a module lands, then re-run the
  // identical compile with a fault planned under it: the simulate stage
  // must drive the online recovery engine, survive, and surface the
  // telemetry both in the result and the observer's detail line.
  PipelineOptions options = fast_options();
  options.placer = "greedy";
  options.simulate = true;
  options.chip_width = 20;
  options.chip_height = 20;
  const SynthesisPipeline clean(options);
  const PipelineResult baseline = clean.run(pcr_mixing_assay());
  ASSERT_TRUE(baseline.simulation.success);
  EXPECT_EQ(baseline.recovery.faults_injected, 0);
  EXPECT_FALSE(baseline.recovery.recovered);

  const Rect fp = baseline.placement.placement.module(0).footprint();
  const ScheduledModule& sm = baseline.schedule.module(0);
  ASSERT_GT(sm.end_s, sm.start_s);
  options.fault_plan.faults.push_back(
      PlannedFault{Point{fp.x + fp.width / 2, fp.y + fp.height / 2},
                   0.5 * (sm.start_s + sm.end_s), -1});

  std::string simulate_detail;
  options.observer = [&](PipelineStage stage, double,
                         const std::string& detail) {
    if (stage == PipelineStage::kSimulate) simulate_detail = detail;
  };
  const SynthesisPipeline faulty(options);
  const PipelineResult result = faulty.run(pcr_mixing_assay());

  EXPECT_TRUE(result.simulation.success) << result.simulation.failure_reason;
  EXPECT_EQ(result.recovery.faults_injected, 1);
  EXPECT_GE(result.recovery.recovery_cycles, 1);
  EXPECT_TRUE(result.recovery.recovered);
  EXPECT_TRUE(result.recovery.completed);
  EXPECT_GT(result.recovery.time_lost_s, 0.0);
  EXPECT_NE(simulate_detail.find("recovery: faults=1"), std::string::npos)
      << simulate_detail;
  // Recovery slips the makespan by exactly the re-run work (reconfigure
  // and reroute rungs preserve every module's duration).
  EXPECT_NEAR(result.simulation.makespan_s,
              baseline.simulation.makespan_s + result.recovery.time_lost_s,
              1e-9);
}

/// Records the context of every replace-rung call, then places greedily.
class ContextRecordingPlacer : public Placer {
 public:
  static constexpr const char* kName = "record-replace-context";

  std::string name() const override { return kName; }
  PlacementOutcome place(const Schedule& schedule,
                         const PlacerContext& context) const override {
    {
      const std::lock_guard<std::mutex> lock(mutex());
      seen().push_back(context);
    }
    return make_placer("greedy")->place(schedule, context);
  }

  static std::mutex& mutex() {
    static std::mutex m;
    return m;
  }
  static std::vector<PlacerContext>& seen() {
    static std::vector<PlacerContext> contexts;
    return contexts;
  }
};

TEST(PipelineTest, ReplaceRungPlacesUnderTheRequestsPlacerContext) {
  // The paper's "relocate the module when a cell is faulty" step must
  // re-place on the request's canvas and with its weights and schedule,
  // not under a default-constructed context.
  auto& registry = PlacerRegistry::global();
  if (!registry.contains(ContextRecordingPlacer::kName)) {
    registry.register_placer(ContextRecordingPlacer::kName, [] {
      return std::make_unique<ContextRecordingPlacer>();
    });
  }
  PipelineOptions options = fast_options();
  options.placer = "greedy";
  options.simulate = true;
  options.placer_context.canvas_width = 22;
  options.placer_context.canvas_height = 21;
  options.placer_context.weights.beta = 7.5;
  options.placer_context.weights.lambda_defect = 90.0;
  const PipelineResult baseline =
      SynthesisPipeline(options).run(pcr_mixing_assay());
  ASSERT_TRUE(baseline.simulation.success);

  // A fault under module 0 mid-run, with only the replace rung enabled.
  const Rect fp = baseline.placement.placement.module(0).footprint();
  const ScheduledModule& sm = baseline.schedule.module(0);
  options.fault_plan.faults.push_back(
      PlannedFault{Point{fp.x + fp.width / 2, fp.y + fp.height / 2},
                   0.5 * (sm.start_s + sm.end_s), -1});
  options.recovery.enable_reconfigure = false;
  options.recovery.enable_reroute = false;
  options.recovery.replace_placer = ContextRecordingPlacer::kName;
  ContextRecordingPlacer::seen().clear();
  const PipelineResult result =
      SynthesisPipeline(options).run(pcr_mixing_assay());
  EXPECT_TRUE(result.recovery.recovered);

  const std::vector<PlacerContext> seen = ContextRecordingPlacer::seen();
  ASSERT_FALSE(seen.empty());
  for (const PlacerContext& context : seen) {
    EXPECT_EQ(context.canvas_width, 22);
    EXPECT_EQ(context.canvas_height, 21);
    EXPECT_EQ(context.weights.beta, 7.5);
    EXPECT_EQ(context.weights.lambda_defect, 90.0);
    EXPECT_EQ(context.annealing.iterations_per_module, 60);
    EXPECT_EQ(context.seed, result.seed);
    EXPECT_FALSE(context.defects.empty());  // the engine adds the fault
  }
}

}  // namespace
}  // namespace dmfb
