// End-to-end integration tests: behavioural model -> synthesis ->
// placement -> FTI -> simulation -> fault recovery, across several assays
// and seeds. These are the paper's full flow run as one pipeline.
#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/random_assay.h"
#include "assay/scheduler.h"
#include "core/fti.h"
#include "core/greedy_placer.h"
#include "core/placer.h"
#include "core/sa_placer.h"
#include "sim/fault.h"
#include "sim/recovery.h"
#include "sim/sim_engine.h"
#include "sim/tester.h"
#include "util/rng.h"

namespace dmfb {
namespace {

PlacerContext fast_sa() {
  PlacerContext context;
  context.annealing.initial_temperature = 1000.0;
  context.annealing.cooling_rate = 0.8;
  context.annealing.iterations_per_module = 80;
  return context;
}

TEST(IntegrationTest, PcrFullFlowMatchesPaperShape) {
  // Synthesis.
  const auto assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  ASSERT_TRUE(schedule.validate_against(assay.graph).empty());

  // Baseline greedy vs annealed placement: SA must not be worse.
  const Placement greedy = place_greedy(schedule, 24, 24);
  const auto sa = make_placer("sa")->place(schedule, fast_sa());
  EXPECT_LE(sa.cost.area_cells, greedy.bounding_box_cells());

  // Compact placements are fault-fragile (the paper's §6.2 observation).
  const double sa_fti = evaluate_fti(sa.placement).fti();
  EXPECT_LT(sa_fti, 0.5);

  // Two-stage trades area for fault tolerance.
  PlacerContext two_context = fast_sa();
  two_context.two_stage_beta = 30.0;
  two_context.ltsa.iterations_per_module = 80;
  two_context.ltsa.cooling_rate = 0.8;
  const auto two = make_placer("two-stage")->place(schedule, two_context);
  const double two_fti = evaluate_fti(two.placement).fti();
  EXPECT_GT(two_fti, sa_fti);
  EXPECT_GE(two.cost.area_cells, sa.cost.area_cells);

  // The enhanced placement actually executes.
  const Chip chip(24, 24);
  EventSimEngine engine;
  const auto run =
      engine.run(assay.graph, schedule, two.placement, chip).result;
  EXPECT_TRUE(run.success) << run.failure_reason;
}

TEST(IntegrationTest, DetectThenRecoverPipeline) {
  const auto assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const Placement placement = place_greedy(schedule, 20, 20);
  const Rect array{0, 0, 20, 20};

  // Fault under a module of the first time slice.
  const int victim = placement.slice_members().front().front();
  const Rect fp = placement.module(victim).footprint();
  const Point fault{fp.x + 1, fp.y + 1};

  // 1. On-line tester localizes the fault on the idle regions... here we
  //    test it on the idle chip before the assay starts.
  Chip chip(20, 20);
  inject_fault(chip, fault);
  const OnlineTester tester;
  const auto detection =
      tester.run_test(chip, Matrix<std::uint8_t>(20, 20, 0), Point{0, 0});
  ASSERT_TRUE(detection.fault_detected);
  EXPECT_EQ(detection.faulty_cell, fault);

  // 2. Partial reconfiguration relocates every module using the cell.
  const Reconfigurator reconfig;
  const auto recovery =
      reconfig.recover(placement, detection.faulty_cell, array);
  ASSERT_TRUE(recovery.success) << recovery.failure_reason;

  // 3. The assay completes on the repaired placement.
  EventSimEngine engine;
  const auto run =
      engine.run(assay.graph, schedule, recovery.placement, chip).result;
  EXPECT_TRUE(run.success) << run.failure_reason;
}

TEST(IntegrationTest, MultiplexedDiagnosticsEndToEnd) {
  const auto lib = ModuleLibrary::standard();
  const auto assay = multiplexed_diagnostics_assay(2, 2, lib);
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  ASSERT_TRUE(schedule.validate_against(assay.graph).empty());

  const auto sa = make_placer("sa")->place(schedule, fast_sa());
  ASSERT_TRUE(sa.placement.feasible());

  const Chip chip(24, 24);
  EventSimEngine engine;
  const auto run =
      engine.run(assay.graph, schedule, sa.placement, chip).result;
  EXPECT_TRUE(run.success) << run.failure_reason;

  // Every mix output contains its sample and reagent at 50% each.
  for (const auto& op : assay.graph.operations()) {
    if (op.type != OperationType::kMix) continue;
    const auto it = run.op_outputs.find(op.id);
    ASSERT_NE(it, run.op_outputs.end()) << op.label;
    double sample_fraction = 0.0;
    for (const auto& [reagent, fraction] : it->second.contents()) {
      if (reagent.rfind("sample-", 0) == 0) sample_fraction += fraction;
    }
    EXPECT_NEAR(sample_fraction, 0.5, 1e-9) << op.label;
  }
}

class RandomAssayIntegration : public ::testing::TestWithParam<int> {};

TEST_P(RandomAssayIntegration, SynthesizePlaceSimulate) {
  const auto lib = ModuleLibrary::standard();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 13);
  RandomAssayParams params;
  params.mix_operations = 4 + static_cast<int>(rng.next_below(6));
  params.max_layer_width = 3;
  const auto assay = random_assay(params, lib, rng);

  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  ASSERT_TRUE(schedule.validate_against(assay.graph).empty());

  PlacerContext context = fast_sa();
  context.canvas_width = 32;
  context.canvas_height = 32;
  context.seed = rng.next();
  const auto sa = make_placer("sa")->place(schedule, context);
  ASSERT_TRUE(sa.placement.feasible());
  EXPECT_GE(sa.cost.area_cells, schedule.peak_concurrent_cells());

  // FTI and campaign agree on whatever came out.
  const Rect array = sa.placement.bounding_box();
  const Reconfigurator reconfig;
  const auto campaign =
      exhaustive_fault_campaign(sa.placement, array, reconfig);
  const auto fti = evaluate_fti(sa.placement, {}, array);
  EXPECT_EQ(campaign.survivable_cells, fti.covered_cells);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAssayIntegration,
                         ::testing::Range(0, 6));

TEST(IntegrationTest, ProteinDilutionFullFlow) {
  const auto lib = ModuleLibrary::standard();
  const auto assay = protein_dilution_assay(3, lib);
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const auto sa = make_placer("sa")->place(schedule, fast_sa());
  ASSERT_TRUE(sa.placement.feasible());
  const Chip chip(24, 24);
  EventSimEngine engine;
  const auto run =
      engine.run(assay.graph, schedule, sa.placement, chip).result;
  EXPECT_TRUE(run.success) << run.failure_reason;
  // Leaf dilutions reach protein fraction 1/8.
  double min_fraction = 1.0;
  for (const auto& [op, droplet] : run.op_outputs) {
    if (assay.graph.operation(op).type == OperationType::kDilute) {
      min_fraction = std::min(min_fraction, droplet.fraction_of("protein"));
    }
  }
  EXPECT_NEAR(min_fraction, 0.125, 1e-9);
}

}  // namespace
}  // namespace dmfb
