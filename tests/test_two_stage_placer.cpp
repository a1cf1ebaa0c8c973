// Tests for the two-stage fault-aware placer (the "two-stage" backend in
// core/placer.h): stage 1 is the "sa" placer at beta = 0, stage 2 the LTSA
// refinement of its placement. SA schedules are shortened for test speed.
#include "core/placer.h"

#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/scheduler.h"
#include "core/fti.h"
#include "core/sa_placer.h"
#include "util/rng.h"

namespace dmfb {
namespace {

Schedule pcr_schedule() {
  const auto assay = pcr_mixing_assay();
  return list_schedule(assay.graph, assay.binding, assay.scheduler_options);
}

PlacerContext fast_context(double beta) {
  PlacerContext context;
  context.two_stage_beta = beta;
  context.annealing.initial_temperature = 1000.0;
  context.annealing.cooling_rate = 0.8;
  context.annealing.iterations_per_module = 60;
  context.ltsa.initial_temperature = 50.0;
  context.ltsa.cooling_rate = 0.8;
  context.ltsa.iterations_per_module = 60;
  return context;
}

/// Stage 1 ("sa" at beta = 0) next to the two-stage answer.
struct Stages {
  PlacementOutcome stage1;
  PlacementOutcome stage2;
};

Stages run_stages(double beta) {
  const Schedule schedule = pcr_schedule();
  const PlacerContext context = fast_context(beta);
  return Stages{make_placer("sa")->place(schedule, context),
                make_placer("two-stage")->place(schedule, context)};
}

void expect_same_outcome(const PlacementOutcome& a,
                         const PlacementOutcome& b) {
  ASSERT_EQ(a.placement.module_count(), b.placement.module_count());
  for (int i = 0; i < a.placement.module_count(); ++i) {
    EXPECT_EQ(a.placement.module(i).anchor, b.placement.module(i).anchor)
        << "module " << i;
    EXPECT_EQ(a.placement.module(i).rotated, b.placement.module(i).rotated)
        << "module " << i;
  }
  EXPECT_EQ(a.cost.value, b.cost.value);
  EXPECT_EQ(a.stats.proposals, b.stats.proposals);
  EXPECT_EQ(a.stats.accepted, b.stats.accepted);
}

TEST(TwoStagePlacerTest, IsLtsaOverTheSaPlacerAtBetaZero) {
  // The composition, spelled out: "sa" at beta = 0, then anneal_from its
  // placement under the LTSA context — context.ltsa, beta =
  // two_stage_beta, single-module displacements only, and a stage-2 seed
  // split off the context seed.
  const Schedule schedule = pcr_schedule();
  PlacerContext context = fast_context(30.0);
  context.seed = 99;
  const PlacementOutcome two =
      make_placer("two-stage")->place(schedule, context);

  const PlacementOutcome stage1 = make_placer("sa")->place(schedule, context);
  PlacerContext ltsa = context;
  ltsa.annealing = context.ltsa;
  ltsa.weights.beta = context.two_stage_beta;
  ltsa.seed = SplitMix64(context.seed ^ 0x5a5a5a5aULL).next();
  ltsa.moves.single_move_probability = 1.0;
  ltsa.moves.rotate_probability = 0.0;
  expect_same_outcome(two, anneal_from(stage1.placement, ltsa));

  // Stage 1 is fault-oblivious whatever the context's own beta says.
  context.weights.beta = 7.0;
  expect_same_outcome(make_placer("two-stage")->place(schedule, context),
                      two);
}

TEST(TwoStagePlacerTest, BothStagesFeasible) {
  const Stages stages = run_stages(30.0);
  EXPECT_TRUE(stages.stage1.placement.feasible());
  EXPECT_TRUE(stages.stage2.placement.feasible());
}

TEST(TwoStagePlacerTest, Stage2ImprovesFti) {
  const Stages stages = run_stages(30.0);
  const double fti1 = evaluate_fti(stages.stage1.placement).fti();
  const double fti2 = evaluate_fti(stages.stage2.placement).fti();
  EXPECT_GE(fti2, fti1);
  EXPECT_GT(fti2, 0.0);
}

TEST(TwoStagePlacerTest, Stage2CostIncludesFti) {
  const Stages stages = run_stages(30.0);
  EXPECT_GT(stages.stage2.cost.fti, 0.0);
  // Stage-1 cost never evaluates FTI (beta = 0).
  EXPECT_DOUBLE_EQ(stages.stage1.cost.fti, 0.0);
}

TEST(TwoStagePlacerTest, WeightedObjectiveNotWorseThanStage1) {
  const double beta = 30.0;
  const Stages stages = run_stages(beta);
  const double stage1_weighted =
      static_cast<double>(stages.stage1.cost.area_cells) -
      beta * evaluate_fti(stages.stage1.placement).fti();
  const double stage2_weighted =
      static_cast<double>(stages.stage2.cost.area_cells) -
      beta * stages.stage2.cost.fti;
  EXPECT_LE(stage2_weighted, stage1_weighted + 1e-9);
}

TEST(TwoStagePlacerTest, HighBetaBuysMoreFtiThanLowBeta) {
  const auto placer = make_placer("two-stage");
  const auto low = placer->place(pcr_schedule(), fast_context(5.0));
  const auto high = placer->place(pcr_schedule(), fast_context(80.0));
  EXPECT_GE(high.cost.fti, low.cost.fti - 1e-9);
}

TEST(TwoStagePlacerTest, DeterministicForSeeds) {
  const Schedule schedule = pcr_schedule();
  const auto placer = make_placer("two-stage");
  const auto a = placer->place(schedule, fast_context(30.0));
  const auto b = placer->place(schedule, fast_context(30.0));
  EXPECT_EQ(a.cost.area_cells, b.cost.area_cells);
  EXPECT_DOUBLE_EQ(a.cost.fti, b.cost.fti);
}

TEST(TwoStagePlacerTest, DefaultLtsaIsLowTemperature) {
  const PlacerContext context;
  EXPECT_LT(context.ltsa.initial_temperature,
            context.annealing.initial_temperature);
}

}  // namespace
}  // namespace dmfb
