// Tests for fault injection and the detect-reconfigure-resume loop
// (sim/fault.h, sim/recovery.h). The headline property: the exhaustive
// fault campaign (real reconfiguration engine) must agree exactly with
// the FTI evaluator the placer optimizes.
#include "sim/recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "assay/assay_library.h"
#include "assay/scheduler.h"
#include "core/greedy_placer.h"
#include "sim/fault.h"
#include "util/rng.h"

namespace dmfb {
namespace {

struct PcrSetup {
  SequencingGraph graph;
  Schedule schedule;
  Placement placement;
};

PcrSetup pcr_setup(int canvas = 16) {
  const auto assay = pcr_mixing_assay();
  Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  Placement placement = place_greedy(schedule, canvas, canvas);
  return PcrSetup{assay.graph, std::move(schedule),
                  std::move(placement)};
}

TEST(FaultTest, UniformSamplerStaysInArray) {
  Rng rng(3);
  const Rect array{2, 3, 5, 4};
  for (int i = 0; i < 500; ++i) {
    const Point p = sample_uniform_fault(array, rng);
    EXPECT_TRUE(array.contains(p));
  }
}

TEST(FaultTest, UniformSamplerHitsEveryCell) {
  Rng rng(5);
  const Rect array{0, 0, 4, 3};
  Matrix<int> hits(4, 3, 0);
  for (int i = 0; i < 5000; ++i) {
    const Point p = sample_uniform_fault(array, rng);
    ++hits.at(p);
  }
  for (const int h : hits) EXPECT_GT(h, 0);
}

TEST(FaultTest, EmptyArrayThrows) {
  Rng rng(1);
  EXPECT_THROW(sample_uniform_fault(Rect{}, rng), std::invalid_argument);
}

TEST(FaultTest, EnumerateCellsRowMajor) {
  const auto cells = enumerate_cells(Rect{1, 1, 2, 2});
  EXPECT_EQ(cells, (std::vector<Point>{{1, 1}, {2, 1}, {1, 2}, {2, 2}}));
}

TEST(FaultTest, InjectAndClear) {
  Chip chip(4, 4);
  inject_fault(chip, Point{1, 2});
  inject_fault(chip, Point{3, 3});
  EXPECT_EQ(chip.faulty_count(), 2);
  clear_faults(chip);
  EXPECT_EQ(chip.faulty_count(), 0);
  EXPECT_THROW(inject_fault(chip, Point{9, 9}), std::out_of_range);
}

TEST(RecoveryTest, CampaignMatchesFtiExactly) {
  const auto setup = pcr_setup();
  const Rect array = setup.placement.bounding_box();
  const Reconfigurator reconfig;
  const auto campaign =
      exhaustive_fault_campaign(setup.placement, array, reconfig);
  const FtiResult fti = evaluate_fti(setup.placement, {}, array);
  EXPECT_EQ(campaign.total_cells, fti.total_cells);
  EXPECT_EQ(campaign.survivable_cells, fti.covered_cells);
  EXPECT_DOUBLE_EQ(campaign.survivable_fraction(), fti.fti());
  // Unsurvivable cells are exactly the uncovered ones.
  for (const Point& cell : campaign.unsurvivable) {
    EXPECT_EQ(fti.covered.at(cell.x - array.x, cell.y - array.y), 0);
  }
}

TEST(RecoveryTest, CampaignMatchesFtiOnTwoStagePlacement) {
  const auto setup = pcr_setup();
  PlacerContext context;
  context.two_stage_beta = 30.0;
  context.annealing.iterations_per_module = 60;
  context.annealing.initial_temperature = 1000.0;
  context.annealing.cooling_rate = 0.8;
  context.ltsa.iterations_per_module = 60;
  context.ltsa.cooling_rate = 0.8;
  const auto outcome = make_placer("two-stage")->place(setup.schedule, context);
  const Rect array = outcome.placement.bounding_box();
  const Reconfigurator reconfig;
  const auto campaign =
      exhaustive_fault_campaign(outcome.placement, array, reconfig);
  const FtiResult fti = evaluate_fti(outcome.placement, {}, array);
  EXPECT_EQ(campaign.survivable_cells, fti.covered_cells);
}

TEST(RecoveryTest, OnlineRecoveryFromCoveredCell) {
  const auto setup = pcr_setup(20);
  const Rect array{0, 0, 20, 20};  // plenty of spare room
  const Reconfigurator reconfig;

  // Pick the center of module 0 — with a 20x20 array it must be covered.
  const Rect fp = setup.placement.module(0).footprint();
  const Point fault{fp.x + fp.width / 2, fp.y + fp.height / 2};

  const auto result = simulate_online_recovery(
      setup.graph, setup.schedule, setup.placement, fault, array, reconfig);
  EXPECT_TRUE(result.fault_hit);
  EXPECT_TRUE(result.recovered) << result.detail;
  EXPECT_TRUE(result.completed) << result.detail;
  EXPECT_FALSE(result.reconfiguration.relocations.empty());
  // The relocated module avoids the fault.
  for (const auto& relocation : result.reconfiguration.relocations) {
    const auto& m =
        result.reconfiguration.placement.module(relocation.module_index);
    EXPECT_FALSE(m.footprint().contains(fault));
  }
}

TEST(RecoveryTest, HarmlessFaultNeedsNoRecovery) {
  const auto setup = pcr_setup(20);
  const Rect array{0, 0, 20, 20};
  const Reconfigurator reconfig;
  const auto result = simulate_online_recovery(
      setup.graph, setup.schedule, setup.placement, Point{19, 19}, array,
      reconfig);
  EXPECT_FALSE(result.fault_hit);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.reconfiguration.relocations.empty());
}

TEST(RecoveryTest, UnrecoverableWhenArrayIsTight) {
  // Clamp the array to exactly the bounding box of a greedy placement and
  // fault a cell the FTI evaluator calls uncovered: recovery must fail.
  const auto setup = pcr_setup();
  const Rect array = setup.placement.bounding_box();
  const FtiResult fti = evaluate_fti(setup.placement, {}, array);
  Point uncovered{-1, -1};
  for (const Point& cell : enumerate_cells(array)) {
    if (fti.covered.at(cell.x - array.x, cell.y - array.y) == 0) {
      uncovered = cell;
      break;
    }
  }
  ASSERT_GE(uncovered.x, 0) << "placement is fully covered; pick another";
  const Reconfigurator reconfig;
  const auto result = simulate_online_recovery(
      setup.graph, setup.schedule, setup.placement, uncovered, array,
      reconfig);
  EXPECT_TRUE(result.fault_hit);
  EXPECT_FALSE(result.recovered);
  EXPECT_FALSE(result.completed);
}

TEST(RecoveryTest, RandomFaultsEitherRecoverOrAreUncovered) {
  const auto setup = pcr_setup();
  const Rect array = setup.placement.bounding_box();
  const Reconfigurator reconfig;
  const FtiResult fti = evaluate_fti(setup.placement, {}, array);
  Rng rng(31);
  for (int i = 0; i < 25; ++i) {
    const Point fault = sample_uniform_fault(array, rng);
    const auto result = simulate_online_recovery(
        setup.graph, setup.schedule, setup.placement, fault, array,
        reconfig);
    const bool covered =
        fti.covered.at(fault.x - array.x, fault.y - array.y) != 0;
    bool inside_module = false;
    for (const auto& m : setup.placement.modules()) {
      inside_module = inside_module || m.footprint().contains(fault);
    }
    if (inside_module) {
      // The assay must stall on this fault, and reconfiguration succeeds
      // exactly for covered cells. (Whether the re-run also completes
      // depends on droplet routability, which FTI — like the paper —
      // does not model; the spacious-array test above asserts it.)
      EXPECT_TRUE(result.fault_hit);
      EXPECT_EQ(result.recovered, covered)
          << "fault (" << fault.x << "," << fault.y << ")";
    } else {
      // Free cell: covered by definition.
      EXPECT_TRUE(covered);
    }
  }
}

// ---- online recovery engine ------------------------------------------

/// A (module, cell) pair used as a fault-injection target.
struct UniqueCellVictim {
  int module = -1;
  Point cell{};
};

ModuleSpec mixer_2x2() {
  ModuleSpec spec;
  spec.name = "2x2-array mixer";
  spec.kind = ModuleKind::kMixer;
  spec.functional_width = 2;
  spec.functional_height = 2;
  spec.duration_s = 4.0;
  return spec;
}

ScheduledModule scheduled(OperationId op, std::string label, ModuleSpec spec,
                          double start, double end) {
  ScheduledModule m;
  m.op_id = op;
  m.label = std::move(label);
  m.spec = std::move(spec);
  m.start_s = start;
  m.end_s = end;
  return m;
}

/// A three-mix chain (A -> B -> C) with spatially separated modules on a
/// 24x24 canvas, so every cell is owned by exactly one module and a
/// mid-run fault disturbs exactly one operation. The greedy PCR
/// placement cannot serve here: it time-multiplexes cells across
/// modules, so no uniquely-owned cell exists.
struct ChainSetup {
  SequencingGraph graph;
  Schedule schedule;
  Placement placement;
};

ChainSetup chain_setup() {
  ChainSetup s;
  const OperationId a = s.graph.add_operation(OperationType::kMix, "A");
  const OperationId b = s.graph.add_operation(OperationType::kMix, "B");
  const OperationId c = s.graph.add_operation(OperationType::kMix, "C");
  s.graph.add_dependency(a, b);
  s.graph.add_dependency(b, c);
  s.schedule.add(scheduled(a, "MA", mixer_2x2(), 0.0, 4.0));
  s.schedule.add(scheduled(b, "MB", mixer_2x2(), 10.0, 14.0));
  s.schedule.add(scheduled(c, "MC", mixer_2x2(), 20.0, 24.0));
  Placement placement(s.schedule, 24, 24);
  placement.set_position(0, Point{1, 1}, false);    // footprint (1,1)-(4,4)
  placement.set_position(1, Point{10, 10}, false);  // (10,10)-(13,13)
  placement.set_position(2, Point{1, 10}, false);   // (1,10)-(4,13)
  s.placement = std::move(placement);
  return s;
}

TEST(OnlineRecoveryTest, EmptyPlanCompletesWithoutRecovery) {
  const auto setup = pcr_setup(20);
  const OnlineRecoveryEngine engine;
  const auto out = engine.run(setup.graph, setup.schedule, setup.placement,
                              Rect{0, 0, 20, 20}, FaultInjectionPlan{});
  EXPECT_TRUE(out.simulation.success);
  EXPECT_TRUE(out.recovery.completed);
  EXPECT_FALSE(out.recovery.recovered);
  EXPECT_EQ(out.recovery.faults_injected, 0);
  EXPECT_EQ(out.recovery.recovery_cycles, 0);
  EXPECT_FALSE(out.last_checkpoint.valid);
}

TEST(OnlineRecoveryTest, MidRunFaultReconfiguresAndResumes) {
  const auto setup = chain_setup();
  const Rect array{0, 0, 24, 24};
  const UniqueCellVictim victim{1, Point{12, 12}};  // MB's site
  const ScheduledModule& vm = setup.schedule.module(victim.module);
  const double mid = 0.5 * (vm.start_s + vm.end_s);  // t = 12

  FaultInjectionPlan plan;
  plan.faults.push_back(PlannedFault{victim.cell, mid, -1});

  const OnlineRecoveryEngine engine;
  const auto out =
      engine.run(setup.graph, setup.schedule, setup.placement, array, plan);

  EXPECT_TRUE(out.recovery.completed) << out.recovery.detail;
  EXPECT_TRUE(out.recovery.recovered);
  EXPECT_EQ(out.recovery.faults_injected, 1);
  EXPECT_EQ(out.recovery.recovery_cycles, 1);
  ASSERT_FALSE(out.recovery.attempts.empty());
  EXPECT_EQ(out.recovery.attempts.front().action,
            RecoveryAction::kReconfigure);
  EXPECT_TRUE(out.recovery.attempts.front().success);
  EXPECT_FALSE(out.recovery.attempts.front().relocations.empty());
  EXPECT_EQ(out.recovery.resumed_from_s, mid);

  // Escalation repaired the placement: nothing sits on the fault.
  for (const auto& m : out.final_placement.modules()) {
    EXPECT_FALSE(m.footprint().contains(victim.cell));
  }

  // The merged simulation reads as one continuous execution whose
  // completed prefix is bit-identical to the uninterrupted run, with the
  // detection and repair markers spliced in at the failure instant.
  EventSimEngine baseline_engine;
  const auto baseline = baseline_engine.run(setup.graph, setup.schedule,
                                            setup.placement, Chip(24, 24));
  ASSERT_TRUE(baseline.result.success);
  const std::size_t prefix = out.recovery.clean_prefix_events;
  ASSERT_LE(prefix, out.simulation.events.size());
  ASSERT_LE(prefix, baseline.result.events.size());
  for (std::size_t i = 0; i < prefix; ++i) {
    EXPECT_EQ(out.simulation.events[i].time_s,
              baseline.result.events[i].time_s);
    EXPECT_EQ(out.simulation.events[i].what, baseline.result.events[i].what);
  }
  bool saw_failure = false;
  bool saw_marker = false;
  for (const SimEvent& event : out.simulation.events) {
    saw_failure =
        saw_failure || event.what.find("contains faulty cell") !=
                           std::string::npos;
    saw_marker = saw_marker ||
                 event.what.find("recovery: reconfigure") != std::string::npos;
  }
  EXPECT_TRUE(saw_failure);
  EXPECT_TRUE(saw_marker);

  // Only the interrupted operation's time was lost: makespan slips by
  // exactly the rolled-back work.
  EXPECT_NEAR(out.recovery.time_lost_s, mid - vm.start_s, 1e-9);
  EXPECT_NEAR(out.simulation.makespan_s,
              baseline.result.makespan_s + out.recovery.time_lost_s, 1e-9);
  // Every operation still produced its droplet.
  EXPECT_EQ(out.simulation.op_outputs.size(),
            baseline.result.op_outputs.size());
}

TEST(OnlineRecoveryTest, ReplaceRungWhenReconfigureDisabled) {
  const auto setup = chain_setup();
  const UniqueCellVictim victim{1, Point{12, 12}};
  const ScheduledModule& vm = setup.schedule.module(victim.module);

  FaultInjectionPlan plan;
  plan.faults.push_back(
      PlannedFault{victim.cell, 0.5 * (vm.start_s + vm.end_s), -1});

  RecoveryOptions options;
  options.enable_reconfigure = false;  // force escalation to the top rung
  options.enable_reroute = false;
  const OnlineRecoveryEngine engine(options);
  const auto out = engine.run(setup.graph, setup.schedule, setup.placement,
                              Rect{0, 0, 24, 24}, plan);
  EXPECT_TRUE(out.recovery.completed) << out.recovery.detail;
  ASSERT_FALSE(out.recovery.attempts.empty());
  bool replaced = false;
  for (const auto& attempt : out.recovery.attempts) {
    EXPECT_NE(attempt.action, RecoveryAction::kReconfigure);
    replaced = replaced || (attempt.action == RecoveryAction::kReplace &&
                            attempt.success);
  }
  EXPECT_TRUE(replaced);
  for (const auto& m : out.final_placement.modules()) {
    EXPECT_FALSE(m.footprint().contains(victim.cell));
  }
}

TEST(OnlineRecoveryTest, DegradesGracefullyWhenLadderExhausted) {
  const auto setup = pcr_setup();
  const Rect array = setup.placement.bounding_box();
  const FtiResult fti = evaluate_fti(setup.placement, {}, array);
  // A mid-run fault on an uncovered cell with every repair rung disabled:
  // the engine must hand back a partial result plus diagnostics, not
  // throw or spin.
  UniqueCellVictim victim;
  for (int i = 0; i < setup.placement.module_count() && victim.module < 0;
       ++i) {
    const Rect fp = setup.placement.module(i).footprint();
    const ScheduledModule& sm = setup.schedule.module(i);
    if (sm.end_s <= sm.start_s) continue;
    for (const Point& cell : enumerate_cells(fp.intersection(array))) {
      if (fti.covered.at(cell.x - array.x, cell.y - array.y) == 0) {
        victim = UniqueCellVictim{i, cell};
        break;
      }
    }
  }
  ASSERT_GE(victim.module, 0) << "placement fully covered";
  const ScheduledModule& vm = setup.schedule.module(victim.module);

  FaultInjectionPlan plan;
  plan.faults.push_back(
      PlannedFault{victim.cell, 0.5 * (vm.start_s + vm.end_s), -1});

  RecoveryOptions options;
  options.enable_reroute = false;
  options.enable_replace = false;
  const OnlineRecoveryEngine engine(options);
  const auto out = engine.run(setup.graph, setup.schedule, setup.placement,
                              array, plan);
  EXPECT_FALSE(out.recovery.completed);
  EXPECT_FALSE(out.simulation.success);
  EXPECT_EQ(out.recovery.faults_injected, 1);
  EXPECT_TRUE(out.last_checkpoint.valid);
  EXPECT_NE(out.recovery.detail.find("ladder exhausted"), std::string::npos)
      << out.recovery.detail;
  ASSERT_FALSE(out.recovery.attempts.empty());
  EXPECT_FALSE(out.recovery.attempts.back().success);
}

TEST(OnlineRecoveryTest, TwoFaultsTwoCycles) {
  const auto setup = chain_setup();
  const Rect array{0, 0, 24, 24};
  // Fault 1 hits MB mid-run (concurrent detection). Fault 2 lands on
  // MC's site at its nominal start instant; by then MC has been retimed
  // past it, so the fault is latent until MC's start-scan catches it —
  // both detection paths are exercised, two recovery cycles total.
  FaultInjectionPlan plan;
  plan.faults.push_back(PlannedFault{Point{12, 12}, 12.0, -1});  // MB
  plan.faults.push_back(PlannedFault{Point{3, 12}, 20.0, -1});   // MC

  const OnlineRecoveryEngine engine;
  const auto out =
      engine.run(setup.graph, setup.schedule, setup.placement, array, plan);
  EXPECT_TRUE(out.recovery.completed) << out.recovery.detail;
  EXPECT_EQ(out.recovery.faults_injected, 2);
  EXPECT_GE(out.recovery.recovery_cycles, 2);
  EXPECT_TRUE(out.recovery.recovered);
}

TEST(OnlineRecoveryTest, RecoveryWallIsTheSumOfAttemptWalls) {
  const auto setup = chain_setup();
  const Rect array{0, 0, 24, 24};
  const OnlineRecoveryEngine engine;

  // No fault fires (none planned, or one planned after the assay ends):
  // no attempt ran, so no host time went to recovery.
  FaultInjectionPlan late;
  late.faults.push_back(PlannedFault{Point{12, 12}, 1e6, -1});
  for (const FaultInjectionPlan& plan : {FaultInjectionPlan{}, late}) {
    const auto out =
        engine.run(setup.graph, setup.schedule, setup.placement, array, plan);
    EXPECT_EQ(out.recovery.faults_injected, 0);
    EXPECT_TRUE(out.recovery.attempts.empty());
    EXPECT_EQ(out.recovery.recovery_wall_s, 0.0);
  }

  // Two recovery cycles: the report's wall time is exactly the attempts'
  // own, not the whole run's (simulation included).
  FaultInjectionPlan plan;
  plan.faults.push_back(PlannedFault{Point{12, 12}, 12.0, -1});
  plan.faults.push_back(PlannedFault{Point{3, 12}, 20.0, -1});
  const auto out =
      engine.run(setup.graph, setup.schedule, setup.placement, array, plan);
  ASSERT_GE(out.recovery.attempts.size(), 2u);
  double attempts_wall = 0.0;
  for (const RecoveryAttempt& attempt : out.recovery.attempts) {
    attempts_wall += attempt.wall_s;
  }
  EXPECT_EQ(out.recovery.recovery_wall_s, attempts_wall);
}

TEST(OnlineRecoveryTest, SampledPlansAreSortedAndInBounds) {
  Rng rng(11);
  const Rect array{0, 0, 16, 16};
  const auto plan = sample_fault_plan(array, 8, 40.0, rng);
  ASSERT_EQ(plan.faults.size(), 8u);
  for (std::size_t i = 0; i < plan.faults.size(); ++i) {
    EXPECT_TRUE(array.contains(plan.faults[i].cell));
    EXPECT_GE(plan.faults[i].time_s, 0.0);
    EXPECT_LT(plan.faults[i].time_s, 40.0);
    if (i > 0) {
      EXPECT_GE(plan.faults[i].time_s, plan.faults[i - 1].time_s);
    }
  }
  EXPECT_THROW(sample_fault_plan(array, -1, 40.0, rng),
               std::invalid_argument);
}

TEST(OnlineRecoveryTest, SingleFaultCampaignConsistentWithFti) {
  // For faults injected at a module's own mid-run instant, online
  // survivability via the reconfigure rung must match the FTI
  // prediction: covered cells recover, uncovered cells (with the ladder
  // capped at rung 1) do not.
  const auto setup = pcr_setup();
  const Rect array = setup.placement.bounding_box();
  const FtiResult fti = evaluate_fti(setup.placement, {}, array);

  RecoveryOptions options;
  options.enable_reroute = false;
  options.enable_replace = false;
  const OnlineRecoveryEngine engine(options);

  Rng rng(1031);
  int checked = 0;
  for (int trial = 0; trial < 40 && checked < 12; ++trial) {
    const Point cell = sample_uniform_fault(array, rng);
    // Find the first module whose footprint holds the cell; inject at
    // its mid-run instant so detection is the concurrent-testing path.
    int owner = -1;
    for (int i = 0; i < setup.placement.module_count(); ++i) {
      if (setup.placement.module(i).footprint().contains(cell) &&
          setup.schedule.module(i).end_s > setup.schedule.module(i).start_s) {
        owner = i;
        break;
      }
    }
    if (owner < 0) continue;
    ++checked;
    const ScheduledModule& sm = setup.schedule.module(owner);
    FaultInjectionPlan plan;
    plan.faults.push_back(
        PlannedFault{cell, 0.5 * (sm.start_s + sm.end_s), -1});
    const auto out = engine.run(setup.graph, setup.schedule, setup.placement,
                                array, plan);
    const bool covered =
        fti.covered.at(cell.x - array.x, cell.y - array.y) != 0;
    EXPECT_EQ(out.recovery.recovered, covered)
        << "cell (" << cell.x << "," << cell.y << ")";
  }
  EXPECT_GE(checked, 1);
}

}  // namespace
}  // namespace dmfb
