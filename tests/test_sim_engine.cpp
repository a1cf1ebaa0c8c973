// Tests for the event-queue simulation engine (sim/sim_engine.h): the
// bit-identity audit against the reference simulator (the test oracle in
// tests/oracles/reference_simulator.h) on events, op_outputs, route
// accounting and failure reasons — the same pinning discipline the
// copy/delta annealing engines use — the stall detector's wait-chain
// reporting, teleport-mode parity, record_events, and the telemetry.
#include "sim/sim_engine.h"

#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/random_assay.h"
#include "assay/scheduler.h"
#include "core/greedy_placer.h"
#include "oracles/reference_simulator.h"
#include "sim/fault.h"

namespace dmfb {
namespace {

struct Synthesized {
  SequencingGraph graph;
  Schedule schedule;
  Placement placement;
};

Synthesized pcr_setup(int canvas = 16) {
  const auto assay = pcr_mixing_assay();
  Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  Placement placement = place_greedy(schedule, canvas, canvas);
  return Synthesized{assay.graph, std::move(schedule),
                     std::move(placement)};
}

Synthesized random_setup(std::uint64_t seed, int mixes, int canvas) {
  const auto lib = ModuleLibrary::standard();
  RandomAssayParams params;
  params.mix_operations = mixes;
  params.max_layer_width = 4;
  const AssayCase assay = random_assay(params, lib, seed);
  Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  Placement placement = place_greedy(schedule, canvas, canvas);
  return Synthesized{assay.graph, std::move(schedule),
                     std::move(placement)};
}

/// Full-strength identity: every field, exact doubles — the two engines
/// must agree to the bit, not approximately.
void expect_identical(const SimulationResult& event,
                      const SimulationResult& reference) {
  EXPECT_EQ(event.success, reference.success);
  EXPECT_EQ(event.failure_reason, reference.failure_reason);
  EXPECT_EQ(event.failed_module, reference.failed_module);
  EXPECT_EQ(event.fault_cell, reference.fault_cell);
  EXPECT_EQ(event.makespan_s, reference.makespan_s);
  EXPECT_EQ(event.routes_planned, reference.routes_planned);
  EXPECT_EQ(event.route_cells, reference.route_cells);
  EXPECT_EQ(event.transport_seconds, reference.transport_seconds);
  ASSERT_EQ(event.events.size(), reference.events.size());
  for (std::size_t i = 0; i < event.events.size(); ++i) {
    EXPECT_EQ(event.events[i].time_s, reference.events[i].time_s) << "at " << i;
    EXPECT_EQ(event.events[i].what, reference.events[i].what) << "at " << i;
  }
  EXPECT_EQ(event.op_outputs, reference.op_outputs);
}

SimulationResult event_run(const Synthesized& s, const Chip& chip,
                           const SimOptions& options = {}) {
  return EventSimEngine(options)
      .run(s.graph, s.schedule, s.placement, chip)
      .result;
}

SimulationResult reference_run(const Synthesized& s, const Chip& chip,
                               const SimOptions& options = {}) {
  return oracle::run_reference(s.graph, s.schedule, s.placement, chip,
                               options);
}

TEST(SimEngineTest, PcrBitIdenticalToReference) {
  const auto s = pcr_setup();
  const Chip chip(16, 16);
  expect_identical(event_run(s, chip), reference_run(s, chip));
}

TEST(SimEngineTest, RandomAssaysBitIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
    const auto s = random_setup(seed, 10, 20);
    const Chip chip(20, 20);
    expect_identical(event_run(s, chip), reference_run(s, chip));
  }
}

TEST(SimEngineTest, FaultyChipFailuresBitIdentical) {
  // Deterministic fault sprinkles: some land inside module footprints
  // (module-fault failures), some on routes (routing failures), some
  // nowhere interesting — all must fail or pass identically.
  for (const std::uint64_t seed : {3ULL, 9ULL, 77ULL}) {
    const auto s = random_setup(seed, 8, 18);
    for (int sprinkle = 1; sprinkle <= 5; ++sprinkle) {
      Chip chip(18, 18);
      for (int k = 0; k < sprinkle * 3; ++k) {
        inject_fault(chip, Point{(k * 5 + sprinkle) % 18, (k * 7 + 3) % 18});
      }
      expect_identical(event_run(s, chip), reference_run(s, chip));
    }
  }
}

TEST(SimEngineTest, TeleportModeBitIdentical) {
  const auto s = pcr_setup();
  const Chip chip(16, 16);
  SimOptions options;
  options.verify_routing = false;
  const auto event = event_run(s, chip, options);
  const auto reference = reference_run(s, chip, options);
  expect_identical(event, reference);
  EXPECT_TRUE(event.success);
  EXPECT_EQ(event.routes_planned, 0);  // teleporting plans no routes
}

TEST(SimEngineTest, RecordEventsOffDropsOnlyTheLog) {
  const auto s = pcr_setup();
  const Chip chip(16, 16);
  SimOptions quiet;
  quiet.record_events = false;
  for (const auto run : {&event_run, &reference_run}) {
    const auto with_log = run(s, chip, {});
    auto without_log = run(s, chip, quiet);
    EXPECT_TRUE(without_log.events.empty());
    EXPECT_FALSE(with_log.events.empty());
    without_log.events = with_log.events;  // the only permitted difference
    expect_identical(without_log, with_log);
  }
}

TEST(SimEngineTest, EngineInstanceReusableAcrossRuns) {
  // Scratch state (grids, A* stamps, pools) persists across run() calls;
  // a reused engine must produce the same result as a fresh one, on
  // different problems back to back.
  EventSimEngine engine;
  const auto a = pcr_setup();
  const auto b = random_setup(11, 12, 20);
  const Chip chip_a(16, 16);
  const Chip chip_b(20, 20);
  const auto first = engine.run(a.graph, a.schedule, a.placement, chip_a);
  const auto second = engine.run(b.graph, b.schedule, b.placement, chip_b);
  const auto again = engine.run(a.graph, a.schedule, a.placement, chip_a);
  expect_identical(first.result, reference_run(a, chip_a));
  expect_identical(second.result,
                   reference_run(b, chip_b));
  expect_identical(again.result, first.result);
}

TEST(SimEngineTest, GridReuseInvalidatedByChipMutation) {
  // A clean run on a fault-free chip leaves the engine's blocked grid
  // reusable (keyed on Chip::fault_revision() == 0). Mutating the chip
  // between runs must invalidate that cache: the next run rebuilds and
  // stays bit-identical to the reference, in every direction.
  EventSimEngine engine;
  const auto s = random_setup(11, 12, 20);
  Chip chip(20, 20);

  const auto clean = engine.run(s.graph, s.schedule, s.placement, chip);
  expect_identical(clean.result, reference_run(s, chip));

  // Inject a fault dead-center: revision bumps, the reuse key breaks.
  chip.set_faulty(Point{10, 10});
  ASSERT_NE(chip.fault_revision(), 0u);
  const auto faulty = engine.run(s.graph, s.schedule, s.placement, chip);
  expect_identical(faulty.result, reference_run(s, chip));

  // Clearing the fault keeps the revision nonzero — the engine must
  // re-scan (not trust a stale fault set) and match the clean run again.
  chip.set_faulty(Point{10, 10}, false);
  const auto cleared = engine.run(s.graph, s.schedule, s.placement, chip);
  expect_identical(cleared.result, clean.result);
}

// ---- stall detection -------------------------------------------------

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

/// A producer module finishes at (10,10); its consumer starts later at
/// (4,4), whose cell is covered by a long-lived blocker's functional
/// region — the classic walled-off changeover. (The placement is
/// deliberately overlap-infeasible; the simulator only validates the
/// bounding box, and the stall detector must explain the block.)
struct WalledScenario {
  SequencingGraph graph;
  Schedule schedule;
  Placement placement;
};

WalledScenario walled_scenario() {
  WalledScenario w;
  const OperationId a = w.graph.add_operation(OperationType::kMix, "A");
  const OperationId m = w.graph.add_operation(OperationType::kMix, "M");
  w.graph.add_dependency(a, m);

  ModuleSpec blocker;
  blocker.name = "5x5 store";
  blocker.kind = ModuleKind::kStorage;
  blocker.functional_width = 5;
  blocker.functional_height = 5;
  blocker.duration_s = 20.0;

  w.schedule.add(scheduled(a, "MA", mixer_2x2(), 0.0, 4.0));
  w.schedule.add(scheduled(-1, "B", blocker, 0.0, 20.0));
  w.schedule.add(scheduled(m, "MM", mixer_2x2(), 10.0, 14.0));

  w.placement = Placement(w.schedule, 12, 12);
  w.placement.set_position(0, Point{8, 8}, false);  // site (10,10)
  w.placement.set_position(1, Point{1, 1}, false);  // functional (2,2)-(6,6)
  w.placement.set_position(2, Point{2, 2}, false);  // site (4,4), covered
  return w;
}

TEST(SimEngineTest, StallDetectorNamesBlockingModule) {
  const auto w = walled_scenario();
  const Chip chip(12, 12);
  EventSimEngine engine;
  const auto run = engine.run(w.graph, w.schedule, w.placement, chip);

  EXPECT_FALSE(run.result.success);
  EXPECT_EQ(run.result.failed_module, 2);
  ASSERT_TRUE(run.stall.stalled);
  EXPECT_EQ(run.stall.time_s, 10.0);
  EXPECT_EQ(run.stall.waiting_module, 2);
  EXPECT_EQ(run.stall.droplet_label, "A");
  EXPECT_EQ(run.stall.target, (Point{4, 4}));
  ASSERT_EQ(run.stall.blocking_modules.size(), 1u);
  EXPECT_EQ(run.stall.blocking_modules[0], 1);
  EXPECT_EQ(run.stall.earliest_unblock_s, 20.0);
  EXPECT_FALSE(run.stall.fault_walled);
  EXPECT_NE(run.stall.chain.find("B [0,20)s"), std::string::npos);
  EXPECT_NE(run.stall.chain.find("retimed"), std::string::npos);

  // The failure itself stays bit-identical to the reference.
  expect_identical(run.result, oracle::run_reference(w.graph, w.schedule,
                                                    w.placement, chip));
}

TEST(SimEngineTest, StallDetectorReportsFaultWall) {
  // Target module at (2,2)-(5,5); a fault ring just outside its footprint
  // severs every route to it — no module to wait for, only defects.
  SequencingGraph graph;
  const OperationId a = graph.add_operation(OperationType::kMix, "A");
  const OperationId m = graph.add_operation(OperationType::kMix, "M");
  graph.add_dependency(a, m);

  Schedule schedule;
  schedule.add(scheduled(a, "MA", mixer_2x2(), 0.0, 4.0));
  schedule.add(scheduled(m, "MM", mixer_2x2(), 10.0, 14.0));

  Placement placement(schedule, 12, 12);
  placement.set_position(0, Point{8, 8}, false);  // site (10,10)
  placement.set_position(1, Point{2, 2}, false);  // footprint (2,2)-(5,5)

  Chip chip(12, 12);
  for (int x = 1; x <= 6; ++x) {
    inject_fault(chip, Point{x, 1});
    inject_fault(chip, Point{x, 6});
  }
  for (int y = 2; y <= 5; ++y) {
    inject_fault(chip, Point{1, y});
    inject_fault(chip, Point{6, y});
  }

  EventSimEngine engine;
  const auto run = engine.run(graph, schedule, placement, chip);
  EXPECT_FALSE(run.result.success);
  ASSERT_TRUE(run.stall.stalled);
  EXPECT_TRUE(run.stall.fault_walled);
  EXPECT_TRUE(run.stall.blocking_modules.empty());
  EXPECT_NE(run.stall.chain.find("faulty electrodes"), std::string::npos);

  expect_identical(run.result,
                   oracle::run_reference(graph, schedule, placement, chip));
}

TEST(SimEngineTest, StallDetectorReportsDispenseStarvation) {
  // Every perimeter cell faulty: a dispense has no entry cell. The module
  // footprint sits inside, fault-free, so the failure is the dispense.
  SequencingGraph graph;
  const OperationId d = graph.add_operation(OperationType::kDispense, "D");
  const OperationId m = graph.add_operation(OperationType::kMix, "M");
  graph.add_dependency(d, m);

  Schedule schedule;
  schedule.add(scheduled(m, "MM", mixer_2x2(), 0.0, 4.0));
  Placement placement(schedule, 8, 8);
  placement.set_position(0, Point{2, 2}, false);  // footprint (2,2)-(5,5)

  Chip chip(8, 8);
  for (int x = 0; x < 8; ++x) {
    inject_fault(chip, Point{x, 0});
    inject_fault(chip, Point{x, 7});
  }
  for (int y = 1; y < 7; ++y) {
    inject_fault(chip, Point{0, y});
    inject_fault(chip, Point{7, y});
  }

  EventSimEngine engine;
  const auto run = engine.run(graph, schedule, placement, chip);
  EXPECT_FALSE(run.result.success);
  EXPECT_NE(run.result.failure_reason.find("no free perimeter cell"),
            std::string::npos);
  ASSERT_TRUE(run.stall.stalled);
  EXPECT_TRUE(run.stall.fault_walled);
  EXPECT_EQ(run.stall.waiting_module, 0);

  expect_identical(run.result,
                   oracle::run_reference(graph, schedule, placement, chip));
}

// ---- telemetry / plumbing ------------------------------------------

TEST(SimEngineTest, TelemetryCountsRoutesAndGridWork) {
  const auto s = pcr_setup();
  const Chip chip(16, 16);
  EventSimEngine engine;
  const auto run = engine.run(s.graph, s.schedule, s.placement, chip);
  ASSERT_TRUE(run.result.success);
  EXPECT_EQ(run.telemetry.routes_planned, run.result.routes_planned);
  EXPECT_EQ(run.telemetry.route_cost.count, run.result.routes_planned);
  // One start and one end event per module.
  EXPECT_EQ(run.telemetry.events_dispatched,
            2LL * s.schedule.module_count());
  // Every route either fast-pathed or searched; the sum must cover all.
  EXPECT_GT(run.telemetry.manhattan_fast_paths + run.telemetry.astar_pushes,
            0);
}

TEST(SimEngineTest, ValidatesLikeTheReference) {
  const auto s = pcr_setup();
  EventSimEngine engine;
  const Chip tiny(4, 4);  // smaller than the placement bounding box
  EXPECT_THROW(engine.run(s.graph, s.schedule, s.placement, tiny),
               std::invalid_argument);
  EXPECT_THROW(reference_run(s, tiny), std::invalid_argument);
  Schedule empty;
  EXPECT_THROW(engine.run(s.graph, empty, s.placement, Chip(16, 16)),
               std::invalid_argument);
  EXPECT_THROW(oracle::run_reference(s.graph, empty, s.placement,
                                     Chip(16, 16)),
               std::invalid_argument);
}

// ---- online injection / checkpointing -------------------------------

TEST(SimEngineTest, RunOnlineEmptyPlanBitIdenticalAndNoCheckpoint) {
  const auto s = pcr_setup();
  const Chip chip(16, 16);
  EventSimEngine engine;
  SimCheckpoint ckpt;
  const auto online = engine.run_online(s.graph, s.schedule, s.placement,
                                        chip, FaultInjectionPlan{}, nullptr,
                                        &ckpt);
  ASSERT_TRUE(online.result.success);
  EXPECT_TRUE(online.faults_fired.empty());
  EXPECT_FALSE(ckpt.valid);  // captured only at a failure
  expect_identical(online.result, reference_run(s, chip));
}

TEST(SimEngineTest, RunOnlineValidatesPlanAndCheckpoint) {
  const auto s = pcr_setup();
  EventSimEngine engine;
  FaultInjectionPlan outside;
  outside.faults.push_back(PlannedFault{Point{99, 99}, 1.0, -1});
  EXPECT_THROW(engine.run_online(s.graph, s.schedule, s.placement,
                                 Chip(16, 16), outside),
               std::invalid_argument);
  SimCheckpoint bogus;
  bogus.valid = true;  // but start_done does not match the schedule
  EXPECT_THROW(engine.run_online(s.graph, s.schedule, s.placement,
                                 Chip(16, 16), FaultInjectionPlan{}, &bogus),
               std::invalid_argument);
}

TEST(SimEngineTest, MidRunFaultRollsBackTheLiveModule) {
  // A three-mix chain with spatially separated modules: the fault lands
  // under the middle module while it runs, so exactly one operation is
  // disturbed and rolled back.
  SequencingGraph graph;
  const OperationId a = graph.add_operation(OperationType::kMix, "A");
  const OperationId b = graph.add_operation(OperationType::kMix, "B");
  const OperationId c = graph.add_operation(OperationType::kMix, "C");
  graph.add_dependency(a, b);
  graph.add_dependency(b, c);

  Schedule schedule;
  schedule.add(scheduled(a, "MA", mixer_2x2(), 0.0, 4.0));
  schedule.add(scheduled(b, "MB", mixer_2x2(), 10.0, 14.0));
  schedule.add(scheduled(c, "MC", mixer_2x2(), 20.0, 24.0));

  Placement placement(schedule, 24, 24);
  placement.set_position(0, Point{1, 1}, false);    // footprint (1,1)-(4,4)
  placement.set_position(1, Point{10, 10}, false);  // (10,10)-(13,13)
  placement.set_position(2, Point{1, 10}, false);   // (1,10)-(4,13)

  const int target = 1;
  const Point cell{12, 12};  // MB's site, under no other module
  const double mid = 12.0;

  FaultInjectionPlan plan;
  plan.faults.push_back(PlannedFault{cell, mid, -1});

  EventSimEngine engine;
  SimCheckpoint ckpt;
  const auto run = engine.run_online(graph, schedule, placement,
                                     Chip(24, 24), plan, nullptr, &ckpt);
  EXPECT_FALSE(run.result.success);
  EXPECT_EQ(run.result.failed_module, target);
  EXPECT_EQ(run.result.fault_cell, cell);
  EXPECT_NE(run.result.failure_reason.find("contains faulty cell"),
            std::string::npos);
  ASSERT_EQ(run.faults_fired.size(), 1u);
  EXPECT_EQ(run.faults_fired[0].time_s, mid);

  ASSERT_TRUE(ckpt.valid);
  EXPECT_EQ(ckpt.time_s, mid);
  EXPECT_EQ(ckpt.failed_module, target);
  // Rolled back: the interrupted module reads as never started and its
  // output droplet is gone; its deferred finish line (stamped end_s) is
  // not in the log.
  EXPECT_EQ(ckpt.start_done[static_cast<std::size_t>(target)], 0);
  EXPECT_EQ(ckpt.op_outputs.count(b), 0u);
  EXPECT_EQ(ckpt.op_outputs.count(a), 1u);  // the completed op survives
  for (const SimEvent& event : ckpt.events) {
    EXPECT_LE(event.time_s, mid);
    EXPECT_EQ(event.what.find("finish 'B'"), std::string::npos);
  }
  // The clean prefix matches the uninterrupted run bit for bit.
  const auto baseline = engine.run(graph, schedule, placement, Chip(24, 24));
  ASSERT_TRUE(baseline.result.success);
  ASSERT_GT(ckpt.events.size(), 0u);
  ASSERT_LE(ckpt.events.size(), baseline.result.events.size());
  for (std::size_t i = 0; i < ckpt.events.size(); ++i) {
    EXPECT_EQ(ckpt.events[i].time_s, baseline.result.events[i].time_s);
    EXPECT_EQ(ckpt.events[i].what, baseline.result.events[i].what);
  }
}

TEST(SimEngineTest, StallReportsFirstOfMultipleFaultWalledTargets) {
  // Two consumers start at the same instant, both walled off by fault
  // rings: the run fails at the first dispatched (lower schedule index)
  // and the report is a fault wall with no module to wait for.
  SequencingGraph graph;
  const OperationId a = graph.add_operation(OperationType::kMix, "A");
  const OperationId b = graph.add_operation(OperationType::kMix, "B");
  const OperationId m = graph.add_operation(OperationType::kMix, "M");
  const OperationId n = graph.add_operation(OperationType::kMix, "N");
  graph.add_dependency(a, m);
  graph.add_dependency(b, n);

  Schedule schedule;
  schedule.add(scheduled(a, "MA", mixer_2x2(), 0.0, 4.0));
  schedule.add(scheduled(b, "MB", mixer_2x2(), 0.0, 4.0));
  schedule.add(scheduled(m, "MM", mixer_2x2(), 10.0, 14.0));
  schedule.add(scheduled(n, "MN", mixer_2x2(), 10.0, 14.0));

  Placement placement(schedule, 24, 24);
  placement.set_position(0, Point{8, 8}, false);
  placement.set_position(1, Point{14, 14}, false);
  placement.set_position(2, Point{2, 2}, false);    // walled target 1
  placement.set_position(3, Point{2, 16}, false);   // walled target 2

  Chip chip(24, 24);
  for (int x = 1; x <= 6; ++x) {
    inject_fault(chip, Point{x, 1});
    inject_fault(chip, Point{x, 6});
    inject_fault(chip, Point{x, 15});
    inject_fault(chip, Point{x, 20});
  }
  for (int y = 2; y <= 5; ++y) {
    inject_fault(chip, Point{1, y});
    inject_fault(chip, Point{6, y});
  }
  for (int y = 16; y <= 19; ++y) {
    inject_fault(chip, Point{1, y});
    inject_fault(chip, Point{6, y});
  }

  EventSimEngine engine;
  SimCheckpoint ckpt;
  const auto run = engine.run_online(graph, schedule, placement, chip,
                                     FaultInjectionPlan{}, nullptr, &ckpt);
  EXPECT_FALSE(run.result.success);
  ASSERT_TRUE(run.stall.stalled);
  EXPECT_TRUE(run.stall.fault_walled);
  EXPECT_TRUE(run.stall.blocking_modules.empty());
  EXPECT_EQ(run.stall.waiting_module, 2);  // first of the walled pair
  EXPECT_EQ(run.stall.time_s, 10.0);
  // A stall snapshots too: recovery can retry the other targets from
  // here instead of replaying the first 10 simulated seconds.
  ASSERT_TRUE(ckpt.valid);
  EXPECT_EQ(ckpt.time_s, 10.0);
  EXPECT_EQ(ckpt.start_done[2], 0);  // the stalled start did not commit

  expect_identical(run.result,
                   oracle::run_reference(graph, schedule, placement, chip));
}

}  // namespace
}  // namespace dmfb
