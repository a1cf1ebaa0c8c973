// Tests for the droplet-level simulator (sim/sim_engine.h): assays execute
// correctly on fault-free chips, produce the right mixtures, and stall on
// faults inside module footprints.
#include "sim/sim_engine.h"

#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/scheduler.h"
#include "core/greedy_placer.h"
#include "sim/fault.h"

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

TEST(SimulatorTest, PcrCompletesOnHealthyChip) {
  const auto setup = pcr_setup();
  const Chip chip(16, 16);
  EventSimEngine engine;
  const auto result =
      engine.run(setup.graph, setup.schedule, setup.placement, chip).result;
  EXPECT_TRUE(result.success) << result.failure_reason;
  EXPECT_DOUBLE_EQ(result.makespan_s, setup.schedule.makespan_s());
  EXPECT_GT(result.routes_planned, 0);
  EXPECT_GT(result.route_cells, 0);
}

TEST(SimulatorTest, PcrFinalDropletMixesAllEightReagents) {
  const auto setup = pcr_setup();
  const Chip chip(16, 16);
  EventSimEngine engine;
  const auto result =
      engine.run(setup.graph, setup.schedule, setup.placement, chip).result;
  ASSERT_TRUE(result.success) << result.failure_reason;

  // Find the root mix M7 and check its output droplet: all 8 reagents at
  // 1/8 each (equal-volume binary mixing tree).
  OperationId m7 = -1;
  for (const auto& op : setup.graph.operations()) {
    if (op.label == "M7") m7 = op.id;
  }
  ASSERT_GE(m7, 0);
  const auto it = result.op_outputs.find(m7);
  ASSERT_NE(it, result.op_outputs.end());
  const Droplet& final_droplet = it->second;
  EXPECT_EQ(final_droplet.contents().size(), 8u);
  for (const auto& [reagent, fraction] : final_droplet.contents()) {
    EXPECT_NEAR(fraction, 0.125, 1e-9) << reagent;
  }
  EXPECT_NEAR(final_droplet.volume_nl(), 800.0, 1e-9);
}

TEST(SimulatorTest, FaultInsideModuleStallsAssay) {
  const auto setup = pcr_setup();
  Chip chip(16, 16);
  // Fault dead center of the first module's footprint.
  const Rect fp = setup.placement.module(0).footprint();
  const Point fault{fp.x + fp.width / 2, fp.y + fp.height / 2};
  inject_fault(chip, fault);

  EventSimEngine engine;
  const auto result =
      engine.run(setup.graph, setup.schedule, setup.placement, chip).result;
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.fault_cell, fault);
  EXPECT_GE(result.failed_module, 0);
  EXPECT_NE(result.failure_reason.find("faulty cell"), std::string::npos);
}

TEST(SimulatorTest, FaultOnUnusedCellIsHarmlessWithSpareRoom) {
  const auto setup = pcr_setup(20);
  Chip chip(20, 20);
  inject_fault(chip, Point{19, 19});  // far corner, outside every footprint
  EventSimEngine engine;
  const auto result =
      engine.run(setup.graph, setup.schedule, setup.placement, chip).result;
  EXPECT_TRUE(result.success) << result.failure_reason;
}

TEST(SimulatorTest, EventsAreChronological) {
  const auto setup = pcr_setup();
  const Chip chip(16, 16);
  EventSimEngine engine;
  const auto result =
      engine.run(setup.graph, setup.schedule, setup.placement, chip).result;
  ASSERT_TRUE(result.success);
  EXPECT_FALSE(result.events.empty());
}

TEST(SimulatorTest, RoutingCanBeDisabled) {
  const auto setup = pcr_setup();
  const Chip chip(16, 16);
  SimOptions options;
  options.verify_routing = false;
  EventSimEngine engine(options);
  const auto result =
      engine.run(setup.graph, setup.schedule, setup.placement, chip).result;
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.routes_planned, 0);
}

TEST(SimulatorTest, ChipSmallerThanPlacementThrows) {
  const auto setup = pcr_setup();
  const Chip chip(4, 4);
  EventSimEngine engine;
  EXPECT_THROW(
      engine.run(setup.graph, setup.schedule, setup.placement, chip),
      std::invalid_argument);
}

TEST(SimulatorTest, MismatchedScheduleAndPlacementThrow) {
  const auto setup = pcr_setup();
  Schedule truncated;
  truncated.add(setup.schedule.module(0));
  const Chip chip(16, 16);
  EventSimEngine engine;
  EXPECT_THROW(
      engine.run(setup.graph, truncated, setup.placement, chip),
      std::invalid_argument);
}

TEST(SimulatorTest, DilutionAssayProducesSerialConcentrations) {
  const auto lib = ModuleLibrary::standard();
  const auto assay = protein_dilution_assay(2, lib);
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const Placement placement = place_greedy(schedule, 20, 20);
  const Chip chip(20, 20);
  EventSimEngine engine;
  const auto result =
      engine.run(assay.graph, schedule, placement, chip).result;
  ASSERT_TRUE(result.success) << result.failure_reason;
  // Root dilution: protein at 1/2. Second level: 1/4.
  for (const auto& op : assay.graph.operations()) {
    if (op.type != OperationType::kDilute) continue;
    const auto it = result.op_outputs.find(op.id);
    ASSERT_NE(it, result.op_outputs.end()) << op.label;
    const double fraction = it->second.fraction_of("protein");
    EXPECT_TRUE(std::abs(fraction - 0.5) < 1e-9 ||
                std::abs(fraction - 0.25) < 1e-9)
        << op.label << " fraction " << fraction;
  }
}

TEST(SimulatorTest, TransportStatsAccumulate) {
  const auto setup = pcr_setup();
  const Chip chip(16, 16);
  EventSimEngine engine;
  const auto result =
      engine.run(setup.graph, setup.schedule, setup.placement, chip).result;
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.transport_seconds, 0.0);
  // At 13 cells/s, transport seconds = cells / 13.
  EXPECT_NEAR(result.transport_seconds,
              static_cast<double>(result.route_cells) / 13.0, 1e-9);
}

}  // namespace
}  // namespace dmfb
