// Tests for the actuation-program compiler (sim/actuation.h).
#include "sim/actuation.h"

#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/scheduler.h"
#include "core/greedy_placer.h"
#include "sim/router_backend.h"

namespace dmfb {
namespace {

struct Compiled {
  Schedule schedule;
  Placement placement;
  RoutePlan routes;
  ActuationProgram program;
};

Compiled compile_pcr() {
  const auto assay = pcr_mixing_assay();
  Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  Placement placement = place_greedy(schedule, 16, 16);
  RoutePlan routes = make_router("prioritized")
                         ->plan(assay.graph, schedule, placement, 16, 16);
  ActuationProgram program =
      compile_actuation(schedule, placement, routes, 16, 16);
  return Compiled{std::move(schedule), std::move(placement),
                  std::move(routes), std::move(program)};
}

TEST(ActuationTest, ProgramValidates) {
  const Compiled c = compile_pcr();
  ASSERT_TRUE(c.routes.success);
  const auto violations = validate_program(c.program);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
  EXPECT_FALSE(c.program.frames.empty());
}

TEST(ActuationTest, FramesChronological) {
  const Compiled c = compile_pcr();
  double last = -1.0;
  for (const auto& frame : c.program.frames) {
    EXPECT_GE(frame.time_s, last);
    last = frame.time_s;
  }
  EXPECT_NEAR(c.program.duration_s(), c.schedule.makespan_s(), 5.0);
}

TEST(ActuationTest, HoldFramesCoverModuleFunctionalCells) {
  const Compiled c = compile_pcr();
  // For every module, some hold frame during its interval actuates its
  // functional-region cells.
  for (int i = 0; i < c.placement.module_count(); ++i) {
    const auto& m = c.placement.module(i);
    const Rect functional = m.footprint().inflated(-1);
    const Point probe{functional.x, functional.y};
    bool covered = false;
    for (const auto& frame : c.program.frames) {
      if (frame.note.rfind("hold", 0) != 0) continue;
      if (frame.time_s < m.start_s - 1e-9 || frame.time_s >= m.end_s) {
        continue;
      }
      for (const Point& p : frame.actuated) {
        if (p == probe) {
          covered = true;
          break;
        }
      }
      if (covered) break;
    }
    EXPECT_TRUE(covered) << m.label;
  }
}

TEST(ActuationTest, TransportFramesFollowRoutes) {
  const Compiled c = compile_pcr();
  // Each transport frame at step s of a changeover actuates exactly the
  // cells the plan's droplets occupy at step s.
  for (const auto& changeover : c.routes.changeovers) {
    int frames_for_changeover = 0;
    for (const auto& frame : c.program.frames) {
      if (frame.note.rfind("transport", 0) != 0) continue;
      if (frame.note.find("@" + std::to_string(changeover.time_s)) ==
          std::string::npos) {
        continue;
      }
      ++frames_for_changeover;
      EXPECT_LE(static_cast<int>(frame.actuated.size()),
                static_cast<int>(changeover.routes.size()));
      EXPECT_GE(static_cast<int>(frame.actuated.size()), 1);
    }
    EXPECT_EQ(frames_for_changeover, changeover.makespan_steps + 1);
  }
}

TEST(ActuationTest, StatsAreConsistent) {
  const Compiled c = compile_pcr();
  EXPECT_GT(c.program.total_actuations(), 0);
  EXPECT_GT(c.program.peak_simultaneous(), 0);
  long long sum = 0;
  int peak = 0;
  for (const auto& frame : c.program.frames) {
    sum += static_cast<long long>(frame.actuated.size());
    peak = std::max(peak, static_cast<int>(frame.actuated.size()));
  }
  EXPECT_EQ(sum, c.program.total_actuations());
  EXPECT_EQ(peak, c.program.peak_simultaneous());
}

TEST(ActuationTest, ValidatorCatchesOutOfBounds) {
  ActuationProgram program;
  program.chip_width = 4;
  program.chip_height = 4;
  program.frames.push_back(ActuationFrame{0.0, {Point{5, 5}}, "bad"});
  EXPECT_FALSE(validate_program(program).empty());
}

TEST(ActuationTest, ValidatorCatchesDuplicates) {
  ActuationProgram program;
  program.chip_width = 4;
  program.chip_height = 4;
  program.frames.push_back(
      ActuationFrame{0.0, {Point{1, 1}, Point{1, 1}}, "dup"});
  EXPECT_FALSE(validate_program(program).empty());
}

TEST(ActuationTest, ValidatorCatchesDisorder) {
  ActuationProgram program;
  program.chip_width = 4;
  program.chip_height = 4;
  program.frames.push_back(ActuationFrame{5.0, {Point{1, 1}}, "late"});
  program.frames.push_back(ActuationFrame{1.0, {Point{2, 2}}, "early"});
  EXPECT_FALSE(validate_program(program).empty());
}

}  // namespace
}  // namespace dmfb
