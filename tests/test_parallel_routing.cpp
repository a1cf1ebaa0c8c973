// Determinism of parallel per-changeover routing: changeovers are
// independent once routing::extract_problems resolves inter-changeover
// droplet positions, and stochastic backends derive per-changeover seeds
// from the run seed by changeover index — so a plan must be identical
// whether the changeovers were solved by 1 worker or 4. Runs against
// every registered backend, directly and through the pipeline
// (PipelineOptions::routing.threads).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "assay/assay_library.h"
#include "assay/pipeline.h"
#include "assay/random_assay.h"
#include "sim/router_backend.h"

namespace dmfb {
namespace {

/// Canonical text form of a plan; byte-equal strings = identical plans.
std::string serialize(const RoutePlan& plan) {
  std::ostringstream os;
  os << "success=" << plan.success << " steps=" << plan.total_steps
     << " cells=" << plan.total_moved_cells
     << " failure=" << plan.failure_reason << '\n';
  for (const auto& changeover : plan.changeovers) {
    os << "t=" << changeover.time_s
       << " makespan=" << changeover.makespan_steps << '\n';
    for (const auto& route : changeover.routes) {
      os << "  " << route.request.label << " (" << route.request.from.x << ','
         << route.request.from.y << ")->(" << route.request.to.x << ','
         << route.request.to.y << "):";
      for (const Point& p : route.positions) {
        os << ' ' << p.x << ',' << p.y;
      }
      os << '\n';
    }
  }
  return os.str();
}

/// The paper's PCR case placed via the pipeline on a size x size chip —
/// several changeovers with several concurrent transfers each.
PipelineResult placed_pcr(int size = 16) {
  PipelineOptions options;
  options.placer = "greedy";
  options.placer_context.canvas_width = size;
  options.placer_context.canvas_height = size;
  options.plan_droplet_routes = false;
  return SynthesisPipeline(options).run(pcr_mixing_assay());
}

TEST(ParallelRoutingTest, ThreadCountDoesNotChangeThePlan) {
  const AssayCase assay = pcr_mixing_assay();
  const PipelineResult placed = placed_pcr();
  ASSERT_GT(placed.schedule.module_count(), 0);

  for (const std::string& name : registered_routers()) {
    const auto router = make_router(name);
    RoutePlannerOptions options;
    options.seed = 0xC0FFEE;

    options.threads = 1;
    const RoutePlan sequential =
        router->plan(assay.graph, placed.schedule,
                     placed.placement.placement, 16, 16, options);
    options.threads = 4;
    const RoutePlan parallel =
        router->plan(assay.graph, placed.schedule,
                     placed.placement.placement, 16, 16, options);

    ASSERT_TRUE(sequential.success) << name << ": "
                                    << sequential.failure_reason;
    ASSERT_GT(sequential.changeovers.size(), 1u) << name;
    EXPECT_EQ(serialize(sequential), serialize(parallel)) << name;
  }
}

TEST(ParallelRoutingTest, BackToBackChipSizesMatchOneThread) {
  // Workers own their search buffers for a whole plan; planning a larger
  // chip and then a smaller one (and the larger again) with four workers
  // must give each plan the single-threaded result.
  const AssayCase assay = pcr_mixing_assay();
  const PipelineResult large = placed_pcr(24);
  const PipelineResult small = placed_pcr(16);
  for (const std::string& name : registered_routers()) {
    const auto router = make_router(name);
    RoutePlannerOptions options;
    options.seed = 0xC0FFEE;
    const auto plan = [&](const PipelineResult& placed, int size,
                          int threads) {
      options.threads = threads;
      return serialize(router->plan(assay.graph, placed.schedule,
                                    placed.placement.placement, size, size,
                                    options));
    };
    const std::string large_one = plan(large, 24, 1);
    const std::string small_one = plan(small, 16, 1);
    EXPECT_EQ(plan(large, 24, 4), large_one) << name;
    EXPECT_EQ(plan(small, 16, 4), small_one) << name;
    EXPECT_EQ(plan(large, 24, 4), large_one) << name;
  }
}

TEST(ParallelRoutingTest, CongestedPlansMatchOneThread) {
  // Random assays on a 20x20 chip make "negotiated" rip up and reroute in
  // several changeovers of one plan. A worker reuses its scratch, and with
  // it the history grid, across the changeovers it solves; the plan must
  // still not depend on which worker solved which changeover.
  const ModuleLibrary library = ModuleLibrary::standard();
  int negotiating_plans = 0;
  for (int i = 0; i < 20; ++i) {
    RandomAssayParams params;
    params.mix_operations = 6 + i % 10;
    const AssayCase assay = random_assay(
        params, library, static_cast<std::uint64_t>(7000 + i));
    PipelineOptions options;
    options.placer = "greedy";
    options.placer_context.canvas_width = 20;
    options.placer_context.canvas_height = 20;
    options.plan_droplet_routes = false;
    const PipelineResult placed = SynthesisPipeline(options).run(assay);
    for (const std::string& name : registered_routers()) {
      const auto router = make_router(name);
      RoutePlannerOptions routing;
      routing.threads = 1;
      const RoutePlan sequential = router->plan(
          assay.graph, placed.schedule, placed.placement.placement, 20, 20,
          routing);
      routing.threads = 4;
      const RoutePlan parallel = router->plan(
          assay.graph, placed.schedule, placed.placement.placement, 20, 20,
          routing);
      EXPECT_EQ(serialize(sequential), serialize(parallel))
          << name << " assay " << i;
      int negotiating = 0;
      for (const auto& changeover : sequential.changeovers) {
        if (changeover.negotiation_rounds > 0) ++negotiating;
      }
      if (negotiating > 1) ++negotiating_plans;
    }
  }
  EXPECT_GT(negotiating_plans, 0);
}

TEST(ParallelRoutingTest, PipelineThreadsProduceIdenticalRuns) {
  for (const std::string& name : registered_routers()) {
    PipelineOptions options;
    options.placer = "greedy";
    options.placer_context.canvas_width = 16;
    options.placer_context.canvas_height = 16;
    options.router = name;
    options.seed = 42;

    options.routing.threads = 1;
    const PipelineResult sequential =
        SynthesisPipeline(options).run(pcr_mixing_assay());
    options.routing.threads = 4;
    const PipelineResult parallel =
        SynthesisPipeline(options).run(pcr_mixing_assay());

    EXPECT_EQ(serialize(sequential.routes), serialize(parallel.routes))
        << name;
  }
}

TEST(ParallelRoutingTest, HardwareConcurrencyIsAValidThreadCount) {
  const AssayCase assay = pcr_mixing_assay();
  const PipelineResult placed = placed_pcr();
  const auto router = make_router("prioritized");
  RoutePlannerOptions options;
  options.threads = 0;  // hardware concurrency
  const RoutePlan plan =
      router->plan(assay.graph, placed.schedule, placed.placement.placement,
                   16, 16, options);
  options.threads = 1;
  const RoutePlan reference =
      router->plan(assay.graph, placed.schedule, placed.placement.placement,
                   16, 16, options);
  EXPECT_EQ(serialize(plan), serialize(reference));
}

}  // namespace
}  // namespace dmfb
