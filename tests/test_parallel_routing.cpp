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

/// The paper's PCR case placed via the pipeline — several changeovers
/// with several concurrent transfers each.
PipelineResult placed_pcr() {
  PipelineOptions options;
  options.placer = "greedy";
  options.placer_context.canvas_width = 16;
  options.placer_context.canvas_height = 16;
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
