// bench_routing_actuation — extension experiment: droplet routing and the
// compiled electrode actuation program for the PCR placements. The paper
// stops at placement; this bench quantifies the rest of the control path
// (§2: configurations "dynamically programmed into a microcontroller"):
// concurrent changeover routing under fluidic constraints, and the frame
// program statistics. Fully registry-driven: placements come from the
// PlacerRegistry, the routing plan from the RouterRegistry.
#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "assay/assay_library.h"
#include "sim/actuation.h"
#include "sim/router_backend.h"
#include "util/table.h"

using namespace dmfb;

int main() {
  bench::banner("Extension — changeover routing + actuation program");

  const auto assay = pcr_mixing_assay();
  const Schedule schedule = bench::case_schedule(assay);
  const PlacerContext context = bench::paper_context();

  struct Candidate {
    const char* name;
    const char* placer;  ///< registry name, for the JSON result line
    Placement placement;
    int chip;
  };
  std::vector<Candidate> candidates;
  {
    PlacerContext two_stage = context;
    two_stage.two_stage_beta = 30.0;
    candidates.push_back(Candidate{
        "area-only SA", "sa",
        make_placer("sa")->place(schedule, context).placement, 24});
    candidates.push_back(Candidate{
        "two-stage (beta=30)", "two-stage",
        make_placer("two-stage")->place(schedule, two_stage).placement, 24});
  }

  const auto router = make_router("prioritized");
  bool any_failed = false;
  TextTable table("Routing + actuation for PCR (" +
                  format_double(kActuationStepsPerSecond, 0) +
                  " cells/s transport)");
  table.set_header({"placement", "changeovers", "droplet routes",
                    "total steps", "cells moved", "transport (s)", "frames",
                    "actuations", "peak cells on"});

  for (const auto& candidate : candidates) {
    const auto route_start = std::chrono::steady_clock::now();
    const RoutePlan plan =
        router->plan(assay.graph, schedule, candidate.placement,
                     candidate.chip, candidate.chip);
    const double route_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      route_start)
            .count();
    if (!plan.success) {
      std::cout << candidate.name
                << ": routing FAILED: " << plan.failure_reason << '\n';
      // A failure still leaves a trajectory row (and fails the bench), so
      // a routing regression cannot pass as silently-missing data.
      bench::emit_router_json_line(
          std::string("routing_actuation/") + candidate.placer,
          router->name(), 0.0, 0, route_seconds);
      any_failed = true;
      continue;
    }
    int routes = 0;
    long long makespan_steps = 0;
    for (const auto& c : plan.changeovers) {
      routes += static_cast<int>(c.routes.size());
      makespan_steps += c.makespan_steps;
    }
    const ActuationProgram program =
        compile_actuation(schedule, candidate.placement, plan,
                          candidate.chip, candidate.chip);
    const auto violations = validate_program(program);
    table.add_row({candidate.name,
                   std::to_string(plan.changeovers.size()),
                   std::to_string(routes),
                   std::to_string(plan.total_steps),
                   std::to_string(plan.total_moved_cells),
                   format_double(plan.total_transport_seconds(), 2),
                   std::to_string(program.frames.size()),
                   std::to_string(program.total_actuations()),
                   std::to_string(program.peak_simultaneous())});
    bench::emit_router_json_line(
        std::string("routing_actuation/") + candidate.placer, router->name(),
        1.0, makespan_steps, route_seconds);
    if (!violations.empty()) {
      std::cout << candidate.name << ": program INVALID: "
                << violations.front() << '\n';
      return 1;
    }
  }
  table.print(std::cout);
  std::cout << "\nnote: transport time is <3% of the 24 s assay makespan,\n"
               "which is why the paper's schedule ignores routing latency.\n";
  return any_failed ? 1 : 0;
}
