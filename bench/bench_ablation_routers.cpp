// bench_ablation_routers — router shoot-out. The paper's flow stops at
// placement and treats routing as a given; this bench puts every routing
// backend registered in the RouterRegistry side by side on a scenario set
// that mixes the paper's PCR case (the fig. 8 placements) with random
// assays on increasingly tight chips:
//   * prioritized — classic decoupled planning (fast, incomplete),
//   * negotiated  — Pathfinder-style negotiated congestion,
//   * restart     — seeded random-restart over transfer orderings.
// Per backend it reports the route success rate, the summed changeover
// makespan over commonly-solved scenarios (droplet transport time), and
// wall time — one JSON line each for the perf trajectory.
#include <chrono>
#include <iostream>
#include <map>

#include "bench_common.h"
#include "assay/random_assay.h"
#include "sim/router_backend.h"
#include "util/table.h"

using namespace dmfb;

namespace {

struct Scenario {
  std::string name;
  SequencingGraph graph;
  Schedule schedule;
  Placement placement;
  int chip = 24;
  int step_horizon = 0;  ///< 0 = auto; small = an actuation deadline
};

/// PCR (fig. 8 flow), seeded random assays, and the same random assays
/// under a tight per-changeover step horizon — the actuation-deadline
/// regime where decoupled planning actually runs out of slack and the
/// backends' completeness differs. `smoke` trims the random/stress
/// trial counts for the CI job.
std::vector<Scenario> make_scenarios(bool smoke) {
  std::vector<Scenario> scenarios;

  const AssayCase pcr = pcr_mixing_assay();
  for (const auto& [placer, chip] :
       std::map<std::string, int>{{"greedy", 16}, {"sa", 16}}) {
    PipelineOptions options;
    options.placer = placer;
    options.placer_context = bench::paper_context();
    options.placer_context.canvas_width = chip;
    options.placer_context.canvas_height = chip;
    options.plan_droplet_routes = false;
    const PipelineResult result = SynthesisPipeline(options).run(pcr);
    scenarios.push_back(Scenario{"pcr/" + placer, pcr.graph, result.schedule,
                                 result.placement.placement, chip});
  }

  const ModuleLibrary library = ModuleLibrary::standard();
  auto compiled = [&](const AssayCase& assay, int chip) {
    PipelineOptions options;
    options.placer = "sa";
    options.placer_context.canvas_width = chip;
    options.placer_context.canvas_height = chip;
    // Short anneal: compact placements quickly, routing is the subject.
    options.placer_context.annealing.initial_temperature = 1000.0;
    options.placer_context.annealing.cooling_rate = 0.8;
    options.placer_context.annealing.iterations_per_module = 60;
    options.plan_droplet_routes = false;
    return SynthesisPipeline(options).run(assay);
  };
  const int random_trials = smoke ? 4 : 10;
  for (int trial = 0; trial < random_trials; ++trial) {
    RandomAssayParams params;
    params.mix_operations = 6 + trial % 4;
    const AssayCase assay = random_assay(
        params, library, bench::kBenchSeed + static_cast<std::uint64_t>(trial));
    const int chip = 16;
    const PipelineResult result = compiled(assay, chip);
    scenarios.push_back(Scenario{"random" + std::to_string(trial),
                                 assay.graph, result.schedule,
                                 result.placement.placement, chip});
    // The same compiled assay under an 8/10-step changeover deadline.
    scenarios.push_back(Scenario{
        "random" + std::to_string(trial) + "/deadline", assay.graph,
        result.schedule, result.placement.placement, chip,
        trial % 2 == 0 ? 8 : 10});
  }

  // Corridor / permutation stress scenarios (assay/random_assay.h): long
  // -lived walls carve the chip into lanes and a whole wave of crossing
  // transfers lands on one changeover — the structure where decoupled
  // prioritized planning actually runs out of slack under a deadline.
  const int permutation_trials = smoke ? 2 : 4;
  for (int trial = 0; trial < permutation_trials; ++trial) {
    const AssayCase assay = permutation_assay(
        4 + trial % 2, 2, library,
        bench::kBenchSeed + 100 + static_cast<std::uint64_t>(trial));
    const int chip = 16;
    const PipelineResult result = compiled(assay, chip);
    scenarios.push_back(Scenario{"perm" + std::to_string(trial) + "/deadline",
                                 assay.graph, result.schedule,
                                 result.placement.placement, chip,
                                 trial % 2 == 0 ? 8 : 10});
  }
  {
    StressAssayParams params;
    const AssayCase assay = corridor_assay(params, library,
                                           bench::kBenchSeed + 200);
    const int chip = 18;
    const PipelineResult result = compiled(assay, chip);
    scenarios.push_back(Scenario{"corridor/deadline", assay.graph,
                                 result.schedule, result.placement.placement,
                                 chip, 10});
  }
  return scenarios;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::banner(smoke
                    ? "Ablation — every registered router, side by side (smoke)"
                    : "Ablation — every registered router, side by side");

  using Clock = std::chrono::steady_clock;
  const auto scenarios = make_scenarios(smoke);
  std::cout << scenarios.size() << " scenarios (PCR fig. 8 placements + "
            << "random assays on 16-cell chips, with and without "
            << "changeover deadlines)\n";

  struct Result {
    int solved = 0;
    double wall_seconds = 0.0;
    /// Per-scenario outcomes, aligned with `scenarios`; makespan is the
    /// sum of the plan's changeover makespans (0 when unsolved).
    std::vector<bool> solved_mask;
    std::vector<long long> makespans;
    std::vector<long long> steps;
    /// Per-scenario negotiation rounds ("negotiated" only), summed over
    /// the commonly-solved set like the quality columns.
    std::vector<long long> rounds;
  };
  std::map<std::string, Result> results;

  for (const auto& name : registered_routers()) {
    const auto router = make_router(name);
    Result& r = results[name];
    for (const auto& scenario : scenarios) {
      RoutePlannerOptions options;
      options.seed = bench::kBenchSeed;
      options.step_horizon = scenario.step_horizon;
      const auto start = Clock::now();
      const RoutePlan plan =
          router->plan(scenario.graph, scenario.schedule, scenario.placement,
                       scenario.chip, scenario.chip, options);
      r.wall_seconds +=
          std::chrono::duration<double>(Clock::now() - start).count();
      r.solved_mask.push_back(plan.success);
      r.solved += plan.success ? 1 : 0;
      r.rounds.push_back(plan.negotiation_rounds);
      long long makespan = 0;
      for (const auto& changeover : plan.changeovers) {
        makespan += changeover.makespan_steps;
      }
      r.makespans.push_back(plan.success ? makespan : 0);
      r.steps.push_back(plan.success ? plan.total_steps : 0);
    }
  }

  // Quality comparisons only make sense over the scenarios *every*
  // registered backend solved; success rate covers the rest.
  std::vector<bool> common(scenarios.size(), true);
  for (const auto& [name, r] : results) {
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      common[s] = common[s] && r.solved_mask[s];
    }
  }

  TextTable table("Routing backends (makespan/steps over commonly-solved)");
  table.set_header({"router", "solved", "success rate", "makespan steps",
                    "droplet steps", "negot. rounds", "wall (s)"});
  for (const auto& [name, r] : results) {
    const double rate =
        static_cast<double>(r.solved) / static_cast<double>(scenarios.size());
    long long makespan_steps = 0;
    long long total_steps = 0;
    long long negotiation_rounds = 0;
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      if (!common[s] || !r.solved_mask[s]) continue;
      makespan_steps += r.makespans[s];
      total_steps += r.steps[s];
      negotiation_rounds += r.rounds[s];
    }
    table.add_row({name,
                   std::to_string(r.solved) + "/" +
                       std::to_string(scenarios.size()),
                   format_double(100.0 * rate, 1) + "%",
                   std::to_string(makespan_steps),
                   std::to_string(total_steps),
                   std::to_string(negotiation_rounds),
                   format_double(r.wall_seconds, 3)});
    bench::emit_router_json_line("ablation_routers", name, rate,
                                 makespan_steps, r.wall_seconds,
                                 bench::kBenchSeed, negotiation_rounds);
  }
  table.print(std::cout);

  // Shape check (the PR's acceptance criterion): negotiated congestion
  // must solve at least everything decoupled prioritized planning does.
  const bool sane =
      results["negotiated"].solved >= results["prioritized"].solved;
  std::cout << "shape check (negotiated >= prioritized): "
            << (sane ? "OK" : "VIOLATED") << '\n';
  return sane ? 0 : 1;
}
