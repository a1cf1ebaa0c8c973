// bench_ablation_two_stage — ablation A5: is the paper's two-stage
// decomposition (area-only SA, then low-temperature fault-aware
// refinement) actually better than annealing the weighted objective
// alpha*area - beta*FTI in a single full-temperature run? Single-stage
// pays the FTI evaluation on every proposal at every temperature and may
// still converge worse.
#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "core/fti.h"
#include "util/table.h"

using namespace dmfb;

int main() {
  bench::banner("Ablation A5 — two-stage (SA + LTSA) vs single-stage weighted SA");

  const Schedule schedule = bench::case_schedule(pcr_mixing_assay());
  const double beta = 30.0;
  const std::uint64_t seeds[] = {1, 2, 3};

  TextTable table("Weighted objective (area_cells - 30*FTI), PCR");
  table.set_header({"method", "seed", "cells", "FTI", "weighted",
                    "wall (s)"});

  double two_stage_total = 0.0;
  double single_total = 0.0;
  double two_stage_wall = 0.0;
  double single_wall = 0.0;

  for (const std::uint64_t seed : seeds) {
    {
      PlacerContext context = bench::paper_context(seed);
      context.two_stage_beta = beta;
      // Match the reduced effort of the single-stage run below.
      context.annealing.iterations_per_module = 150;
      context.ltsa.iterations_per_module = 150;
      const auto outcome = make_placer("two-stage")->place(schedule, context);
      const double fti = evaluate_fti(outcome.placement).fti();
      const double weighted =
          static_cast<double>(outcome.cost.area_cells) - beta * fti;
      const double wall = outcome.wall_seconds;  // both stages
      two_stage_total += weighted;
      two_stage_wall += wall;
      table.add_row({"two-stage", std::to_string(seed),
                     std::to_string(outcome.cost.area_cells),
                     format_double(fti, 4), format_double(weighted, 2),
                     format_double(wall, 2)});
    }
    {
      PlacerContext context = bench::paper_context(seed);
      context.annealing.iterations_per_module = 150;
      context.weights.beta = beta;  // FTI inside the hot loop
      const auto outcome = make_placer("sa")->place(schedule, context);
      const double fti = evaluate_fti(outcome.placement).fti();
      const double weighted =
          static_cast<double>(outcome.cost.area_cells) - beta * fti;
      single_total += weighted;
      single_wall += outcome.wall_seconds;
      table.add_row({"single-stage", std::to_string(seed),
                     std::to_string(outcome.cost.area_cells),
                     format_double(fti, 4), format_double(weighted, 2),
                     format_double(outcome.wall_seconds, 2)});
    }
  }
  table.print(std::cout);

  const double n = static_cast<double>(std::size(seeds));
  std::cout << "\nmean weighted objective: two-stage "
            << format_double(two_stage_total / n, 2) << " vs single-stage "
            << format_double(single_total / n, 2)
            << "\nmean wall time: two-stage "
            << format_double(two_stage_wall / n, 2) << " s vs single-stage "
            << format_double(single_wall / n, 2) << " s\n"
            << "(lower weighted objective is better)\n";
  return 0;
}
