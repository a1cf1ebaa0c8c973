// bench_ablation_moves — ablation A1: the paper sets the single-move /
// pair-interchange ratio p/(1-p) "experimentally" but does not publish
// the value. This bench sweeps p and reports the resulting area (mean
// over seeds), justifying our default p = 0.8.
#include <iostream>

#include "bench_common.h"
#include "util/table.h"

using namespace dmfb;

int main() {
  bench::banner("Ablation A1 — single-move probability p (generation mix)");

  const Schedule schedule = bench::case_schedule(pcr_mixing_assay());
  const std::uint64_t seeds[] = {1, 2, 3, 4, 5};

  TextTable table("Area vs p (area-only SA, reduced schedule, 5 seeds)");
  table.set_header({"p", "mean cells", "best cells", "worst cells",
                    "mean accept %"});

  double best_mean = 1e9;
  double best_p = -1.0;
  for (const double p : {0.0, 0.2, 0.5, 0.8, 1.0}) {
    double total = 0.0;
    long long best = 1LL << 40;
    long long worst = 0;
    double accept = 0.0;
    for (const std::uint64_t seed : seeds) {
      PlacerContext context = bench::paper_context(seed);
      context.annealing.initial_temperature = 2000.0;
      context.annealing.cooling_rate = 0.85;
      context.annealing.iterations_per_module = 150;
      context.moves.single_move_probability = p;
      const auto outcome = make_placer("sa")->place(schedule, context);
      total += static_cast<double>(outcome.cost.area_cells);
      best = std::min(best, outcome.cost.area_cells);
      worst = std::max(worst, outcome.cost.area_cells);
      accept += 100.0 * static_cast<double>(outcome.stats.accepted) /
                static_cast<double>(outcome.stats.proposals);
    }
    const double mean = total / std::size(seeds);
    table.add_row({format_double(p, 1), format_double(mean, 1),
                   std::to_string(best), std::to_string(worst),
                   format_double(accept / std::size(seeds), 1)});
    if (mean < best_mean) {
      best_mean = mean;
      best_p = p;
    }
  }
  table.print(std::cout);
  std::cout << "\nbest mean area at p = " << format_double(best_p, 1)
            << " (library default: 0.8)\n";
  return 0;
}
