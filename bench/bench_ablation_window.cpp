// bench_ablation_window — ablation A2: the paper's controlling window
// (§4c) discourages long displacements at low temperature. This bench
// runs the same annealing with and without the window and reports area
// and acceptance behaviour.
#include <iostream>

#include "bench_common.h"
#include "util/table.h"

using namespace dmfb;

int main() {
  bench::banner("Ablation A2 — controlling window on/off");

  const Schedule schedule = bench::case_schedule(pcr_mixing_assay());
  const std::uint64_t seeds[] = {1, 2, 3, 4, 5, 6, 7, 8};

  TextTable table("Area-only SA with and without the controlling window");
  table.set_header({"window", "mean cells", "best", "worst",
                    "mean accept %", "mean uphill"});

  for (const bool use_window : {true, false}) {
    double total = 0.0;
    long long best = 1LL << 40;
    long long worst = 0;
    double accept = 0.0;
    double uphill = 0.0;
    for (const std::uint64_t seed : seeds) {
      PlacerContext context = bench::paper_context(seed);
      context.annealing.initial_temperature = 2000.0;
      context.annealing.cooling_rate = 0.85;
      context.annealing.iterations_per_module = 150;
      context.moves.use_controlling_window = use_window;
      const auto outcome = make_placer("sa")->place(schedule, context);
      total += static_cast<double>(outcome.cost.area_cells);
      best = std::min(best, outcome.cost.area_cells);
      worst = std::max(worst, outcome.cost.area_cells);
      accept += 100.0 * static_cast<double>(outcome.stats.accepted) /
                static_cast<double>(outcome.stats.proposals);
      uphill += static_cast<double>(outcome.stats.uphill_accepted);
    }
    const double n = static_cast<double>(std::size(seeds));
    table.add_row({use_window ? "on" : "off", format_double(total / n, 1),
                   std::to_string(best), std::to_string(worst),
                   format_double(accept / n, 1),
                   format_double(uphill / n, 0)});
  }
  table.print(std::cout);
  std::cout << "\nexpectation: the window concentrates low-temperature moves"
               " locally,\nraising late acceptance and (slightly) final"
               " quality.\n";
  return 0;
}
