// bench_fig7_placement — regenerates §6.1 + Fig. 7 of the paper:
//   * the greedy baseline placement (paper: 84 cells = 189 mm^2),
//   * the area-only simulated-annealing placement (paper: 63 cells =
//     141.75 mm^2, 25% less than the baseline, FTI 0.1270).
// Paper-parameter annealing (T0 = 10^4, alpha = 0.9, Na = 400), with both
// placers resolved by name from the PlacerRegistry.
#include <iostream>

#include "bench_common.h"
#include "core/fti.h"
#include "util/table.h"

using namespace dmfb;

int main() {
  bench::banner("Fig. 7 — area-only SA placement vs greedy baseline");

  const Schedule schedule = bench::case_schedule(pcr_mixing_assay());
  const PlacerContext context = bench::paper_context();

  // Baseline (§6.1): modules sorted by decreasing area, bottom-left.
  const PlacementOutcome greedy =
      make_placer("greedy")->place(schedule, context);
  const double greedy_fti = evaluate_fti(greedy.placement).fti();

  // Area-only simulated annealing (Fig. 7).
  const PlacementOutcome sa = make_placer("sa")->place(schedule, context);
  const FtiResult sa_fti = evaluate_fti(sa.placement);

  TextTable table("PCR placement: baseline vs simulated annealing");
  table.set_header({"Method", "Cells", "Area (mm^2)", "FTI", "Paper"});
  table.add_row({"greedy baseline", std::to_string(greedy.cost.area_cells),
                 format_mm2(greedy.cost.area_mm2()),
                 format_double(greedy_fti, 4), "84 cells / 189.00 mm^2"});
  table.add_row({"SA (area-only)", std::to_string(sa.cost.area_cells),
                 format_mm2(sa.cost.area_mm2()),
                 format_double(sa_fti.fti(), 4),
                 "63 cells / 141.75 mm^2 / FTI 0.1270"});
  table.print(std::cout);

  const double reduction =
      100.0 * (1.0 - static_cast<double>(sa.cost.area_cells) /
                         greedy.cost.area_cells);
  std::cout << "\narea reduction vs baseline: " << format_double(reduction, 1)
            << "% (paper: 25%)\n"
            << "bounding box: " << sa.placement.bounding_box().width << "x"
            << sa.placement.bounding_box().height << " cells (paper: 7x9)\n"
            << "C-covered cells: " << sa_fti.covered_cells << "/"
            << sa_fti.total_cells << " (paper: 8/63)\n"
            << "SA wall time: " << format_double(sa.wall_seconds, 2)
            << " s (paper: 5 min on a 1.0 GHz Pentium-III)\n"
            << "SA proposals: " << sa.stats.proposals
            << ", accepted: " << sa.stats.accepted << "\n\n"
            << "Placement by time slice (Fig. 7 analogue):\n"
            << sa.placement.render();

  bench::emit_json_line("fig7", "greedy",
                        static_cast<double>(greedy.cost.area_cells),
                        greedy.wall_seconds);
  bench::emit_json_line("fig7", "sa",
                        static_cast<double>(sa.cost.area_cells),
                        sa.wall_seconds);

  const auto svg_dir = bench::write_placement_svgs(sa.placement, "fig7");
  std::cout << "wrote " << (svg_dir / "fig7_slice*.svg").string() << "\n";

  // Shape checks mirrored in EXPERIMENTS.md.
  const bool sane = sa.placement.feasible() &&
                    sa.cost.area_cells <= greedy.cost.area_cells &&
                    sa_fti.fti() < 0.5;
  std::cout << "shape check (SA <= greedy, SA FTI poor): "
            << (sane ? "OK" : "VIOLATED") << '\n';
  return sane ? 0 : 1;
}
