// bench_fig8_enhanced — regenerates §6.2 + Fig. 8 of the paper: the
// two-stage (SA + low-temperature SA) fault-aware placement at beta = 30.
// Paper result: 77 cells (173.25 mm^2), FTI 0.8052 — a 534% FTI gain for
// a 22.2% area increase over the area-only placement.
#include <iostream>

#include "bench_common.h"
#include "core/fti.h"
#include "core/reconfig.h"
#include "sim/recovery.h"
#include "util/table.h"

using namespace dmfb;

int main() {
  bench::banner("Fig. 8 — enhanced (two-stage) fault-aware placement, beta=30");

  const Schedule schedule = bench::case_schedule(pcr_mixing_assay());
  PlacerContext context = bench::paper_context();
  context.two_stage_beta = 30.0;
  // Stage 1 is the "sa" placer at beta = 0: exactly the placement the
  // "two-stage" placer's LTSA refines (pinned by test_two_stage_placer).
  const PlacementOutcome stage1 = make_placer("sa")->place(schedule, context);
  const PlacementOutcome stage2 =
      make_placer("two-stage")->place(schedule, context);

  const FtiResult fti1 = evaluate_fti(stage1.placement);
  const FtiResult fti2 = evaluate_fti(stage2.placement);

  TextTable table("Two-stage placement (alpha=1, beta=30)");
  table.set_header({"Stage", "Cells", "Area (mm^2)", "FTI", "Paper"});
  table.add_row({"1: area-only SA",
                 std::to_string(stage1.cost.area_cells),
                 format_mm2(stage1.cost.area_mm2()),
                 format_double(fti1.fti(), 4),
                 "63 cells / 141.75 mm^2 / FTI 0.1270"});
  table.add_row({"2: LTSA refine",
                 std::to_string(stage2.cost.area_cells),
                 format_mm2(stage2.cost.area_mm2()),
                 format_double(fti2.fti(), 4),
                 "77 cells / 173.25 mm^2 / FTI 0.8052"});
  table.print(std::cout);

  const double fti_gain =
      fti1.fti() > 0.0
          ? 100.0 * (fti2.fti() - fti1.fti()) / fti1.fti()
          : 0.0;
  const double area_increase =
      100.0 * (static_cast<double>(stage2.cost.area_cells) /
                   stage1.cost.area_cells -
               1.0);
  std::cout << "\nFTI increase: " << format_double(fti_gain, 1)
            << "% (paper: 534%)\n"
            << "area increase: " << format_double(area_increase, 1)
            << "% (paper: 22.2%)\n"
            << "stage-1 wall: " << format_double(stage1.wall_seconds, 2)
            << " s, two-stage wall (both stages): "
            << format_double(stage2.wall_seconds, 2)
            << " s (paper: 20 min total on a 1.0 GHz Pentium-III)\n\n"
            << "Enhanced placement by time slice (Fig. 8 analogue):\n"
            << stage2.placement.render();

  // Cross-check the FTI against the real reconfiguration engine.
  const Rect array = stage2.placement.bounding_box();
  const Reconfigurator reconfig;
  const auto campaign =
      exhaustive_fault_campaign(stage2.placement, array, reconfig);
  std::cout << "exhaustive single-fault campaign: "
            << campaign.survivable_cells << "/" << campaign.total_cells
            << " cells survivable ("
            << format_double(campaign.survivable_fraction(), 4) << ")\n"
            << "FTI evaluator agreement: "
            << (campaign.survivable_cells == fti2.covered_cells ? "EXACT"
                                                                 : "MISMATCH")
            << '\n';

  const auto svg_dir =
      bench::write_placement_svgs(stage2.placement, "fig8");
  std::cout << "wrote " << (svg_dir / "fig8_slice*.svg").string() << "\n";

  const bool sane = stage2.placement.feasible() &&
                    fti2.fti() > fti1.fti() &&
                    campaign.survivable_cells == fti2.covered_cells;
  std::cout << "shape check (FTI improved, campaign == FTI): "
            << (sane ? "OK" : "VIOLATED") << '\n';
  return sane ? 0 : 1;
}
