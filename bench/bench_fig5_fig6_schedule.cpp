// bench_fig5_fig6_schedule — regenerates Fig. 5 (the PCR sequencing graph)
// and Fig. 6 (the schedule highlighting module usage) of the paper.
// The schedule comes from our list scheduler with the paper's resource
// profile (at most two concurrent mixers, storage for waiting droplets).
#include <fstream>
#include <iostream>

#include "bench_common.h"
#include "util/svg.h"
#include "util/table.h"

using namespace dmfb;

int main() {
  bench::banner("Fig. 5 + Fig. 6 — PCR sequencing graph and schedule");

  const auto assay = pcr_mixing_assay();
  std::cout << "Sequencing graph '" << assay.graph.name() << "' (Fig. 5):\n";
  for (const auto& op : assay.graph.operations()) {
    std::cout << "  " << op.label << " [" << to_string(op.type);
    if (!op.reagent.empty()) std::cout << ": " << op.reagent;
    std::cout << "]";
    if (!assay.graph.successors(op.id).empty()) {
      std::cout << " ->";
      for (const auto succ : assay.graph.successors(op.id)) {
        std::cout << ' ' << assay.graph.operation(succ).label;
      }
    }
    std::cout << '\n';
  }
  std::cout << "  operations: " << assay.graph.operation_count()
            << ", longest path: " << assay.graph.longest_path_length()
            << " ops\n\n";

  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  std::cout << "Schedule (Fig. 6), max 2 concurrent mixers:\n"
            << render_gantt(schedule)
            << "\nmakespan: " << schedule.makespan_s() << " s"
            << "\npeak concurrent footprint: "
            << schedule.peak_concurrent_cells() << " cells\n";

  TextTable table("Module usage");
  table.set_header({"Module", "Type", "Cells", "Start", "End"});
  for (const auto& m : schedule.modules()) {
    table.add_row({m.label, m.spec.name,
                   std::to_string(m.spec.footprint_cells()),
                   format_double(m.start_s, 1) + "s",
                   format_double(m.end_s, 1) + "s"});
  }
  table.print(std::cout);

  // SVG rendition of Fig. 6.
  std::vector<SvgGanttBar> bars;
  std::size_t color = 0;
  for (const auto& m : schedule.modules()) {
    bars.push_back(SvgGanttBar{m.label, m.start_s, m.end_s,
                               palette_color(color++)});
  }
  std::ofstream svg("fig6_schedule.svg");
  svg << render_svg_gantt(bars);
  std::cout << "\nwrote fig6_schedule.svg\n";

  const auto violations = schedule.validate_against(assay.graph);
  std::cout << "precedence check: "
            << (violations.empty() ? "OK" : violations.front()) << '\n';
  return violations.empty() ? 0 : 1;
}
