// bench_ablation_placers — placer shoot-out. The paper argues annealing
// over DRFPGA-style online template placement ([11], Bazargan et al.) and
// a greedy baseline (§6.1); this bench puts every placer registered in the
// PlacerRegistry side by side:
//   * greedy bottom-left (the paper's baseline),
//   * KAMER-style online best-fit over maximal empty rectangles,
//   * simulated annealing (the paper's method),
//   * two-stage fault-aware annealing,
//   * exact branch-and-bound (ground truth, small instances only).
#include <iostream>

#include "bench_common.h"
#include "core/fti.h"
#include "util/table.h"

using namespace dmfb;

namespace {

/// A reduced PCR instance (first stage of the mix tree) small enough for
/// the exact search.
Schedule small_instance(const Schedule& full) {
  Schedule reduced;
  for (const auto& m : full.modules()) {
    if (m.label == "M1" || m.label == "M2" || m.label == "M3" ||
        m.label == "M4" || m.label == "S(M3)") {
      reduced.add(m);
    }
  }
  return reduced;
}

}  // namespace

int main() {
  bench::banner("Ablation A6 — every registered placer, side by side");

  const Schedule full = bench::case_schedule(pcr_mixing_assay());
  const PlacerContext context = bench::paper_context();

  // Full PCR: heuristics only (10 modules is beyond exact search).
  {
    TextTable table("Full PCR mixing stage (10 modules incl. storage)");
    table.set_header({"placer", "cells", "area (mm^2)", "FTI"});
    for (const auto& name : registered_placers()) {
      if (name == "optimal") continue;  // instance too large for exact search
      try {
        const PlacementOutcome outcome =
            make_placer(name)->place(full, context);
        table.add_row({name, std::to_string(outcome.cost.area_cells),
                       format_mm2(outcome.cost.area_mm2()),
                       format_double(evaluate_fti(outcome.placement).fti(),
                                     4)});
        bench::emit_json_line("ablation_placers_full", name,
                              static_cast<double>(outcome.cost.area_cells),
                              outcome.wall_seconds);
      } catch (const std::exception& e) {
        // An infeasible backend costs its row, not the whole shoot-out.
        table.add_row({name, "failed", e.what(), "-"});
      }
    }
    table.print(std::cout);
  }

  // Reduced instance: the exact optimum is computable, giving each
  // heuristic's optimality gap.
  {
    const Schedule schedule = small_instance(full);
    TextTable table(
        "\nReduced instance (M1..M4 + storage, exact optimum known)");
    table.set_header({"placer", "cells", "gap vs optimum"});

    const PlacementOutcome optimal =
        make_placer("optimal")->place(schedule, context);
    auto gap = [&](long long cells) {
      return format_double(
                 100.0 * (static_cast<double>(cells) /
                              optimal.cost.area_cells -
                          1.0),
                 1) +
             "%";
    };

    long long sa_cells = 0;
    for (const auto& name : registered_placers()) {
      try {
        const PlacementOutcome outcome =
            name == "optimal" ? optimal
                              : make_placer(name)->place(schedule, context);
        if (name == "sa") sa_cells = outcome.cost.area_cells;
        table.add_row({name, std::to_string(outcome.cost.area_cells),
                       gap(outcome.cost.area_cells)});
        bench::emit_json_line("ablation_placers_reduced", name,
                              static_cast<double>(outcome.cost.area_cells),
                              outcome.wall_seconds);
      } catch (const std::exception& e) {
        table.add_row({name, "failed", e.what()});
      }
    }
    table.print(std::cout);

    const bool sane = sa_cells >= optimal.cost.area_cells;
    std::cout << "shape check (SA >= optimum): " << (sane ? "OK" : "VIOLATED")
              << '\n';
    if (!sane) return 1;
  }
  return 0;
}
