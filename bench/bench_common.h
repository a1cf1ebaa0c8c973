// bench_common.h — shared setup for the reproduction benches.
//
// Every bench binary regenerates one table or figure of Su & Chakrabarty
// (DATE 2005) and prints it in a fixed format quoted by EXPERIMENTS.md.
#pragma once

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "assay/assay_library.h"
#include "assay/pipeline.h"
#include "assay/scheduler.h"
#include "core/placer.h"
#include "util/rng.h"

namespace dmfb::bench {

/// Seed used by all reproduction benches (printed so runs are replayable).
inline constexpr std::uint64_t kBenchSeed = 0xDA7E2005ULL;

/// Shared argv handling for the bench binaries: `--smoke` selects the
/// shrunken CI workload. Every bench that distinguishes the two parses
/// its flags through this one helper instead of a per-binary copy.
inline bool smoke_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  }
  return false;
}

/// One machine-readable result line per bench measurement, so the perf
/// trajectory can be tracked across PRs by grepping stdout:
///   {"bench":"fig7","placer":"sa","cost":63,"wall_seconds":1.9,"seed":...}
inline void emit_json_line(const std::string& name, const std::string& placer,
                           double cost, double wall_seconds,
                           std::uint64_t seed = kBenchSeed) {
  std::cout << "{\"bench\":\"" << name << "\",\"placer\":\"" << placer
            << "\",\"cost\":" << cost << ",\"wall_seconds\":" << wall_seconds
            << ",\"seed\":" << seed << "}\n";
}

/// The annealing-engine counterpart: one line per (engine, beta) cell of
/// bench_perf_sa's engine comparison. `identical_best` records whether
/// the delta engine reproduced the copying oracle's placement anchor for
/// anchor — the delta engine's contract. The stats
/// fields attribute where proposal time goes: acceptance counts plus
/// per-move-kind proposal/acceptance tallies.
inline void emit_engine_json_line(const std::string& name,
                                  const std::string& engine, double beta,
                                  double cost, double proposals_per_second,
                                  double wall_seconds, bool identical_best,
                                  const AnnealingStats& stats,
                                  std::uint64_t seed = kBenchSeed) {
  std::cout << "{\"bench\":\"" << name << "\",\"engine\":\"" << engine
            << "\",\"beta\":" << beta << ",\"cost\":" << cost
            << ",\"proposals_per_second\":" << proposals_per_second
            << ",\"wall_seconds\":" << wall_seconds << ",\"identical\":"
            << (identical_best ? "true" : "false")
            << ",\"proposals\":" << stats.proposals
            << ",\"accepted\":" << stats.accepted
            << ",\"uphill_accepted\":" << stats.uphill_accepted
            << ",\"moves\":{";
  for (int k = 0; k < AnnealingStats::kMoveKindSlots; ++k) {
    std::cout << (k == 0 ? "" : ",") << "\""
              << to_string(static_cast<MoveKind>(k))
              << "\":[" << stats.proposals_by_kind[k] << ","
              << stats.accepted_by_kind[k] << "]";
  }
  std::cout << "},\"seed\":" << seed << "}\n";
}

/// One line per (module count, beta, engine) cell of bench_perf_sa's
/// random-assay scaling sweep — the recorded artifact showing the delta
/// engine's advantage growing with instance size.
inline void emit_scaling_json_line(int modules, double beta,
                                   const std::string& engine,
                                   double proposals_per_second,
                                   double wall_seconds, bool identical_best,
                                   std::uint64_t seed = kBenchSeed) {
  std::cout << "{\"bench\":\"perf_sa_scaling\",\"modules\":" << modules
            << ",\"beta\":" << beta << ",\"engine\":\"" << engine
            << "\",\"proposals_per_second\":" << proposals_per_second
            << ",\"wall_seconds\":" << wall_seconds << ",\"identical\":"
            << (identical_best ? "true" : "false") << ",\"seed\":" << seed
            << "}\n";
}

/// The routing counterpart: one line per router backend, with the route
/// success rate over the bench's scenario set, the summed makespan of the
/// succeeded plans, the routing wall time, and (for the negotiated
/// backend) the summed rip-up rounds, its convergence effort.
inline void emit_router_json_line(const std::string& name,
                                  const std::string& router,
                                  double success_rate,
                                  long long makespan_steps,
                                  double wall_seconds,
                                  std::uint64_t seed = kBenchSeed,
                                  long long negotiation_rounds = 0) {
  std::cout << "{\"bench\":\"" << name << "\",\"router\":\"" << router
            << "\",\"success_rate\":" << success_rate
            << ",\"makespan_steps\":" << makespan_steps
            << ",\"wall_seconds\":" << wall_seconds
            << ",\"negotiation_rounds\":" << negotiation_rounds
            << ",\"seed\":" << seed << "}\n";
}

/// The simulator-engine counterpart: one line per (scenario, engine)
/// cell of bench_perf_sim. A "step" is one droplet move (route cell), so
/// `steps_per_second` is the simulator's droplet-step throughput;
/// `speedup` is this engine's throughput over the reference engine on
/// the same scenario (1 on the reference's own rows), and `identical`
/// records the full-SimulationResult bit-identity audit.
inline void emit_sim_json_line(const std::string& scenario,
                               const std::string& engine, int modules,
                               int runs, long long steps,
                               double steps_per_second, double wall_seconds,
                               double speedup, bool identical,
                               std::uint64_t seed = kBenchSeed) {
  std::cout << "{\"bench\":\"perf_sim\",\"scenario\":\"" << scenario
            << "\",\"engine\":\"" << engine << "\",\"modules\":" << modules
            << ",\"runs\":" << runs << ",\"steps\":" << steps
            << ",\"steps_per_second\":" << steps_per_second
            << ",\"wall_seconds\":" << wall_seconds << ",\"speedup\":"
            << speedup << ",\"identical\":" << (identical ? "true" : "false")
            << ",\"seed\":" << seed << "}\n";
}

/// Per-stage CostStatistic columns for the closed-loop bench: one line
/// per (scenario, stage) with cross-run count/min/avg/max wall seconds,
/// collected by a StageStatsCollector observer.
inline void emit_stage_stats_json_line(const std::string& bench,
                                       const std::string& scenario,
                                       PipelineStage stage,
                                       const CostStatistic& stat,
                                       std::uint64_t seed = kBenchSeed) {
  std::cout << "{\"bench\":\"" << bench << "_stages\",\"scenario\":\""
            << scenario << "\",\"stage\":\"" << to_string(stage)
            << "\",\"count\":" << stat.count << ",\"min_s\":"
            << stat.minimum() << ",\"avg_s\":" << stat.average()
            << ",\"max_s\":" << stat.max << ",\"seed\":" << seed << "}\n";
}

/// The closed-loop counterpart: one line per (scenario, feedback round),
/// with the transport-inclusive makespan the round achieved and whether
/// the pipeline selected it as the answer.
inline void emit_closed_loop_json_line(const std::string& scenario, int round,
                                       bool routed,
                                       double transport_makespan_s,
                                       double placement_cost, bool selected,
                                       std::uint64_t seed = kBenchSeed) {
  std::cout << "{\"bench\":\"closed_loop\",\"scenario\":\"" << scenario
            << "\",\"round\":" << round << ",\"routed\":"
            << (routed ? "true" : "false") << ",\"transport_makespan_s\":"
            << transport_makespan_s << ",\"placement_cost\":"
            << placement_cost << ",\"selected\":"
            << (selected ? "true" : "false") << ",\"seed\":" << seed
            << "}\n";
}

/// Paper-parameter placement context (§4d): T0 = 10^4, alpha = 0.9,
/// Na = 400, area-only objective; "two-stage" refines at beta = 30.
inline PlacerContext paper_context(std::uint64_t seed = kBenchSeed) {
  PlacerContext context;
  context.seed = seed;
  return context;  // defaults are the paper's
}

/// The schedule of an assay case under its own binding and scheduler
/// options (for the PCR case: Table 1 binding, at most two concurrent
/// mixers, storage inserted for waiting droplets).
inline Schedule case_schedule(const AssayCase& assay) {
  return list_schedule(assay.graph, assay.binding, assay.scheduler_options);
}

/// Standard bench banner.
inline void banner(const std::string& title) {
  std::cout << "==================================================\n"
            << title << '\n'
            << "seed: 0x" << std::hex << kBenchSeed << std::dec << '\n'
            << "==================================================\n";
}

}  // namespace dmfb::bench

// --- SVG helpers shared by the figure benches -------------------------

#include <filesystem>
#include <fstream>

#include "util/svg.h"

namespace dmfb::bench {

/// Directory the figure benches drop their artifacts (SVG slices) into,
/// so runs never dirty the working tree: `bench-out/` under the current
/// directory (inside the build tree when run from there), overridable
/// via DMFB_BENCH_OUT. Created on first use.
inline std::filesystem::path output_dir() {
  const char* override_dir = std::getenv("DMFB_BENCH_OUT");
  std::filesystem::path dir =
      override_dir != nullptr ? override_dir : "bench-out";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Writes every time slice of `placement` as one SVG file per slice
/// under output_dir(): <prefix>_slice<k>.svg, drawn over the placement
/// bounding box. Returns the directory used (for the bench's log line).
inline std::filesystem::path write_placement_svgs(const Placement& placement,
                                                  const std::string& prefix) {
  const std::filesystem::path dir = output_dir();
  const Rect box = placement.bounding_box();
  const auto& slices = placement.slice_members();
  for (std::size_t s = 0; s < slices.size(); ++s) {
    std::vector<SvgRect> rects;
    for (const int index : slices[s]) {
      const auto& m = placement.module(index);
      Rect fp = m.footprint();
      fp.x -= box.x;
      fp.y -= box.y;
      rects.push_back(SvgRect{fp, m.label,
                              palette_color(static_cast<std::size_t>(index))});
    }
    std::ofstream out(dir / (prefix + "_slice" + std::to_string(s) + ".svg"));
    out << render_svg_grid(box.width, box.height, rects);
  }
  return dir;
}

}  // namespace dmfb::bench
