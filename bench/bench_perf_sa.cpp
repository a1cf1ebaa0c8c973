// bench_perf_sa — microbenchmarks for the annealing machinery plus the
// engine comparison and the random-assay scaling sweep (the paper's §6
// runtime context: 5 min for area-only SA, 20 min for two-stage, on a
// 1.0 GHz Pentium-III).
//
// Before the Google-Benchmark suite runs, the binary
//   1. anneals the paper's Fig. 7 configuration with the delta engine
//      and with its copying oracle (tests/oracles/copy_annealer.h), and
//      again with beta > 0 (the two-stage LTSA objective), emitting one
//      JSON line per (engine, beta) cell:
//        {"bench":"perf_sa","engine":"delta","beta":0,...,"moves":{...}}
//   2. sweeps seeded random assays from ~10 to ~200 modules and runs
//      the copy-vs-delta comparison at every size, emitting one
//      {"bench":"perf_sa_scaling",...} line per (size, beta, engine)
//      cell — the recorded artifact showing the delta engine's
//      advantage growing with instance size.
//
// It exits non-zero when the delta engine is slower than the copying
// oracle or their final placements differ anywhere — including at any
// swept size: the CI shape checks. `--smoke` shrinks the schedules and
// the sweep and skips the microbenchmarks (CI Release job).
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "assay/random_assay.h"
#include "core/cost.h"
#include "core/moves.h"
#include "oracles/copy_annealer.h"
#include "util/rng.h"

namespace {

using namespace dmfb;

const Schedule& pcr_schedule() {
  static const Schedule schedule = bench::case_schedule(pcr_mixing_assay());
  return schedule;
}

Placement greedy_pcr_placement() {
  return make_placer("greedy")
      ->place(pcr_schedule(), bench::paper_context())
      .placement;
}

// --- engine comparison ------------------------------------------------

/// One comparison cell annealed from `initial`: the delta engine, or
/// (`copy`) its copying oracle.
PlacementOutcome run_engine(bool copy, const Placement& initial,
                            const PlacerContext& context) {
  return copy ? oracle::anneal_copy(initial, context)
              : anneal_from(initial, context);
}

bool same_placement(const Placement& a, const Placement& b) {
  if (a.module_count() != b.module_count()) return false;
  for (int i = 0; i < a.module_count(); ++i) {
    if (!(a.module(i).anchor == b.module(i).anchor) ||
        a.module(i).rotated != b.module(i).rotated) {
      return false;
    }
  }
  return true;
}

/// Runs the delta engine and its copying oracle on one configuration,
/// emits their JSON lines, and returns whether the delta engine held its
/// contract (identical best placement, no slower than the oracle). Runs
/// are interleaved and each side reports its best proposals/sec of
/// `rounds` runs, so CPU frequency drift biases neither.
bool compare_engines(const char* label, const Placement& initial,
                     const PlacerContext& context, int rounds) {
  PlacementOutcome copy = run_engine(/*copy=*/true, initial, context);
  PlacementOutcome delta = run_engine(/*copy=*/false, initial, context);
  for (int round = 1; round < rounds; ++round) {
    PlacementOutcome c = run_engine(/*copy=*/true, initial, context);
    if (c.stats.proposals_per_second > copy.stats.proposals_per_second) {
      copy = std::move(c);
    }
    PlacementOutcome d = run_engine(/*copy=*/false, initial, context);
    if (d.stats.proposals_per_second > delta.stats.proposals_per_second) {
      delta = std::move(d);
    }
  }
  const bool identical = same_placement(copy.placement, delta.placement);

  bench::emit_engine_json_line("perf_sa", "copy", context.weights.beta,
                               copy.cost.value,
                               copy.stats.proposals_per_second,
                               copy.stats.wall_seconds, identical, copy.stats,
                               context.seed);
  bench::emit_engine_json_line("perf_sa", "delta", context.weights.beta,
                               delta.cost.value,
                               delta.stats.proposals_per_second,
                               delta.stats.wall_seconds, identical,
                               delta.stats, context.seed);
  const double speedup =
      copy.stats.proposals_per_second > 0.0
          ? delta.stats.proposals_per_second / copy.stats.proposals_per_second
          : 0.0;
  std::cout << label << ": delta/copy speedup " << speedup
            << "x (copy " << copy.stats.proposals_per_second
            << " proposals/s, delta " << delta.stats.proposals_per_second
            << " proposals/s), placements "
            << (identical ? "identical" : "DIFFER") << "\n";

  bool ok = true;
  if (!identical) {
    std::cerr << "SHAPE CHECK FAILED: " << label
              << ": copying oracle and delta engine returned different"
                 " placements\n";
    ok = false;
  }
  if (speedup < 1.0) {
    std::cerr << "SHAPE CHECK FAILED: " << label
              << ": delta engine slower than the copying oracle (" << speedup
              << "x)\n";
    ok = false;
  }
  return ok;
}

/// The engine comparison over the Fig. 7 configuration (beta = 0) and
/// its two-stage LTSA counterpart (beta = 30). `smoke` shrinks the
/// schedules so the CI Release job finishes in seconds; the full run is
/// the recorded artifact quoted in README "Performance".
bool run_comparison(bool smoke) {
  const Placement initial = greedy_pcr_placement();
  const int rounds = smoke ? 1 : 3;

  // Fig. 7: area-only annealing at the paper's parameters.
  PlacerContext stage1 = bench::paper_context();
  if (smoke) {
    stage1.annealing.initial_temperature = 1000.0;
    stage1.annealing.cooling_rate = 0.8;
    stage1.annealing.iterations_per_module = 25;
  }
  bool ok = compare_engines(smoke ? "fig7 (smoke)" : "fig7", initial, stage1,
                            rounds);

  // Two-stage LTSA: beta > 0 exercises the incremental FTI coverage
  // state. Single displacements only, as in §6.2.
  PlacerContext ltsa = stage1;
  ltsa.annealing = stage1.ltsa;  // the "two-stage" placer's LTSA schedule
  if (smoke) {
    ltsa.annealing.cooling_rate = 0.8;
    ltsa.annealing.iterations_per_module = 25;
  }
  ltsa.weights.beta = 30.0;
  ltsa.moves.single_move_probability = 1.0;
  ltsa.moves.rotate_probability = 0.0;
  ok = compare_engines(smoke ? "ltsa beta=30 (smoke)" : "ltsa beta=30",
                       initial, ltsa, rounds) &&
       ok;
  return ok;
}

// --- random-assay scaling sweep ---------------------------------------

/// One swept size: a seeded random assay scheduled through the
/// pipeline, annealed from greedy by both engines at `beta` under a
/// short shared schedule. Emits the two JSON rows and returns whether
/// the placements stayed identical (the CI divergence check).
bool sweep_point(const Schedule& schedule, int canvas, double beta,
                 const AnnealingSchedule& annealing) {
  const int modules = static_cast<int>(schedule.modules().size());

  PlacerContext context;
  context.canvas_width = canvas;
  context.canvas_height = canvas;
  context.annealing = annealing;
  context.weights.beta = beta;
  context.seed = bench::kBenchSeed + static_cast<std::uint64_t>(modules);

  const Placement initial =
      make_placer("greedy")->place(schedule, context).placement;

  const PlacementOutcome copy = run_engine(/*copy=*/true, initial, context);
  const PlacementOutcome delta = run_engine(/*copy=*/false, initial, context);
  const bool identical = same_placement(copy.placement, delta.placement);

  bench::emit_scaling_json_line(modules, beta, "copy",
                                copy.stats.proposals_per_second,
                                copy.stats.wall_seconds, identical,
                                context.seed);
  bench::emit_scaling_json_line(modules, beta, "delta",
                                delta.stats.proposals_per_second,
                                delta.stats.wall_seconds, identical,
                                context.seed);
  const double ratio =
      copy.stats.proposals_per_second > 0.0
          ? delta.stats.proposals_per_second / copy.stats.proposals_per_second
          : 0.0;
  std::cout << "scaling n=" << modules << " beta=" << beta
            << " canvas=" << canvas << ": delta/copy " << ratio
            << "x, placements " << (identical ? "identical" : "DIFFER")
            << "\n";
  if (!identical) {
    std::cerr << "SHAPE CHECK FAILED: scaling n=" << modules << " beta="
              << beta << ": engines returned different placements\n";
  }
  return identical;
}

/// The sweep: module counts from the PCR scale (~10) to ~200 via
/// random_assay, each scheduled once and annealed by both engines at
/// beta = 0 and beta = 30. The copy engine's per-proposal cost grows
/// with the module count (it rebuilds every module's relocation state),
/// the delta engine's only with the temporal degree — the ratio's
/// growth with size is the artifact this records.
bool run_scaling_sweep(bool smoke) {
  bench::banner(smoke ? "perf_sa: random-assay scaling sweep (smoke)"
                      : "perf_sa: random-assay scaling sweep");
  const ModuleLibrary library = ModuleLibrary::standard();
  // Mix counts chosen so the scheduled instances (mixes + storage) span
  // the PCR scale (~10 modules) up to ~200.
  const std::vector<int> mix_counts = smoke
                                          ? std::vector<int>{8, 24, 48}
                                          : std::vector<int>{8, 16, 32, 64,
                                                             128};

  // Short shared schedule: throughput is time-normalized, so the sweep
  // needs samples, not convergence. (The copy engine at n ~ 200 costs
  // milliseconds per proposal — a full paper schedule would take hours.)
  AnnealingSchedule annealing;
  annealing.initial_temperature = smoke ? 50.0 : 100.0;
  annealing.cooling_rate = smoke ? 0.5 : 0.7;
  annealing.iterations_per_module = smoke ? 2 : 4;
  annealing.min_temperature = smoke ? 5.0 : 1.0;

  bool ok = true;
  for (const int mixes : mix_counts) {
    RandomAssayParams params;
    params.mix_operations = mixes;
    params.max_layer_width = std::max(4, mixes / 4);
    params.max_concurrent_modules = 8;
    const AssayCase assay = random_assay(
        params, library, bench::kBenchSeed + static_cast<std::uint64_t>(mixes));

    PipelineOptions pipeline_options;
    pipeline_options.place = false;
    pipeline_options.seed = bench::kBenchSeed;
    const Schedule schedule =
        SynthesisPipeline(pipeline_options).run(assay).schedule;

    // Canvas sized to hold the peak concurrent area with ~2x slack, so
    // annealing has room to both pack and spread.
    const int canvas = std::max(
        16,
        static_cast<int>(std::ceil(std::sqrt(
            2.0 * static_cast<double>(schedule.peak_concurrent_cells())))));

    ok = sweep_point(schedule, canvas, /*beta=*/0.0, annealing) && ok;
    ok = sweep_point(schedule, canvas, /*beta=*/30.0, annealing) && ok;
  }
  return ok;
}

// --- Google-Benchmark microbenches ------------------------------------

void BM_CostEvaluationAreaOnly(benchmark::State& state) {
  const Placement placement = greedy_pcr_placement();
  const CostEvaluator evaluator(CostWeights{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.cost(placement));
  }
}
BENCHMARK(BM_CostEvaluationAreaOnly);

void BM_CostEvaluationWithFti(benchmark::State& state) {
  const Placement placement = greedy_pcr_placement();
  CostWeights weights;
  weights.beta = 30.0;
  const CostEvaluator evaluator(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.cost(placement));
  }
}
BENCHMARK(BM_CostEvaluationWithFti);

void BM_MoveGeneration(benchmark::State& state) {
  Placement placement = greedy_pcr_placement();
  Rng rng(1);
  const MoveOptions options;
  for (auto _ : state) {
    Placement copy = placement;
    benchmark::DoNotOptimize(apply_random_move(copy, 0.5, options, rng));
  }
}
BENCHMARK(BM_MoveGeneration);

void BM_AreaOnlyPlacementEndToEnd(benchmark::State& state) {
  // Shortened schedule so a single iteration stays ~tens of ms; arg 1
  // selects the engine (0 = delta, 1 = the copying oracle) so the
  // speedup shows up in the benchmark table too.
  PlacerContext context = bench::paper_context();
  context.annealing.initial_temperature = 1000.0;
  context.annealing.cooling_rate = 0.8;
  context.annealing.iterations_per_module = static_cast<int>(state.range(0));
  const bool copy = state.range(1) == 1;
  const auto placer = make_placer("sa");
  std::uint64_t seed = 1;
  for (auto _ : state) {
    context.seed = seed++;
    const auto outcome =
        copy ? oracle::place_copy(pcr_schedule(), context)
             : placer->place(pcr_schedule(), context);
    benchmark::DoNotOptimize(outcome.cost.area_cells);
  }
  state.counters["Na"] = static_cast<double>(state.range(0));
  state.SetLabel(copy ? "copy" : "delta");
}
BENCHMARK(BM_AreaOnlyPlacementEndToEnd)
    ->Args({25, 0})
    ->Args({25, 1})
    ->Args({100, 0})
    ->Args({100, 1})
    ->Unit(benchmark::kMillisecond);

void BM_PaperParameterPlacement(benchmark::State& state) {
  // Full paper parameters (T0=1e4, alpha=0.9, Na=400) — the modern
  // counterpart of the paper's 5-minute figure, on the delta engine.
  PlacerContext context = bench::paper_context();
  const auto placer = make_placer("sa");
  std::uint64_t seed = 1;
  for (auto _ : state) {
    context.seed = seed++;
    const auto outcome = placer->place(pcr_schedule(), context);
    benchmark::DoNotOptimize(outcome.cost.area_cells);
  }
}
BENCHMARK(BM_PaperParameterPlacement)->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineEndToEnd(benchmark::State& state) {
  // Whole compile driver — bind, schedule, place, route — as users run it.
  PipelineOptions options;
  options.placer_context.annealing.initial_temperature = 1000.0;
  options.placer_context.annealing.cooling_rate = 0.8;
  options.placer_context.annealing.iterations_per_module =
      static_cast<int>(state.range(0));
  const AssayCase assay = pcr_mixing_assay();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    PipelineOptions per_run = options;
    per_run.seed = seed++;
    const auto result = SynthesisPipeline(per_run).run(assay);
    benchmark::DoNotOptimize(result.cost().area_cells);
  }
  state.counters["Na"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_PipelineEndToEnd)->Arg(25)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const bool smoke = dmfb::bench::smoke_flag(argc, argv);

  dmfb::bench::banner(smoke ? "perf_sa: engine comparison (smoke)"
                            : "perf_sa: engine comparison");
  bool ok = run_comparison(smoke);
  ok = run_scaling_sweep(smoke) && ok;
  if (!ok) return 1;
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
