// bench_perf_mer — microbenchmarks for the maximal-empty-rectangle
// machinery (ablation A4 + the paper's §6.2 runtime claim: FTI of the
// 7x9 placement took 1.7 s of CPU on a 2004 PC; the staircase algorithm
// is what makes it fast). Compares:
//   * staircase enumeration (the paper's algorithm),
//   * brute-force enumeration (the test oracle),
//   * FTI of the PCR placement by the library's bitboard kernel
//     (evaluate_fti),
//   * the same FTI by the MER-per-cell definition (the test oracle).
// The references come from tests/oracles/reference_fti.h, so this bench
// links dmfb_oracles.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/fti.h"
#include "core/greedy_placer.h"
#include "core/mer.h"
#include "oracles/reference_fti.h"
#include "util/rng.h"

namespace {

using namespace dmfb;

Matrix<std::uint8_t> random_grid(int n, double density, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<std::uint8_t> grid(n, n, 0);
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      grid.at(x, y) = rng.next_bool(density) ? 1 : 0;
    }
  }
  return grid;
}

void BM_MerStaircase(benchmark::State& state) {
  const auto grid = random_grid(static_cast<int>(state.range(0)), 0.3, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(maximal_empty_rectangles(grid));
  }
}
BENCHMARK(BM_MerStaircase)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_MerBruteForce(benchmark::State& state) {
  const auto grid = random_grid(static_cast<int>(state.range(0)), 0.3, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::maximal_empty_rectangles_brute(grid));
  }
}
BENCHMARK(BM_MerBruteForce)->Arg(8)->Arg(16)->Arg(32);

void BM_FtiEvaluationPcr(benchmark::State& state) {
  const Placement placement =
      place_greedy(bench::case_schedule(pcr_mixing_assay()), 24, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_fti(placement));
  }
  state.counters["cells"] =
      static_cast<double>(placement.bounding_box_cells());
}
BENCHMARK(BM_FtiEvaluationPcr);

void BM_FtiReferencePcr(benchmark::State& state) {
  // The MER-per-cell reference — the paper's “1.7 s” style evaluation.
  const Placement placement =
      place_greedy(bench::case_schedule(pcr_mixing_assay()), 24, 24);
  const Rect region = placement.bounding_box();
  for (auto _ : state) {
    long long covered = 0;
    for (int y = region.y; y < region.top(); ++y) {
      for (int x = region.x; x < region.right(); ++x) {
        covered += oracle::is_cell_covered_reference(placement, Point{x, y},
                                                     {}, region);
      }
    }
    benchmark::DoNotOptimize(covered);
  }
}
BENCHMARK(BM_FtiReferencePcr);

}  // namespace

BENCHMARK_MAIN();
