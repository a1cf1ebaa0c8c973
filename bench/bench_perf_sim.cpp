// bench_perf_sim — step-throughput comparison of the event-queue
// simulation engine (sim/sim_engine.h) against the pinned reference
// implementation (the test oracle in tests/oracles/reference_simulator.h),
// plus microbenchmarks of the engine's hot pieces.
//
// Two headline scenarios, simulated on a fabricated 384x384 array (the
// service's situation: the chip is far larger than the assay's bounding
// box, which is exactly where the reference's per-route O(W*H) grid
// rebuilds hurt most — its wall time grows with the array area while
// the event engine's stays flat), plus the same assays on their tight
// canvases:
//   - "pcr":       the paper's PCR mixing stage (Table 1 binding)
//   - "random200": a seeded random assay with 200+ scheduled modules
//
// Throughput rows are measured in the batch/service configuration
// (record_events=false for BOTH engines — a driver sweeping thousands
// of candidate chips reads the structured fields, not the log); the
// bit-identity audit runs at both record_events settings first.
//
// For every (scenario, engine) cell the binary emits one JSON line:
//   {"bench":"perf_sim","scenario":"pcr","engine":"event",
//    "steps_per_second":...,"speedup":...,"identical":true,...}
// where a step is one droplet move (route cell). The shape check exits
// non-zero when the event engine's SimulationResult is not bit-identical
// to the reference anywhere, when the random scenario has fewer than 200
// modules, or when the event engine's step throughput on a headline
// (fabricated-array) scenario is below 10x the reference's. `--smoke`
// shrinks the repetition counts and skips the microbenchmarks (CI
// Release job).
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "assay/random_assay.h"
#include "core/greedy_placer.h"
#include "oracles/reference_simulator.h"
#include "sim/sim_engine.h"

namespace {

using namespace dmfb;

struct Scenario {
  std::string name;
  SequencingGraph graph;
  Schedule schedule;
  Placement placement;
  int chip_size = 0;
  bool headline = false;  ///< the >=10x shape check applies
};

Scenario make_pcr(int chip_size, bool headline, const std::string& name) {
  const AssayCase assay = pcr_mixing_assay();
  Schedule schedule = bench::case_schedule(assay);
  Placement placement = place_greedy(schedule, 16, 16);
  return Scenario{name, assay.graph, std::move(schedule),
                  std::move(placement), chip_size, headline};
}

Scenario make_random200(int chip_size, bool headline,
                        const std::string& name) {
  const auto lib = ModuleLibrary::standard();
  RandomAssayParams params;
  params.mix_operations = 200;
  params.max_layer_width = 6;
  params.max_concurrent_modules = 6;
  const AssayCase assay = random_assay(params, lib, bench::kBenchSeed);
  Schedule schedule = bench::case_schedule(assay);
  Placement placement = place_greedy(schedule, 32, 32);
  return Scenario{name, assay.graph, std::move(schedule),
                  std::move(placement), chip_size, headline};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool identical_results(const SimulationResult& a, const SimulationResult& b) {
  if (a.success != b.success || a.failure_reason != b.failure_reason ||
      a.failed_module != b.failed_module || !(a.fault_cell == b.fault_cell) ||
      a.makespan_s != b.makespan_s || a.routes_planned != b.routes_planned ||
      a.route_cells != b.route_cells ||
      a.transport_seconds != b.transport_seconds ||
      a.events.size() != b.events.size() || a.op_outputs != b.op_outputs) {
    return false;
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (a.events[i].time_s != b.events[i].time_s ||
        a.events[i].what != b.events[i].what) {
      return false;
    }
  }
  return true;
}

struct Measured {
  long long steps = 0;
  double wall_seconds = 0.0;
  double steps_per_second = 0.0;
};

/// Repeats the scenario `runs` times on the event engine, or on the
/// reference oracle when `reference` is set, and reports droplet
/// steps (route cells) per wall second. The event engine instance is
/// reused across runs, as a batch driver would hold it, so its pooled
/// scratch reaches steady state; one untimed warmup run per engine
/// takes the cold first iteration (grid allocation, page faults) out of
/// the window for both.
Measured measure(const Scenario& scenario, bool reference, int runs) {
  const Chip chip(scenario.chip_size, scenario.chip_size);
  SimOptions options;
  // Batch/service configuration for both engines: drivers that sweep
  // chips read the structured result fields, not the event log.
  options.record_events = false;
  Measured measured;
  if (!reference) {
    EventSimEngine engine(options);
    engine.run(scenario.graph, scenario.schedule, scenario.placement, chip);
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < runs; ++r) {
      const auto run = engine.run(scenario.graph, scenario.schedule,
                                  scenario.placement, chip);
      measured.steps += run.result.route_cells;
      benchmark::DoNotOptimize(run.result.success);
    }
    measured.wall_seconds = seconds_since(start);
  } else {
    oracle::run_reference(scenario.graph, scenario.schedule,
                          scenario.placement, chip, options);
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < runs; ++r) {
      const auto result =
          oracle::run_reference(scenario.graph, scenario.schedule,
                                scenario.placement, chip, options);
      measured.steps += result.route_cells;
      benchmark::DoNotOptimize(result.success);
    }
    measured.wall_seconds = seconds_since(start);
  }
  measured.steps_per_second =
      measured.wall_seconds > 0.0 ? measured.steps / measured.wall_seconds
                                  : 0.0;
  return measured;
}

bool run_comparison(bool smoke) {
  std::vector<Scenario> scenarios;
  scenarios.push_back(make_pcr(384, /*headline=*/true, "pcr"));
  scenarios.push_back(make_random200(384, /*headline=*/true, "random200"));
  // Tight-canvas rows for context (no 10x gate: on a 16x16 array there
  // is little grid for the reference to waste time rebuilding).
  scenarios.push_back(make_pcr(16, /*headline=*/false, "pcr_tight"));
  scenarios.push_back(make_random200(32, /*headline=*/false,
                                     "random200_tight"));

  bool ok = true;
  for (const Scenario& scenario : scenarios) {
    const Chip chip(scenario.chip_size, scenario.chip_size);

    // Bit-identity audit first, at both record_events settings (the
    // throughput rows below run the record_events=false configuration).
    bool identical = true;
    SimulationResult event_result;
    for (const bool record : {true, false}) {
      SimOptions options;
      options.record_events = record;
      event_result = EventSimEngine(options)
                         .run(scenario.graph, scenario.schedule,
                              scenario.placement, chip)
                         .result;
      const auto reference_result = oracle::run_reference(
          scenario.graph, scenario.schedule, scenario.placement, chip,
          options);
      if (!identical_results(event_result, reference_result)) {
        std::cerr << "FAIL: " << scenario.name << " (record_events="
                  << (record ? "true" : "false")
                  << "): event engine result differs from reference\n";
        identical = false;
        ok = false;
      }
    }
    if (!event_result.success) {
      std::cerr << "FAIL: " << scenario.name << ": simulation failed: "
                << event_result.failure_reason << "\n";
      ok = false;
    }
    if (scenario.name == "random200" &&
        scenario.schedule.module_count() < 200) {
      std::cerr << "FAIL: random200 scenario has only "
                << scenario.schedule.module_count() << " modules\n";
      ok = false;
    }

    // Throughput: calibrate the repetition count so even the fast cells
    // get a measurable (multi-millisecond) window; small scenarios need
    // more reps, and smoke mode scales both down.
    const int runs = scenario.schedule.module_count() > 100 ? (smoke ? 5 : 40)
                                                            : (smoke ? 50
                                                                     : 200);
    const Measured reference = measure(scenario, /*reference=*/true, runs);
    const Measured event = measure(scenario, /*reference=*/false, runs);
    const double speedup =
        reference.steps_per_second > 0.0
            ? event.steps_per_second / reference.steps_per_second
            : 0.0;
    bench::emit_sim_json_line(scenario.name, "reference",
                              scenario.schedule.module_count(), runs,
                              reference.steps, reference.steps_per_second,
                              reference.wall_seconds, 1.0, identical);
    bench::emit_sim_json_line(scenario.name, "event",
                              scenario.schedule.module_count(), runs,
                              event.steps, event.steps_per_second,
                              event.wall_seconds, speedup, identical);
    if (scenario.headline && speedup < 10.0) {
      std::cerr << "FAIL: " << scenario.name << ": event engine speedup "
                << speedup << "x is below the 10x floor\n";
      ok = false;
    }
  }
  return ok;
}

// ---- microbenchmarks (skipped in --smoke) ----------------------------

const Scenario& pcr_scenario() {
  static const Scenario scenario = make_pcr(64, true, "pcr");
  return scenario;
}

void BM_EventEnginePcr(benchmark::State& state) {
  const Scenario& scenario = pcr_scenario();
  const Chip chip(scenario.chip_size, scenario.chip_size);
  EventSimEngine engine;
  for (auto _ : state) {
    const auto run = engine.run(scenario.graph, scenario.schedule,
                                scenario.placement, chip);
    benchmark::DoNotOptimize(run.result.route_cells);
  }
}
BENCHMARK(BM_EventEnginePcr)->Unit(benchmark::kMicrosecond);

void BM_ReferenceEnginePcr(benchmark::State& state) {
  const Scenario& scenario = pcr_scenario();
  const Chip chip(scenario.chip_size, scenario.chip_size);
  for (auto _ : state) {
    const auto result = oracle::run_reference(
        scenario.graph, scenario.schedule, scenario.placement, chip);
    benchmark::DoNotOptimize(result.route_cells);
  }
}
BENCHMARK(BM_ReferenceEnginePcr)->Unit(benchmark::kMicrosecond);

void BM_EventEnginePcrNoLog(benchmark::State& state) {
  // record_events=false: the batch/service configuration.
  const Scenario& scenario = pcr_scenario();
  const Chip chip(scenario.chip_size, scenario.chip_size);
  SimOptions options;
  options.record_events = false;
  EventSimEngine engine(options);
  for (auto _ : state) {
    const auto run = engine.run(scenario.graph, scenario.schedule,
                                scenario.placement, chip);
    benchmark::DoNotOptimize(run.result.route_cells);
  }
}
BENCHMARK(BM_EventEnginePcrNoLog)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const bool smoke = dmfb::bench::smoke_flag(argc, argv);
  dmfb::bench::banner(smoke ? "perf_sim: engine comparison (smoke)"
                            : "perf_sim: engine comparison");
  if (!run_comparison(smoke)) return 1;
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
