// bench_recovery — gates on the online fault-recovery stack
// (sim/recovery.h + EventSimEngine::run_online): checkpointed resume
// must beat a from-scratch rerun, the completed prefix must be
// bit-identical, and fault campaigns must agree with the Fault
// Tolerance Index.
//
// Three measurements, each one JSON line:
//
//   recovery_resume    a 200+-module random assay is failed by a fault
//                      injected during its last-started module (the
//                      latest a concurrent-testing detection can fire);
//                      the run resumes from the captured SimCheckpoint
//                      on a retimed schedule and the residual wall time
//                      is compared against re-running from t = 0.
//                      Gates: the checkpoint's completed-prefix events
//                      are bit-identical to the uninterrupted run's and
//                      resume is >= 2x faster than the rerun.
//   recovery_ladder    the same late fault driven end-to-end through
//                      OnlineRecoveryEngine (detect -> escalate ->
//                      resume). Gate: the fault fires, is detected, and
//                      the assay still completes.
//   recovery_campaign  the paper's PCR placement under (a) a small
//                      exhaustive single-fault campaign — empirical
//                      survivability must equal evaluate_fti() cell for
//                      cell — and (b) seeded mid-run single-fault plans
//                      through the reconfigure-only ladder, whose
//                      outcome must match the FTI's covered/uncovered
//                      prediction for every sampled cell.
//
// `--smoke` shrinks repetition and sample counts (CI Release job). Any
// gate failure exits non-zero.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "assay/random_assay.h"
#include "core/fti.h"
#include "core/greedy_placer.h"
#include "core/reconfig.h"
#include "sim/fault.h"
#include "sim/recovery.h"
#include "sim/sim_engine.h"

namespace {

using namespace dmfb;

struct Scenario {
  SequencingGraph graph;
  Schedule schedule;
  Placement placement;
  int chip_size = 0;
};

/// bench_perf_sim's random200: a seeded assay with 200+ scheduled
/// modules on a 32x32 greedy placement.
Scenario make_random200() {
  const auto lib = ModuleLibrary::standard();
  RandomAssayParams params;
  params.mix_operations = 200;
  params.max_layer_width = 6;
  params.max_concurrent_modules = 6;
  const AssayCase assay = random_assay(params, lib, bench::kBenchSeed);
  Schedule schedule = bench::case_schedule(assay);
  Placement placement = place_greedy(schedule, 32, 32);
  return Scenario{assay.graph, std::move(schedule),
                  std::move(placement), 32};
}

Scenario make_pcr() {
  const AssayCase assay = pcr_mixing_assay();
  Schedule schedule = bench::case_schedule(assay);
  Placement placement = place_greedy(schedule, 16, 16);
  return Scenario{assay.graph, std::move(schedule),
                  std::move(placement), 16};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The module whose start event is dispatched last — a fault during its
/// run rolls back the *tail* of the event log, so the checkpoint's
/// event list is a strict prefix of the uninterrupted run's.
int last_started_module(const Schedule& schedule) {
  int victim = -1;
  for (int i = 0; i < schedule.module_count(); ++i) {
    const ScheduledModule& sm = schedule.module(i);
    if (sm.end_s <= sm.start_s) continue;
    if (victim < 0 || sm.start_s > schedule.module(victim).start_s) {
      victim = i;
    }
  }
  return victim;
}

bool prefix_identical(const SimulationResult& clean,
                      const SimulationResult& resumed, std::size_t prefix) {
  if (clean.events.size() < prefix || resumed.events.size() < prefix) {
    return false;
  }
  for (std::size_t i = 0; i < prefix; ++i) {
    if (clean.events[i].time_s != resumed.events[i].time_s ||
        clean.events[i].what != resumed.events[i].what) {
      return false;
    }
  }
  return true;
}

// --- 1. resume vs rerun + prefix bit-identity -------------------------

bool run_resume_gate(const Scenario& scenario, bool smoke) {
  bool ok = true;
  const Chip chip(scenario.chip_size, scenario.chip_size);
  EventSimEngine engine;  // record_events=true: the identity audit needs it

  const SimEngineRun clean = engine.run_online(
      scenario.graph, scenario.schedule, scenario.placement, chip, {});
  if (!clean.result.success) {
    std::cerr << "FAIL: clean random200 run failed: "
              << clean.result.failure_reason << "\n";
    return false;
  }
  if (scenario.schedule.module_count() < 200) {
    std::cerr << "FAIL: random200 scenario has only "
              << scenario.schedule.module_count() << " modules\n";
    ok = false;
  }

  const int victim = last_started_module(scenario.schedule);
  const ScheduledModule& vm = scenario.schedule.module(victim);
  const Rect site = scenario.placement.module(victim).footprint();
  // Inject just after the victim's start event: the roll-back then
  // removes exactly the log tail (no event lands between the start and
  // the detection), which is what makes the checkpoint a clean prefix.
  FaultInjectionPlan plan;
  plan.faults.push_back(PlannedFault{
      Point{site.x + site.width / 2, site.y + site.height / 2},
      vm.start_s + 1e-9, -1});

  SimCheckpoint ckpt;
  const SimEngineRun failed =
      engine.run_online(scenario.graph, scenario.schedule,
                        scenario.placement, chip, plan, nullptr, &ckpt);
  if (failed.result.success || !ckpt.valid ||
      failed.faults_fired.size() != 1) {
    std::cerr << "FAIL: late fault did not fail the run "
              << "(checkpoint valid=" << ckpt.valid << ")\n";
    return false;
  }
  if (ckpt.time_s < 0.5 * clean.result.makespan_s) {
    std::cerr << "FAIL: fault fired at " << ckpt.time_s
              << "s — not a late-run fault (makespan "
              << clean.result.makespan_s << "s)\n";
    ok = false;
  }

  // The repaired schedule a recovery rung would resume on: the
  // interrupted operation re-runs from the detection instant (the fault
  // is treated as transient here — the ladder's actual repair rungs are
  // exercised by the recovery_ladder row; this row times the
  // checkpoint/resume machinery itself).
  Schedule resumed_schedule = scenario.schedule;
  const double delta = ckpt.time_s - vm.start_s;
  if (delta > 0.0) {
    resumed_schedule.shift_from(vm.end_s, delta);
    resumed_schedule.retime(victim, ckpt.time_s,
                            ckpt.time_s + (vm.end_s - vm.start_s));
  }

  const SimEngineRun resumed =
      engine.run_online(scenario.graph, resumed_schedule,
                        scenario.placement, chip, {}, &ckpt);
  if (!resumed.result.success) {
    std::cerr << "FAIL: resumed run failed: "
              << resumed.result.failure_reason << "\n";
    return false;
  }
  const std::size_t prefix = ckpt.events.size();
  const bool identical =
      prefix_identical(clean.result, resumed.result, prefix);
  if (!identical) {
    std::cerr << "FAIL: completed-prefix events (" << prefix
              << ") are not bit-identical to the uninterrupted run\n";
    ok = false;
  }

  // Wall-clock: resume (residual tail only) vs rerun from t = 0.
  const int reps = smoke ? 5 : 25;
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    const auto run = engine.run_online(scenario.graph, scenario.schedule,
                                       scenario.placement, chip, {});
    if (!run.result.success) ok = false;
  }
  const double rerun_wall = seconds_since(start) / reps;
  start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    const auto run = engine.run_online(scenario.graph, resumed_schedule,
                                       scenario.placement, chip, {}, &ckpt);
    if (!run.result.success) ok = false;
  }
  const double resume_wall = seconds_since(start) / reps;
  const double speedup =
      resume_wall > 0.0 ? rerun_wall / resume_wall : 0.0;

  std::cout << "{\"bench\":\"recovery_resume\",\"modules\":"
            << scenario.schedule.module_count()
            << ",\"fault_time_s\":" << ckpt.time_s
            << ",\"makespan_s\":" << clean.result.makespan_s
            << ",\"prefix_events\":" << prefix
            << ",\"identical_prefix\":" << (identical ? "true" : "false")
            << ",\"rerun_wall_s\":" << rerun_wall
            << ",\"resume_wall_s\":" << resume_wall
            << ",\"speedup\":" << speedup
            << ",\"seed\":" << bench::kBenchSeed << "}\n";
  if (speedup < 2.0) {
    std::cerr << "FAIL: resume speedup " << speedup
              << "x is below the 2x floor\n";
    ok = false;
  }
  return ok;
}

// --- 2. the escalation ladder end-to-end ------------------------------

bool run_ladder_gate(const Scenario& scenario) {
  const int victim = last_started_module(scenario.schedule);
  const ScheduledModule& vm = scenario.schedule.module(victim);
  const Rect site = scenario.placement.module(victim).footprint();
  FaultInjectionPlan plan;
  plan.faults.push_back(PlannedFault{
      Point{site.x + site.width / 2, site.y + site.height / 2},
      0.5 * (vm.start_s + vm.end_s), -1});

  RecoveryOptions options;
  // Short annealing for the replace rung so a ladder that escalates all
  // the way stays inside the bench budget.
  options.replace_context.annealing.initial_temperature = 1000.0;
  options.replace_context.annealing.cooling_rate = 0.8;
  options.replace_context.annealing.iterations_per_module = 60;
  const OnlineRecoveryEngine engine(options);
  const auto start = std::chrono::steady_clock::now();
  const OnlineRunResult out = engine.run(
      scenario.graph, scenario.schedule, scenario.placement,
      Rect{0, 0, scenario.chip_size, scenario.chip_size}, plan);
  const double wall = seconds_since(start);

  std::string ladder;
  for (const RecoveryAttempt& attempt : out.recovery.attempts) {
    if (!ladder.empty()) ladder += ">";
    ladder += to_string(attempt.action);
  }
  std::cout << "{\"bench\":\"recovery_ladder\",\"modules\":"
            << scenario.schedule.module_count()
            << ",\"faults\":" << out.recovery.faults_injected
            << ",\"cycles\":" << out.recovery.recovery_cycles
            << ",\"attempts\":\"" << ladder << "\""
            << ",\"recovered\":" << (out.recovery.recovered ? "true" : "false")
            << ",\"completed\":" << (out.recovery.completed ? "true" : "false")
            << ",\"time_lost_s\":" << out.recovery.time_lost_s
            << ",\"resumed_from_s\":" << out.recovery.resumed_from_s
            << ",\"wall_s\":" << wall
            << ",\"seed\":" << bench::kBenchSeed << "}\n";
  if (out.recovery.faults_injected != 1 || !out.recovery.completed) {
    std::cerr << "FAIL: ladder did not complete the faulted run: "
              << out.recovery.detail << "\n";
    return false;
  }
  return true;
}

// --- 3. campaigns vs the Fault Tolerance Index ------------------------

bool run_campaign_gate(bool smoke) {
  bool ok = true;
  const Scenario pcr = make_pcr();
  const Rect array = pcr.placement.bounding_box();
  const FtiResult fti = evaluate_fti(pcr.placement, {}, array);

  // (a) exhaustive: empirical survivability == the FTI, cell for cell.
  const Reconfigurator reconfig;
  const auto campaign =
      exhaustive_fault_campaign(pcr.placement, array, reconfig);
  const bool exhaustive_ok =
      campaign.total_cells == fti.total_cells &&
      campaign.survivable_cells == fti.covered_cells;
  std::cout << "{\"bench\":\"recovery_campaign\",\"mode\":\"exhaustive\""
            << ",\"cells\":" << campaign.total_cells
            << ",\"survivable_fraction\":" << campaign.survivable_fraction()
            << ",\"fti\":" << fti.fti()
            << ",\"agrees\":" << (exhaustive_ok ? "true" : "false")
            << ",\"seed\":" << bench::kBenchSeed << "}\n";
  if (!exhaustive_ok) {
    std::cerr << "FAIL: exhaustive campaign survivable fraction "
              << campaign.survivable_fraction() << " != FTI " << fti.fti()
              << "\n";
    ok = false;
  }

  // (b) seeded mid-run faults through the reconfigure-only ladder: the
  // online outcome must match the FTI's per-cell prediction.
  RecoveryOptions options;
  options.enable_reroute = false;
  options.enable_replace = false;
  const OnlineRecoveryEngine engine(options);
  Rng rng(bench::kBenchSeed);
  const int target = smoke ? 6 : 16;
  int checked = 0;
  int agreed = 0;
  for (int trial = 0; trial < 20 * target && checked < target; ++trial) {
    const Point cell = sample_uniform_fault(array, rng);
    int owner = -1;
    for (int i = 0; i < pcr.placement.module_count(); ++i) {
      if (pcr.placement.module(i).footprint().contains(cell) &&
          pcr.schedule.module(i).end_s > pcr.schedule.module(i).start_s) {
        owner = i;
        break;
      }
    }
    if (owner < 0) continue;
    ++checked;
    const ScheduledModule& sm = pcr.schedule.module(owner);
    FaultInjectionPlan plan;
    plan.faults.push_back(
        PlannedFault{cell, 0.5 * (sm.start_s + sm.end_s), -1});
    const auto out =
        engine.run(pcr.graph, pcr.schedule, pcr.placement, array, plan);
    const bool covered =
        fti.covered.at(cell.x - array.x, cell.y - array.y) != 0;
    if (out.recovery.recovered == covered) {
      ++agreed;
    } else {
      std::cerr << "FAIL: seeded fault (" << cell.x << "," << cell.y
                << "): online recovered=" << out.recovery.recovered
                << " but FTI covered=" << covered << "\n";
      ok = false;
    }
  }
  std::cout << "{\"bench\":\"recovery_campaign\",\"mode\":\"seeded\""
            << ",\"checked\":" << checked << ",\"agreed\":" << agreed
            << ",\"seed\":" << bench::kBenchSeed << "}\n";
  if (checked == 0) {
    std::cerr << "FAIL: seeded campaign sampled no module-owned cells\n";
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = dmfb::bench::smoke_flag(argc, argv);
  dmfb::bench::banner(
      smoke ? "recovery: checkpointed resume + fault campaigns (smoke)"
            : "recovery: checkpointed resume + fault campaigns");
  const Scenario random200 = make_random200();
  bool ok = true;
  if (!run_resume_gate(random200, smoke)) ok = false;
  if (!run_ladder_gate(random200)) ok = false;
  if (!run_campaign_gate(smoke)) ok = false;
  return ok ? 0 : 1;
}
