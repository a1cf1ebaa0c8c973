#include "sim/recovery.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "sim/fault.h"

namespace dmfb {

OnlineRecoveryResult simulate_online_recovery(
    const SequencingGraph& graph, const Schedule& schedule,
    const Placement& placement, Point faulty_cell, const Rect& array,
    const Reconfigurator& reconfigurator, const SimOptions& sim_options) {
  OnlineRecoveryResult result;

  Chip chip(array.right(), array.top());
  inject_fault(chip, faulty_cell);

  result.first_run =
      EventSimEngine(sim_options).run(graph, schedule, placement, chip).result;

  if (result.first_run.success) {
    // The fault never disturbed the assay (unused cell, or only routed
    // around); nothing to recover.
    result.fault_hit = false;
    result.completed = true;
    result.detail = "fault did not affect the assay";
    return result;
  }

  result.fault_hit = true;
  result.reconfiguration =
      reconfigurator.recover(placement, faulty_cell, array);
  if (!result.reconfiguration.success) {
    result.recovered = false;
    result.detail = "partial reconfiguration failed: " +
                    result.reconfiguration.failure_reason;
    return result;
  }
  result.recovered = true;

  result.second_run = EventSimEngine(sim_options)
                          .run(graph, schedule,
                               result.reconfiguration.placement, chip)
                          .result;
  result.completed = result.second_run.success;
  result.detail = result.completed
                      ? "assay completed after partial reconfiguration"
                      : "assay still failing after reconfiguration: " +
                            result.second_run.failure_reason;
  return result;
}

FaultCampaignResult exhaustive_fault_campaign(
    const Placement& placement, const Rect& array,
    const Reconfigurator& reconfigurator) {
  FaultCampaignResult result;
  result.total_cells = array.area();

  for (const Point& cell : enumerate_cells(array)) {
    // A cell unused by every module is harmless by definition (§5.2).
    bool used = false;
    for (int i = 0; i < placement.module_count() && !used; ++i) {
      used = placement.module(i).footprint().contains(cell);
    }
    if (!used) {
      ++result.survivable_cells;
      continue;
    }
    const RecoveryResult recovery =
        reconfigurator.recover(placement, cell, array);
    if (recovery.success) {
      ++result.survivable_cells;
    } else {
      result.unsurvivable.push_back(cell);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Online recovery engine
// ---------------------------------------------------------------------------

const char* to_string(RecoveryAction action) {
  switch (action) {
    case RecoveryAction::kReconfigure:
      return "reconfigure";
    case RecoveryAction::kReroute:
      return "reroute";
    case RecoveryAction::kReplace:
      return "replace";
  }
  return "?";
}

namespace {

constexpr double kEps = 1e-9;

Point footprint_center(const Rect& fp) {
  return Point{fp.x + fp.width / 2, fp.y + fp.height / 2};
}

/// Moves every placed droplet sitting inside `from` to `to` — the
/// controller drags droplets along when their module is relocated (the
/// checkpoint is the droplet inventory the resume restores).
void migrate_droplets(SimCheckpoint& ckpt, const Rect& from, Point to) {
  for (std::size_t op = 0; op < ckpt.droplet_pos.size(); ++op) {
    if (op < ckpt.droplet_placed.size() && ckpt.droplet_placed[op] == 0) {
      continue;
    }
    if (!from.contains(ckpt.droplet_pos[op])) continue;
    ckpt.droplet_pos[op] = to;
    if (auto it = ckpt.op_outputs.find(static_cast<OperationId>(op));
        it != ckpt.op_outputs.end()) {
      it->second.move_to(to);
    }
    if (op < ckpt.dispensed.size() && ckpt.dispensed[op].has_value()) {
      ckpt.dispensed[op]->move_to(to);
    }
  }
}

/// Rebuilds `placement` with `schedule`'s (possibly retimed) intervals so
/// later relocation grids and conflict pairs see the current timing.
Placement with_schedule_times(const Placement& placement,
                              const Schedule& schedule) {
  std::vector<PlacedModule> modules = placement.modules();
  for (std::size_t i = 0; i < modules.size(); ++i) {
    modules[i].start_s = schedule.module(static_cast<int>(i)).start_s;
    modules[i].end_s = schedule.module(static_cast<int>(i)).end_s;
  }
  return Placement(std::move(modules), placement.canvas_width(),
                   placement.canvas_height());
}

/// Re-runs the interrupted module from the detection instant `t`: pushes
/// the tail (start >= old end) out by the lost time, then rewrites the
/// module's own interval to [t, t + duration]. Feasibility is preserved:
/// modules overlapping the new interval all overlapped the old one, and
/// shifted successors start at or after the new end. Returns the slack
/// added (0 when the module had not started yet).
double retime_interrupted(Schedule& schedule, int index, double t) {
  const ScheduledModule& m = schedule.module(index);
  const double delta = t - m.start_s;
  if (delta <= kEps) return 0.0;
  const double duration = m.end_s - m.start_s;
  schedule.shift_from(m.end_s, delta);
  schedule.retime(index, t, t + duration);
  return delta;
}

}  // namespace

OnlineRecoveryEngine::OnlineRecoveryEngine(RecoveryOptions options)
    : options_(std::move(options)) {}

OnlineRunResult OnlineRecoveryEngine::run(const SequencingGraph& graph,
                                          const Schedule& schedule,
                                          const Placement& placement,
                                          const Rect& array,
                                          const FaultInjectionPlan& plan) const {
  using Clock = std::chrono::steady_clock;
  const auto t_begin = Clock::now();
  auto wall_s = [&t_begin] {
    return std::chrono::duration<double>(Clock::now() - t_begin).count();
  };
  auto over_deadline = [&] {
    return options_.deadline_s > 0.0 && wall_s() > options_.deadline_s;
  };

  OnlineRunResult out;
  RecoveryReport& rep = out.recovery;
  Schedule sched = schedule;
  Placement plc = placement;
  Chip chip(array.right(), array.top());
  FaultInjectionPlan pending = plan;
  EventSimEngine engine(options_.sim);
  const Reconfigurator reconfigurator(options_.fti, options_.policy);

  SimCheckpoint ckpt;  // resume point; invalid on the first pass

  // Ladder position for the *current* failure signature: a repeat of the
  // same failure escalates to the next rung, a new failure starts over.
  std::string last_key;
  int ladder = 0;

  for (;;) {
    SimCheckpoint next;
    SimEngineRun run =
        engine.run_online(graph, sched, plc, chip, pending,
                          ckpt.valid ? &ckpt : nullptr, &next);
    rep.faults_injected += static_cast<int>(run.faults_fired.size());
    for (const FiredFault& fired : run.faults_fired) {
      chip.set_faulty(fired.cell, true);
    }
    pending.faults.erase(
        pending.faults.begin(),
        pending.faults.begin() +
            static_cast<std::ptrdiff_t>(run.faults_fired.size()));

    if (run.result.success) {
      out.simulation = std::move(run.result);
      rep.completed = true;
      rep.detail = rep.recovery_cycles == 0
                       ? "completed without recovery"
                       : "completed after " +
                             std::to_string(rep.recovery_cycles) +
                             " recovery cycle(s)";
      break;
    }

    if (run.stall.stalled) rep.last_stall = run.stall;
    if (!next.valid) {
      // The engine failed without a snapshot (validation-adjacent edge);
      // degrade with whatever the run produced.
      out.simulation = std::move(run.result);
      rep.detail = "failed without checkpoint: " + out.simulation.failure_reason;
      break;
    }
    if (rep.recovery_cycles >= options_.max_cycles || over_deadline()) {
      out.simulation = std::move(run.result);
      out.last_checkpoint = std::move(next);
      rep.detail = (over_deadline() ? "recovery deadline exhausted: "
                                    : "recovery cycle budget exhausted: ") +
                   out.simulation.failure_reason;
      break;
    }

    ++rep.recovery_cycles;
    ckpt = std::move(next);
    rep.resumed_from_s = ckpt.time_s;
    rep.clean_prefix_events = ckpt.events.size();

    // A fault failure names the module sitting on the fault; a stall
    // names the module whose input transfer is walled off.
    const bool fault_failure =
        !run.stall.stalled && run.result.failed_module >= 0 &&
        chip.in_bounds(run.result.fault_cell) &&
        chip.is_faulty(run.result.fault_cell);
    const std::string key =
        run.result.failure_reason + "@" + std::to_string(ckpt.time_s);
    if (key != last_key) {
      last_key = key;
      ladder = 0;
    }

    bool repaired = false;
    std::string applied;
    while (!repaired && ladder < 3 && !over_deadline()) {
      const int rung = ladder++;
      const double attempt_begin = wall_s();
      RecoveryAttempt attempt;
      attempt.cycle = rep.recovery_cycles;

      if (rung == 0) {
        // --- reconfigure: relocate the modules touching the fault ---
        if (!options_.enable_reconfigure || !fault_failure) continue;
        attempt.action = RecoveryAction::kReconfigure;
        RecoveryResult rr =
            reconfigurator.recover(plc, chip.faulty_cells(), array);
        attempt.success = rr.success;
        if (rr.success) {
          for (const RelocationOutcome& rel : rr.relocations) {
            const Rect old_fp =
                footprint_rect(plc.module(rel.module_index).spec,
                               rel.old_anchor, rel.old_rotated);
            const Rect new_fp =
                rr.placement.module(rel.module_index).footprint();
            migrate_droplets(ckpt, old_fp, footprint_center(new_fp));
          }
          plc = std::move(rr.placement);
          rep.time_lost_s +=
              retime_interrupted(sched, run.result.failed_module, ckpt.time_s);
          plc = with_schedule_times(plc, sched);
          attempt.relocations = std::move(rr.relocations);
          attempt.detail = "relocated " +
                           std::to_string(attempt.relocations.size()) +
                           " module(s)";
          repaired = true;
        } else {
          attempt.detail = rr.failure_reason;
        }
      } else if (rung == 1) {
        // --- reroute: retime the stalled changeover past its wait chain ---
        if (!options_.enable_reroute || !run.stall.stalled ||
            run.stall.blocking_modules.empty()) {
          continue;
        }
        const double delta =
            run.stall.earliest_unblock_s - run.stall.time_s;
        if (delta <= kEps) continue;
        attempt.action = RecoveryAction::kReroute;
        sched.shift_from(run.stall.time_s, delta);
        plc = with_schedule_times(plc, sched);
        rep.time_lost_s += delta;
        attempt.success = true;
        attempt.detail = "retimed changeover by " + std::to_string(delta) +
                         "s past " +
                         std::to_string(run.stall.blocking_modules.size()) +
                         " blocker(s)";
        repaired = true;
      } else {
        // --- replace: defect-aware re-place of the residual schedule ---
        if (!options_.enable_replace) continue;
        attempt.action = RecoveryAction::kReplace;
        PlacerContext context = options_.replace_context;
        if (context.canvas_width <= 0) context.canvas_width = plc.canvas_width();
        if (context.canvas_height <= 0) {
          context.canvas_height = plc.canvas_height();
        }
        context.defects = chip.faulty_cells();
        context.initial_placement = std::make_shared<Placement>(plc);
        try {
          const std::unique_ptr<Placer> placer =
              make_placer(options_.replace_placer);
          PlacementOutcome outcome = placer->place(sched, context);
          // A penalty-based backend may still cover a fault; treat that
          // as a failed attempt instead of resuming into a known wall.
          bool clear = true;
          for (int i = 0; i < outcome.placement.module_count() && clear; ++i) {
            const Rect fp = outcome.placement.module(i).footprint();
            for (const Point& f : context.defects) {
              if (fp.contains(f)) {
                clear = false;
                break;
              }
            }
          }
          if (!clear) {
            attempt.detail = "re-place still covers a faulty cell";
          } else {
            for (int i = 0; i < plc.module_count(); ++i) {
              const Rect old_fp = plc.module(i).footprint();
              const Rect new_fp = outcome.placement.module(i).footprint();
              if (old_fp.x == new_fp.x && old_fp.y == new_fp.y &&
                  old_fp.width == new_fp.width &&
                  old_fp.height == new_fp.height) {
                continue;
              }
              migrate_droplets(ckpt, old_fp, footprint_center(new_fp));
            }
            plc = std::move(outcome.placement);
            if (fault_failure) {
              rep.time_lost_s += retime_interrupted(
                  sched, run.result.failed_module, ckpt.time_s);
            }
            plc = with_schedule_times(plc, sched);
            attempt.success = true;
            attempt.detail = "re-placed " +
                             std::to_string(plc.module_count()) +
                             " module(s) around " +
                             std::to_string(context.defects.size()) +
                             " defect(s)";
            repaired = true;
          }
        } catch (const std::exception& e) {
          attempt.detail = e.what();
        }
      }

      attempt.wall_s = wall_s() - attempt_begin;
      if (repaired) applied = to_string(attempt.action);
      rep.attempts.push_back(std::move(attempt));
    }

    if (!repaired) {
      out.simulation = std::move(run.result);
      out.last_checkpoint = std::move(ckpt);
      rep.detail = over_deadline()
                       ? "recovery deadline exhausted: " +
                             out.simulation.failure_reason
                       : "escalation ladder exhausted: " +
                             out.simulation.failure_reason;
      break;
    }

    rep.recovered = true;
    if (options_.sim.record_events) {
      // The merged log tells the whole story: clean prefix, the detected
      // failure, the repair marker, then the resumed execution.
      ckpt.events.push_back(
          SimEvent{ckpt.time_s, run.result.failure_reason});
      ckpt.events.push_back(
          SimEvent{ckpt.time_s, "recovery: " + applied + " applied"});
    }
  }

  out.final_schedule = std::move(sched);
  out.final_placement = std::move(plc);
  for (const RecoveryAttempt& attempt : rep.attempts) {
    rep.recovery_wall_s += attempt.wall_s;
  }
  return out;
}

}  // namespace dmfb
