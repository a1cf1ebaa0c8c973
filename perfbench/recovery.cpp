// recovery — seeded mid-run fault plans through OnlineRecoveryEngine::run.
//
// Why this workload: simulation is under 0.5% of every other workload,
// so this is the only home of EventSimEngine::run_online and of the
// reconfigure -> reroute -> replace ladder. The run_online passes (the
// first run and every resume) and the repair attempts share the time.
//
// Set-up compiles 192 designs with the greedy placer: 48 small ones
// (PCR, a 2x2 diagnostics panel and a 2-level dilution, in turn) and 144
// random_assay draws of 40 to 75 mixes. Each design runs on an array the
// size of its placement's bounding box, as the paper's FTI assumes, so
// spare cells are only those the placement leaves free. A pass is 3840
// fault plans over those designs, 1 to 3 faults each (in turn). Every
// fault strikes a cell of a module while that module runs in the nominal
// schedule.
//   - Four plans in five strike only cells the FTI covers: a
//     reconfiguration saves them (item_ms_p50 reads this path).
//   - Every fifth plan opens, on a random design, with a fault that the
//     reconfigure rung's own repair cannot survive, so the ladder
//     escalates to the replace rung (the tail item_ms_p90 reads). A fixed
//     share keeps a pass's cost steady across seeds.
// The replace rung uses the greedy placer, which is defect-aware; with
// "sa" one anneal would outweigh everything else here, and the anneal
// has its own home in ft_compile. The engine runs without a host-wall
// deadline, so which rung fires never depends on the machine's speed.
// One client, one thread.
#include <algorithm>
#include <cmath>

#include "assay/random_assay.h"
#include "compile.h"
#include "core/fti.h"
#include "sim/recovery.h"

namespace perfbench {
namespace {

constexpr int kDesigns = 192;
constexpr int kSmallDesigns = 48;  // the rest are random_assay draws
constexpr int kPlans = 3840;
constexpr int kCanvas = 20;  // the greedy placer's canvas at set-up

struct Design {
  dmfb::SequencingGraph graph;
  dmfb::Schedule schedule;
  dmfb::Placement placement;  ///< on a canvas the size of the array
  dmfb::Rect array;           ///< the fabricated array: the bounding box
  /// FTI coverage over the array: 1 where a faulty cell is survivable by
  /// reconfiguration alone.
  dmfb::Matrix<std::uint8_t> covered;
};

struct Plan {
  std::size_t design = 0;
  dmfb::FaultInjectionPlan faults;
};

class Recovery final : public Workload {
 public:
  Recovery() {
    options_.deadline_s = 0.0;  // unlimited: the ladder is machine-independent
    // Canvas 0 x 0: the replace rung re-places inside the failing
    // placement's canvas, which is the array.
    options_.replace_context.canvas_width = 0;
    options_.replace_context.canvas_height = 0;
    options_.replace_placer = "greedy";
  }

  void setup(std::uint64_t seed) override {
    const dmfb::ModuleLibrary library = dmfb::ModuleLibrary::standard();
    SeedStream rng(seed ^ 0x2EC0BE2700000003ULL);
    designs_.clear();
    plans_.clear();
    fti_.assign(kPlans, std::nan(""));
    for (int i = 0; i < kDesigns; ++i) {
      dmfb::AssayCase assay;
      if (i < kSmallDesigns) {
        assay = i % 3 == 0   ? dmfb::pcr_mixing_assay()
                : i % 3 == 1 ? dmfb::multiplexed_diagnostics_assay(2, 2, library)
                             : dmfb::protein_dilution_assay(2, library);
      } else {
        dmfb::RandomAssayParams params;
        params.mix_operations = 40 + (i - kSmallDesigns) % 36;  // 40..75
        params.max_layer_width = 6;
        params.max_concurrent_modules = 6;
        assay = dmfb::random_assay(params, library, rng.next());
      }
      dmfb::PipelineOptions options;
      options.placer = "greedy";
      options.placer_context.canvas_width = kCanvas;
      options.placer_context.canvas_height = kCanvas;
      options.plan_droplet_routes = false;
      options.evaluate_fault_tolerance = false;
      options.seed = rng.next();
      dmfb::PipelineResult result = dmfb::SynthesisPipeline(options).run(assay);
      // Fabricate the array the design needs: spare cells exist only
      // where the placement's bounding box leaves them.
      const dmfb::Placement& placed = result.placement.placement;
      const dmfb::Rect box = placed.bounding_box();
      const dmfb::Rect array{0, 0, box.right(), box.top()};
      dmfb::Placement placement(result.schedule, array.width, array.height);
      for (int m = 0; m < placed.module_count(); ++m) {
        placement.set_position(m, placed.module(m).anchor,
                               placed.module(m).rotated);
      }
      dmfb::Matrix<std::uint8_t> covered =
          dmfb::evaluate_fti(placement, {}, array).covered;
      designs_.push_back(Design{std::move(assay.graph),
                                std::move(result.schedule),
                                std::move(placement), array,
                                std::move(covered)});
    }

    const dmfb::Reconfigurator reconfigurator(options_.fti, options_.policy);
    for (int p = 0; p < kPlans; ++p) {
      const bool escalates = p % 5 == 0;
      Plan plan;
      // Escalating plans run on the random designs, whose arrays always
      // hold uncovered cells; the others cycle through every design.
      plan.design = static_cast<std::size_t>(
          escalates ? kSmallDesigns + (p / 5) % (kDesigns - kSmallDesigns)
                    : p % kDesigns);
      const Design& design = designs_[plan.design];
      // Later faults of a plan strike modules still running after the
      // one before fires.
      const int faults = 1 + p % 3;
      double after = 0.0;
      for (int f = 0; f < faults; ++f) {
        const bool want_covered = !(escalates && f == 0);
        std::vector<std::pair<int, dmfb::Point>> candidates, others;
        for (int m = 0; m < design.schedule.module_count(); ++m) {
          const dmfb::ScheduledModule& sm = design.schedule.module(m);
          // Only modules with a run left to interrupt.
          if (sm.end_s <= std::max(sm.start_s, after)) continue;
          const dmfb::Rect box = design.placement.module(m).footprint();
          for (int x = box.x; x < box.right(); ++x) {
            for (int y = box.y; y < box.top(); ++y) {
              ((design.covered.at(x, y) != 0) == want_covered ? candidates
                                                               : others)
                  .emplace_back(m, dmfb::Point{x, y});
            }
          }
        }
        // A design whose every cell has the other status takes one of those.
        if (candidates.empty()) candidates = std::move(others);
        if (candidates.empty()) break;  // nothing runs after the last fault
        std::pair<int, dmfb::Point> pick =
            candidates[rng.below(candidates.size())];
        // The escalating fault fires first, on the nominal placement: keep
        // drawing until the reconfigure rung's own repair fails there.
        for (int tries = 0; !want_covered && tries < 256; ++tries) {
          if (!reconfigurator.recover(design.placement, {pick.second},
                                      design.array)
                   .success) {
            break;
          }
          pick = candidates[rng.below(candidates.size())];
        }
        const auto [m, cell] = pick;
        const dmfb::ScheduledModule& sm = design.schedule.module(m);
        const double from = std::max(sm.start_s, after);
        after = from + (0.2 + 0.6 * rng.unit()) * (sm.end_s - from);
        plan.faults.faults.push_back(dmfb::PlannedFault{cell, after, -1});
      }
      std::sort(plan.faults.faults.begin(), plan.faults.faults.end(),
                [](const dmfb::PlannedFault& a, const dmfb::PlannedFault& b) {
                  return a.time_s < b.time_s;
                });
      plans_.push_back(std::move(plan));
    }
    rng.shuffle(plans_);
  }

  Phase measure(double seconds, bool traced) override {
    const dmfb::OnlineRecoveryEngine engine(options_);
    return closed_loop(
        plans_.size(), seconds, traced,
        [&](std::size_t slot, Tracer* tracer, int span) {
          const Plan& plan = plans_[slot];
          const Design& design = designs_[plan.design];
          Item item;
          const auto start = Clock::now();
          const dmfb::OnlineRunResult run = engine.run(
              design.graph, design.schedule, design.placement, design.array,
              plan.faults);
          item.wall_s = seconds_between(start, Clock::now());
          const dmfb::RecoveryReport& report = run.recovery;
          if (tracer) {
            tracer->close(span);
            // The span around run() splits into the repair attempts (their
            // own wall_s; RecoveryReport::recovery_wall_s is the whole
            // run's) and the run_online passes around them.
            double repair = 0.0;
            for (const dmfb::RecoveryAttempt& attempt : report.attempts) {
              repair += attempt.wall_s;
            }
            const int recovery = tracer->add_finished(
                "sim.recovery", span, span, item.wall_s);
            tracer->add_finished("sim.recovery.repair", recovery, span, repair);
            tracer->add_finished("sim.recovery.resume", recovery, span,
                                 item.wall_s - repair);
          }
          check(design, plan, run, item);
          // The FTI is a function of the final placement, which the digest
          // covers: evaluate it once per slot, not on every repeat.
          if (std::isnan(fti_[slot])) {
            fti_[slot] = dmfb::evaluate_fti(run.final_placement).fti();
          }
          item.quality.fti = fti_[slot];
          return item;
        });
  }

 private:
  static void check(const Design& design, const Plan& plan,
                    const dmfb::OnlineRunResult& run, Item& item) {
    const dmfb::RecoveryReport& report = run.recovery;
    const int fired = report.faults_injected;
    if (fired < 1 ||
        fired > static_cast<int>(plan.faults.faults.size())) {
      item.problem = "planned faults did not fire";
    } else if (report.completed != run.simulation.success) {
      item.problem = "report and simulation disagree on completion";
    } else if (const auto bad =
                   run.final_schedule.validate_against(design.graph);
               !bad.empty()) {
      item.problem = "schedule: " + bad.front();
    } else if (report.completed && !run.final_placement.feasible()) {
      // Only a completed run claims a working design; a degraded run
      // hands back the state at its last failure.
      item.problem = "final placement overlaps or leaves its canvas";
    }
    item.ok = item.problem.empty();

    Quality& q = item.quality;
    q.area_cells = static_cast<double>(run.final_placement.bounding_box_cells());
    q.transport_makespan_s = run.simulation.makespan_s;
    q.routed = run.simulation.success;
    q.completed = report.completed;
    q.time_lost_s = report.time_lost_s;

    item.counts["sim.recovery.faults_fired"] = fired;
    item.counts["sim.recovery.cycles"] = report.recovery_cycles;
    for (const dmfb::RecoveryAttempt& attempt : report.attempts) {
      item.counts[std::string("sim.recovery.") +
                  dmfb::to_string(attempt.action)] += 1;
    }

    Digest d;
    d.mix(static_cast<long long>(quality_digest(q)));
    d.mix(static_cast<long long>(report.recovery_cycles));
    for (const dmfb::RecoveryAttempt& attempt : report.attempts) {
      d.mix(static_cast<long long>(attempt.action))
          .mix(static_cast<long long>(attempt.success));
    }
    for (const dmfb::PlacedModule& m : run.final_placement.modules()) {
      d.mix(static_cast<long long>(m.anchor.x))
          .mix(static_cast<long long>(m.anchor.y));
    }
    item.digest = d.value();
  }

  dmfb::RecoveryOptions options_;
  std::vector<Design> designs_;
  std::vector<Plan> plans_;
  std::vector<double> fti_;  ///< final-placement FTI per slot, once known
};

}  // namespace

std::unique_ptr<Workload> make_recovery() {
  return std::make_unique<Recovery>();
}

}  // namespace perfbench
