#include "compile.h"

#include <algorithm>

#include "core/fti.h"
#include "sim/route_planner.h"

namespace perfbench {

std::string check_placement(const dmfb::Placement& placement,
                            const std::vector<dmfb::Point>& defects) {
  if (!placement.feasible()) return "placement overlaps or leaves its canvas";
  for (const dmfb::PlacedModule& module : placement.modules()) {
    const dmfb::Rect footprint = module.footprint();
    for (const dmfb::Point& defect : defects) {
      if (footprint.contains(defect)) {
        return "module " + module.label + " sits on a defect";
      }
    }
  }
  return {};
}

namespace {

/// Whether every separation violation in `plan` involves a droplet that
/// already sits parked at its target. That is the signature of a known
/// router defect: route_transfer (sim/route_planner.cpp) stops its search
/// when the droplet reaches its target and never checks the parked
/// droplet against the later steps of droplets routed before it, so an
/// earlier droplet may still pass next to it.
bool only_parking_violations(const dmfb::ChangeoverPlan& plan,
                             int separation) {
  bool any = false;
  for (std::size_t i = 0; i < plan.routes.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.routes.size(); ++j) {
      const dmfb::TimedRoute& a = plan.routes[i];
      const dmfb::TimedRoute& b = plan.routes[j];
      if (a.request.to == b.request.to) continue;  // merging pair
      for (int step = 0; step <= plan.makespan_steps; ++step) {
        if (!dmfb::routing::pair_violates_at(a, b, step, separation)) continue;
        const auto arrived = [step](const dmfb::TimedRoute& route) {
          return step >= static_cast<int>(route.positions.size()) - 1;
        };
        if (!arrived(a) && !arrived(b)) return false;
        any = true;
      }
    }
  }
  return any;
}

}  // namespace

std::string check_compile(const dmfb::AssayCase& assay,
                          const dmfb::PipelineOptions& options,
                          const dmfb::PipelineResult& result,
                          bool* known_defect) {
  if (!result.ok) return "compile failed: " + result.error;
  const auto violations = result.schedule.validate_against(assay.graph);
  if (!violations.empty()) return "schedule: " + violations.front();

  const dmfb::Placement& placement = result.placement.placement;
  if (placement.module_count() != result.schedule.module_count()) {
    return "placement does not cover the schedule";
  }
  if (std::string problem =
          check_placement(placement, options.placer_context.defects);
      !problem.empty()) {
    return problem;
  }
  if (result.placement.cost.area_cells != placement.bounding_box_cells()) {
    return "reported area differs from the placement's bounding box";
  }
  if (options.evaluate_fault_tolerance) {
    const dmfb::FtiResult fti =
        dmfb::evaluate_fti(placement, options.placer_context.fti_options);
    if (fti.covered_cells != result.fti.covered_cells ||
        fti.total_cells != result.fti.total_cells) {
      return "reported FTI differs from evaluate_fti";
    }
  }

  if (options.plan_droplet_routes && result.routes.success) {
    // The pipeline's chip: the placement canvas grown to the bounding box.
    const dmfb::Rect box = placement.bounding_box();
    const int width = options.chip_width > 0
                          ? options.chip_width
                          : std::max(placement.canvas_width(), box.right());
    const int height = options.chip_height > 0
                           ? options.chip_height
                           : std::max(placement.canvas_height(), box.top());
    const auto problems = dmfb::routing::extract_problems(
        assay.graph, result.schedule, placement, width, height);
    if (problems.size() != result.routes.changeovers.size()) {
      return "route plan misses changeovers";
    }
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const dmfb::ChangeoverPlan& changeover = result.routes.changeovers[i];
      const auto bad = dmfb::validate_changeover(
          changeover, problems[i].blocked, options.routing);
      if (!bad.empty()) {
        if (known_defect) {
          *known_defect = only_parking_violations(
              changeover, options.routing.separation_cells);
        }
        return "changeover: " + bad.front();
      }
    }
  }
  return {};
}

Quality compile_quality(const dmfb::PipelineResult& result) {
  Quality q;
  q.area_cells = static_cast<double>(result.placement.cost.area_cells);
  q.fti = result.fti.fti();
  q.transport_makespan_s = result.transport_makespan_s;
  q.routed = result.routes.success;
  q.completed = result.simulation.success;
  // Simulated seconds the routed changeovers add to the schedule.
  q.time_lost_s = result.transport_makespan_s - result.schedule.makespan_s();
  return q;
}

std::uint64_t compile_digest(const dmfb::PipelineResult& result) {
  Digest d;
  d.mix(static_cast<long long>(quality_digest(compile_quality(result))));
  for (const dmfb::PlacedModule& m : result.placement.placement.modules()) {
    d.mix(static_cast<long long>(m.anchor.x))
        .mix(static_cast<long long>(m.anchor.y))
        .mix(static_cast<long long>(m.rotated));
  }
  d.mix(result.placement.stats.proposals).mix(result.placement.stats.accepted);
  d.mix(result.routes.total_steps).mix(result.routes.negotiation_rounds);
  d.mix(result.simulation.makespan_s);
  return d.value();
}

void add_compile_counts(const dmfb::PipelineResult& result, Item& item) {
  item.counts["core.proposals"] +=
      static_cast<double>(result.placement.stats.proposals);
  item.counts["core.accepted"] +=
      static_cast<double>(result.placement.stats.accepted);
  item.counts["sim.route_steps"] +=
      static_cast<double>(result.routes.total_steps);
  item.counts["sim.negotiation_rounds"] +=
      static_cast<double>(result.routes.negotiation_rounds);
}

Item run_compile(const dmfb::AssayCase& assay,
                 const dmfb::PipelineOptions& options, Tracer* tracer,
                 int span) {
  dmfb::PipelineOptions run_options = options;
  if (tracer) run_options.observer = tracer->stage_observer(span, span);
  Item item;
  const auto start = Clock::now();
  const dmfb::PipelineResult result =
      dmfb::SynthesisPipeline(run_options).run(assay);
  item.wall_s = seconds_between(start, Clock::now());
  if (tracer) tracer->close(span);

  item.problem = check_compile(assay, options, result, &item.known_defect);
  item.ok = item.problem.empty();
  item.quality = compile_quality(result);
  item.digest = compile_digest(result);
  add_compile_counts(result, item);
  return item;
}

Phase CompileCorpus::measure(double seconds, bool traced) {
  return closed_loop(items_.size(), seconds, traced,
                     [this](std::size_t slot, Tracer* tracer, int span) {
                       return run_compile(items_[slot].assay,
                                          items_[slot].options, tracer, span);
                     });
}

}  // namespace perfbench
