#include "assay/pipeline.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "biochip/chip.h"
#include "sim/router_backend.h"
#include "sim/sim_engine.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace dmfb {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

const char* to_string(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kBind:
      return "bind";
    case PipelineStage::kSchedule:
      return "schedule";
    case PipelineStage::kPlace:
      return "place";
    case PipelineStage::kRoute:
      return "route";
    case PipelineStage::kSimulate:
      return "simulate";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, PipelineStage stage) {
  return os << to_string(stage);
}

std::vector<std::uint64_t> derive_item_seeds(std::uint64_t master_seed,
                                             std::size_t count) {
  // One SplitMix64 walk from the master seed, consumed in item order —
  // independent of the order workers pick items up. Changing this
  // derivation would silently fork every recorded batch fingerprint;
  // it is pinned by tests.
  std::vector<std::uint64_t> seeds(count);
  SplitMix64 splitter(master_seed);
  for (auto& seed : seeds) seed = splitter.next();
  return seeds;
}

double PipelineResult::total_wall_seconds() const {
  double total = 0.0;
  for (const auto& timing : stage_times) total += timing.wall_seconds;
  return total;
}

double PipelineResult::stage_seconds(PipelineStage stage) const {
  double total = 0.0;
  for (const auto& timing : stage_times) {
    if (timing.stage == stage) total += timing.wall_seconds;
  }
  return total;
}

SynthesisPipeline::SynthesisPipeline(PipelineOptions options)
    : options_(std::move(options)) {}

PipelineResult SynthesisPipeline::run(const SequencingGraph& graph,
                                      const ModuleLibrary& library) const {
  const auto start = Clock::now();
  Binding binding = bind_operations(graph, library, options_.binding_policy);
  return run_bound(graph, std::move(binding), options_.scheduler,
                   seconds_since(start), options_.seed);
}

PipelineResult SynthesisPipeline::run(const SequencingGraph& graph,
                                      const Binding& binding) const {
  return run_bound(graph, binding, options_.scheduler, 0.0, options_.seed);
}

PipelineResult SynthesisPipeline::run(const AssayCase& assay) const {
  PipelineResult result = run_bound(assay.graph, assay.binding,
                                    assay.scheduler_options, 0.0,
                                    options_.seed);
  if (!assay.name.empty()) result.assay_name = assay.name;
  return result;
}

PipelineResult SynthesisPipeline::run_bound(const SequencingGraph& graph,
                                            Binding binding,
                                            const SchedulerOptions& scheduler,
                                            double bind_seconds,
                                            std::uint64_t seed) const {
  PipelineResult result;
  result.assay_name = graph.name();
  result.seed = seed;
  result.binding = std::move(binding);

  const auto record = [&](PipelineStage stage, double wall_seconds,
                          const std::string& detail) {
    result.stage_times.push_back(StageTiming{stage, wall_seconds});
    if (options_.observer) options_.observer(stage, wall_seconds, detail);
  };

  {
    std::ostringstream detail;
    detail << result.binding.size() << " operations bound";
    record(PipelineStage::kBind, bind_seconds, detail.str());
  }

  // Schedule: resource-constrained list scheduling.
  {
    const auto start = Clock::now();
    result.schedule = list_schedule(graph, result.binding, scheduler);
    result.makespan_s = result.schedule.makespan_s();
    // Until routing measures transport, the best chip-time estimate is
    // the instantaneous-changeover makespan; routed rounds overwrite it.
    result.transport_makespan_s = result.makespan_s;
    result.peak_concurrent_cells = result.schedule.peak_concurrent_cells();
    std::ostringstream detail;
    detail << result.schedule.module_count() << " modules, makespan "
           << result.makespan_s << " s";
    record(PipelineStage::kSchedule, seconds_since(start), detail.str());
  }

  // Synthesis-only runs stop here; the downstream stages all consume the
  // placement.
  if (!options_.place) return result;

  // The closed loop engages when measured route costs can actually flow
  // backward; the routing-pressure term alone (gamma != 0) only needs the
  // static demand links.
  const bool closed_loop =
      options_.feedback_rounds > 0 && options_.plan_droplet_routes;
  // Measured route costs can only flow into the objective through the
  // gamma term; without it, feedback rounds degrade to seed-diverse
  // multi-start (still best-round-wins) and links are never needed.
  const bool use_links = options_.placer_context.weights.gamma != 0.0;
  std::vector<RouteLink> links;
  if (use_links) links = routing::extract_links(graph, result.schedule);
  // The service's cross-request ledger, when present, replaces the
  // demand-only weights for round 0; this run's own feedback rounds still
  // reweight from the fresh demand links.
  const std::vector<RouteLink>& round0_links =
      (use_links && !options_.warm_links.empty()) ? options_.warm_links
                                                  : links;

  // One synthesis round: place (+ FTI), then route. Rounds differ only in
  // seed and link weights; round 0 with the master seed and demand-only
  // links reproduces the classic feed-forward flow exactly.
  struct Round {
    PlacementOutcome placement;
    FtiResult fti;
    RoutePlan routes;
    Schedule transported;
    double transport_makespan_s = 0.0;
    int chip_width = 0;
    int chip_height = 0;
  };

  const auto run_round = [&](int round, std::uint64_t round_seed,
                             const std::vector<RouteLink>& round_links) {
    Round r;
    const std::string prefix =
        closed_loop ? "round " + std::to_string(round) + ": " : "";
    {
      const auto start = Clock::now();
      const std::unique_ptr<Placer> placer = make_placer(options_.placer);
      PlacerContext context = options_.placer_context;
      context.seed = round_seed;
      if (use_links) context.route_links = round_links;
      if (options_.initial_placement) {
        context.initial_placement = options_.initial_placement;
      }
      r.placement = placer->place(result.schedule, context);
      if (options_.evaluate_fault_tolerance) {
        r.fti = evaluate_fti(r.placement.placement, context.fti_options);
      }
      std::ostringstream detail;
      detail << prefix << placer->name() << ": "
             << r.placement.cost.area_cells << " cells";
      if (options_.evaluate_fault_tolerance) {
        detail << ", FTI " << r.fti.fti();
      }
      record(PipelineStage::kPlace, seconds_since(start), detail.str());
    }

    const Rect box = r.placement.placement.bounding_box();
    r.chip_width =
        options_.chip_width > 0
            ? options_.chip_width
            : std::max(r.placement.placement.canvas_width(), box.right());
    r.chip_height =
        options_.chip_height > 0
            ? options_.chip_height
            : std::max(r.placement.placement.canvas_height(), box.top());

    // Route: concurrent droplet routing at configuration changeovers,
    // through the pluggable backend resolved from the registry.
    r.transport_makespan_s = result.makespan_s;
    if (options_.plan_droplet_routes) {
      const auto start = Clock::now();
      const std::unique_ptr<Router> router = make_router(options_.router);
      RoutePlannerOptions routing = options_.routing;
      routing.seed = round_seed;
      r.routes =
          router->plan(graph, result.schedule, r.placement.placement,
                       r.chip_width, r.chip_height, routing);
      std::ostringstream detail;
      detail << prefix << router->name() << ": ";
      if (r.routes.success) {
        r.transported = fold_transport(result.schedule, r.routes);
        r.transport_makespan_s = r.transported.makespan_s();
        detail << r.routes.changeovers.size() << " changeovers, "
               << r.routes.total_steps << " droplet steps ("
               << r.routes.total_moved_cells
               << " cells moved), transport-incl. makespan "
               << r.transport_makespan_s << " s";
      } else {
        detail << "routing failed: " << r.routes.failure_reason;
      }
      record(PipelineStage::kRoute, seconds_since(start), detail.str());
    }
    return r;
  };

  // Rounds anneal against differently-weighted links (demand-only in
  // round 0, measured-steps-inflated afterwards), so their cost.value's
  // gamma terms are not comparable; strip the term for cross-round
  // comparison and reporting.
  const double gamma = options_.placer_context.weights.gamma;
  const auto comparable_cost = [gamma](const Round& r) {
    return r.placement.cost.value -
           gamma * static_cast<double>(r.placement.cost.route_pressure);
  };

  // Best round wins: routed plans beat unrouted ones, then the lower
  // transport-inclusive makespan, then the lower (gamma-term-free)
  // placement cost — so the closed loop never hands back something worse
  // than round 0.
  const auto better = [&](const Round& a, const Round& b) {
    if (a.routes.success != b.routes.success) return a.routes.success;
    if (a.transport_makespan_s != b.transport_makespan_s) {
      return a.transport_makespan_s < b.transport_makespan_s;
    }
    return comparable_cost(a) < comparable_cost(b);
  };
  const auto history_of = [&](int round, std::uint64_t round_seed,
                              const Round& r) {
    return FeedbackRoundResult{round, round_seed, r.routes.success,
                               r.transport_makespan_s, comparable_cost(r)};
  };

  // Deadline budget: once the best round routed at or under the caller's
  // deadline, further feedback rounds buy nothing the caller asked for.
  // deadline_s <= 0 never satisfies this, leaving the loop untouched.
  const auto deadline_met = [&](const Round& r) {
    return options_.deadline_s > 0.0 && r.routes.success &&
           r.transport_makespan_s <= options_.deadline_s;
  };

  Round best = run_round(0, seed, round0_links);
  if (closed_loop) {
    result.feedback_history.push_back(history_of(0, seed, best));
    // Round seeds split off the master seed (run_many items already get
    // distinct `seed`s, so batches stay reproducible from one number).
    SplitMix64 round_seeds(seed ^ 0xFEEDBAC4C105EDULL);
    Round previous = best;  // feedback reads the latest round's measurements
    for (int round = 1;
         round <= options_.feedback_rounds && !deadline_met(best); ++round) {
      const std::vector<RouteLink> weighted =
          use_links ? routing::reweight_links(links, previous.routes)
                    : std::vector<RouteLink>{};
      const std::uint64_t round_seed = round_seeds.next();
      Round next = run_round(round, round_seed, weighted);
      result.feedback_history.push_back(history_of(round, round_seed, next));

      // A placement fixed point means further rounds would only re-anneal
      // the same problem; stop early.
      bool converged =
          next.placement.placement.module_count() ==
          previous.placement.placement.module_count();
      for (int i = 0;
           converged && i < next.placement.placement.module_count(); ++i) {
        const auto& a = next.placement.placement.module(i);
        const auto& b = previous.placement.placement.module(i);
        converged = a.anchor == b.anchor && a.rotated == b.rotated;
      }

      if (better(next, best)) {
        best = next;
        result.selected_round = round;
      }
      previous = std::move(next);
      if (converged) break;
    }
  }

  result.placement = std::move(best.placement);
  result.fti = std::move(best.fti);
  result.routes = std::move(best.routes);
  result.transported_schedule = std::move(best.transported);
  result.transport_makespan_s = best.transport_makespan_s;
  const int chip_width = best.chip_width;
  const int chip_height = best.chip_height;

  // Simulate: droplet-level execution on a virtual chip. The engine's
  // telemetry and stall diagnosis reach the stage observer.
  if (options_.simulate && !options_.fault_plan.faults.empty()) {
    // Online fault recovery: drive the event engine through the
    // OnlineRecoveryEngine so planned faults fire mid-run and detected
    // failures escalate the reconfigure -> reroute -> replace ladder.
    const auto start = Clock::now();
    RecoveryOptions recovery = options_.recovery;
    recovery.sim = options_.simulation;
    recovery.replace_context = options_.placer_context;
    recovery.replace_context.seed = seed;
    const OnlineRecoveryEngine engine(recovery);
    OnlineRunResult online =
        engine.run(graph, result.schedule, result.placement.placement,
                   Rect{0, 0, chip_width, chip_height}, options_.fault_plan);
    result.simulation = std::move(online.simulation);
    result.recovery = std::move(online.recovery);
    std::ostringstream detail;
    if (result.simulation.success) {
      detail << "completed in " << result.simulation.makespan_s << " s, "
             << result.simulation.routes_planned << " routes";
    } else {
      detail << "simulation failed: " << result.simulation.failure_reason;
    }
    const RecoveryReport& rep = result.recovery;
    detail << "; recovery: faults=" << rep.faults_injected
           << " cycles=" << rep.recovery_cycles
           << " recovered=" << (rep.recovered ? "yes" : "no")
           << " completed=" << (rep.completed ? "yes" : "no")
           << " time-lost=" << rep.time_lost_s << "s"
           << " resumed-from=" << rep.resumed_from_s << "s";
    if (!rep.detail.empty()) detail << " (" << rep.detail << ")";
    record(PipelineStage::kSimulate, seconds_since(start), detail.str());
  } else if (options_.simulate) {
    const auto start = Clock::now();
    const Chip chip(chip_width, chip_height);
    std::ostringstream detail;
    EventSimEngine engine(options_.simulation);
    SimEngineRun run =
        engine.run(graph, result.schedule, result.placement.placement, chip);
    result.simulation = std::move(run.result);
    if (result.simulation.success) {
      detail << "completed in " << result.simulation.makespan_s << " s, "
             << result.simulation.routes_planned << " routes";
    } else {
      detail << "simulation failed: " << result.simulation.failure_reason;
      if (run.stall.stalled) detail << " [" << run.stall.chain << "]";
    }
    const SimEngineTelemetry& t = run.telemetry;
    detail << "; events=" << t.events_dispatched
           << " route-avg=" << t.route_cost.average() * 1e6 << "us"
           << " route-max=" << t.route_cost.max * 1e6 << "us"
           << " fast-paths=" << t.manhattan_fast_paths
           << " grid-reuses=" << t.blocked_grid_reuses;
    record(PipelineStage::kSimulate, seconds_since(start), detail.str());
  }

  return result;
}

std::vector<PipelineResult> SynthesisPipeline::run_indexed(
    std::size_t count,
    const std::function<PipelineResult(std::size_t, std::uint64_t)>& one)
    const {
  std::vector<PipelineResult> results(count);
  if (count == 0) return results;

  const std::vector<std::uint64_t> seeds =
      derive_item_seeds(options_.seed, count);

  const auto errors = detail::for_each_index(
      count, options_.threads,
      [&](std::size_t index) { results[index] = one(index, seeds[index]); });
  // Batch error semantics: a failed item marks its own entry instead of
  // rethrowing and discarding the other items' finished work.
  for (std::size_t index = 0; index < count; ++index) {
    if (!errors[index]) continue;
    results[index] = PipelineResult{};
    results[index].seed = seeds[index];
    results[index].ok = false;
    try {
      std::rethrow_exception(errors[index]);
    } catch (const std::exception& error) {
      results[index].error = error.what();
    } catch (...) {
      results[index].error = "unknown error";
    }
  }
  return results;
}

std::vector<PipelineResult> SynthesisPipeline::run_many(
    std::span<const SequencingGraph> graphs,
    const ModuleLibrary& library) const {
  return run_indexed(graphs.size(), [&](std::size_t index,
                                        std::uint64_t seed) {
    const auto start = Clock::now();
    Binding binding =
        bind_operations(graphs[index], library, options_.binding_policy);
    return run_bound(graphs[index], std::move(binding), options_.scheduler,
                     seconds_since(start), seed);
  });
}

std::vector<PipelineResult> SynthesisPipeline::run_many(
    std::span<const AssayCase> assays) const {
  return run_indexed(assays.size(), [&](std::size_t index,
                                        std::uint64_t seed) {
    const AssayCase& assay = assays[index];
    PipelineResult result = run_bound(assay.graph, assay.binding,
                                      assay.scheduler_options, 0.0, seed);
    if (!assay.name.empty()) result.assay_name = assay.name;
    return result;
  });
}

}  // namespace dmfb
