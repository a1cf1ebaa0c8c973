#include "core/placer.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/greedy_placer.h"
#include "core/kamer_placer.h"
#include "util/rng.h"

namespace dmfb {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Cost breakdown of a finished (non-annealed) placement, so every backend
/// reports through the same PlacementOutcome fields.
CostBreakdown evaluate_outcome_cost(const Placement& placement,
                                    const PlacerContext& context) {
  CostEvaluator evaluator(context.weights, context.fti_options);
  evaluator.set_defects(context.defects);
  evaluator.set_route_links(context.route_links);
  return evaluator.evaluate(placement);
}

void reject_defects(const PlacerContext& context, const char* name) {
  if (!context.defects.empty()) {
    throw std::invalid_argument(std::string("placer '") + name +
                                "' does not support defect maps; use \"sa\","
                                " \"greedy\" or \"two-stage\"");
  }
}

/// Transfers module poses from a warm-start placement onto `seeded` (built
/// from the *current* schedule) and validates the result. Returns false —
/// leaving the caller to fall back to a greedy initial — when the counts
/// differ or the transferred poses are infeasible or touch a defect.
bool seed_from_warm_start(Placement& seeded, const Placement& warm,
                          const PlacerContext& context) {
  if (warm.module_count() != seeded.module_count()) return false;
  for (int i = 0; i < seeded.module_count(); ++i) {
    seeded.set_position(i, warm.module(i).anchor, warm.module(i).rotated);
  }
  if (!seeded.feasible()) return false;
  if (!context.defects.empty()) {
    CostEvaluator evaluator(context.weights, context.fti_options);
    evaluator.set_defects(context.defects);
    if (evaluator.defect_usage(seeded) != 0) return false;
  }
  return true;
}

/// Anneals from the warm start when it is compatible, else from a greedy
/// constructive initial placement.
class SaPlacer final : public Placer {
 public:
  std::string name() const override { return "sa"; }

  PlacementOutcome place(const Schedule& schedule,
                         const PlacerContext& context) const override {
    if (context.initial_placement) {
      Placement seeded(schedule, context.canvas_width, context.canvas_height);
      if (seed_from_warm_start(seeded, *context.initial_placement, context)) {
        return anneal_from(seeded, context);
      }
    }
    return anneal_from(place_greedy(schedule, context.canvas_width,
                                    context.canvas_height, context.defects),
                       context);
  }
};

class GreedyPlacer final : public Placer {
 public:
  std::string name() const override { return "greedy"; }

  PlacementOutcome place(const Schedule& schedule,
                         const PlacerContext& context) const override {
    const auto start = Clock::now();
    PlacementOutcome outcome;
    outcome.placement = place_greedy(schedule, context.canvas_width,
                                     context.canvas_height, context.defects);
    outcome.cost = evaluate_outcome_cost(outcome.placement, context);
    outcome.wall_seconds = seconds_since(start);
    return outcome;
  }
};

class KamerPlacer final : public Placer {
 public:
  std::string name() const override { return "kamer"; }

  PlacementOutcome place(const Schedule& schedule,
                         const PlacerContext& context) const override {
    reject_defects(context, "kamer");
    const auto start = Clock::now();
    // KAMER places onto a fixed array; honour the canvas as that array.
    const KamerResult result =
        place_kamer(schedule, context.canvas_width, context.canvas_height,
                    context.kamer_policy, context.allow_rotation);
    if (!result.success) {
      throw std::runtime_error("kamer placement failed: " +
                               result.failure_reason);
    }
    PlacementOutcome outcome;
    outcome.placement = result.placement;
    outcome.cost = evaluate_outcome_cost(outcome.placement, context);
    outcome.wall_seconds = seconds_since(start);
    return outcome;
  }
};

class ExactPlacer final : public Placer {
 public:
  std::string name() const override { return "optimal"; }

  PlacementOutcome place(const Schedule& schedule,
                         const PlacerContext& context) const override {
    reject_defects(context, "optimal");
    const auto start = Clock::now();
    const OptimalResult result = place_optimal(schedule, context.optimal);
    PlacementOutcome outcome;
    outcome.placement = result.placement;
    outcome.cost = evaluate_outcome_cost(outcome.placement, context);
    outcome.wall_seconds = seconds_since(start);
    return outcome;
  }
};

class TwoStagePlacer final : public Placer {
 public:
  std::string name() const override { return "two-stage"; }

  PlacementOutcome place(const Schedule& schedule,
                         const PlacerContext& context) const override {
    // Stage 1: fault-oblivious annealing, the "sa" path at beta = 0.
    PlacerContext stage1 = context;
    stage1.weights.beta = 0.0;
    const PlacementOutcome area = SaPlacer().place(schedule, stage1);

    // Stage 2: LTSA from the stage-1 placement, single-module
    // displacements only (§6.2). Both stages are reproducible from the one
    // context seed; the stage-2 stream is split off so it does not replay
    // stage 1's.
    PlacerContext stage2 = context;
    stage2.annealing = context.ltsa;
    stage2.weights.beta = context.two_stage_beta;
    stage2.seed = SplitMix64(context.seed ^ 0x5a5a5a5aULL).next();
    stage2.moves.single_move_probability = 1.0;
    stage2.moves.rotate_probability = 0.0;
    PlacementOutcome result = anneal_from(area.placement, stage2);
    result.wall_seconds += area.wall_seconds;
    return result;
  }
};

}  // namespace

PlacerRegistry::PlacerRegistry() {
  register_placer("sa", [] { return std::make_unique<SaPlacer>(); });
  register_placer("greedy", [] { return std::make_unique<GreedyPlacer>(); });
  register_placer("kamer", [] { return std::make_unique<KamerPlacer>(); });
  register_placer("optimal", [] { return std::make_unique<ExactPlacer>(); });
  register_placer("two-stage",
                  [] { return std::make_unique<TwoStagePlacer>(); });
}

PlacerRegistry& PlacerRegistry::global() {
  static PlacerRegistry registry;
  return registry;
}

std::unique_ptr<Placer> make_placer(const std::string& name) {
  return PlacerRegistry::global().make(name);
}

std::vector<std::string> registered_placers() {
  return PlacerRegistry::global().names();
}

}  // namespace dmfb
