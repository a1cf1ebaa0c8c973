#include "core/placer.h"

#include <algorithm>
#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/greedy_placer.h"
#include "core/kamer_placer.h"
#include "core/two_stage_placer.h"
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

class SaPlacer final : public Placer {
 public:
  std::string name() const override { return "sa"; }

  PlacementOutcome place(const Schedule& schedule,
                         const PlacerContext& context) const override {
    return place_simulated_annealing(schedule, sa_options_from(context));
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
    TwoStageOptions options;
    options.stage1 = sa_options_from(context);
    options.beta = context.two_stage_beta;
    options.ltsa = context.ltsa;
    // Both stages are reproducible from the one context seed; the stage-2
    // stream is split off so it does not replay stage 1's.
    options.stage2_seed = SplitMix64(context.seed ^ 0x5a5a5a5aULL).next();
    const TwoStageOutcome outcome = place_two_stage(schedule, options);
    PlacementOutcome result = outcome.stage2;
    result.wall_seconds += outcome.stage1.wall_seconds;
    return result;
  }
};

}  // namespace

const char* to_string(PlacerKind kind) {
  switch (kind) {
    case PlacerKind::kSa:
      return "sa";
    case PlacerKind::kGreedy:
      return "greedy";
    case PlacerKind::kKamer:
      return "kamer";
    case PlacerKind::kOptimal:
      return "optimal";
    case PlacerKind::kTwoStage:
      return "two-stage";
  }
  return "?";
}

template <>
PlacerKind from_string<PlacerKind>(std::string_view text) {
  if (text == "sa") return PlacerKind::kSa;
  if (text == "greedy") return PlacerKind::kGreedy;
  if (text == "kamer") return PlacerKind::kKamer;
  if (text == "optimal") return PlacerKind::kOptimal;
  if (text == "two-stage") return PlacerKind::kTwoStage;
  throw std::invalid_argument(
      "unknown PlacerKind \"" + std::string(text) +
      "\" (expected one of: sa, greedy, kamer, optimal, two-stage)");
}

std::ostream& operator<<(std::ostream& os, PlacerKind kind) {
  return os << to_string(kind);
}

std::istream& operator>>(std::istream& is, PlacerKind& kind) {
  std::string token;
  is >> token;
  kind = from_string<PlacerKind>(token);
  return is;
}

SaPlacerOptions sa_options_from(const PlacerContext& context) {
  SaPlacerOptions options;
  options.canvas_width = context.canvas_width;
  options.canvas_height = context.canvas_height;
  options.schedule = context.annealing;
  options.moves = context.moves;
  options.weights = context.weights;
  options.fti_options = context.fti_options;
  options.defects = context.defects;
  options.route_links = context.route_links;
  options.seed = context.seed;
  options.initial = context.initial_placement;
  return options;
}

PlacerRegistry::PlacerRegistry() {
  register_placer(to_string(PlacerKind::kSa),
                  [] { return std::make_unique<SaPlacer>(); });
  register_placer(to_string(PlacerKind::kGreedy),
                  [] { return std::make_unique<GreedyPlacer>(); });
  register_placer(to_string(PlacerKind::kKamer),
                  [] { return std::make_unique<KamerPlacer>(); });
  register_placer(to_string(PlacerKind::kOptimal),
                  [] { return std::make_unique<ExactPlacer>(); });
  register_placer(to_string(PlacerKind::kTwoStage),
                  [] { return std::make_unique<TwoStagePlacer>(); });
}

PlacerRegistry& PlacerRegistry::global() {
  static PlacerRegistry registry;
  return registry;
}

std::unique_ptr<Placer> make_placer(const std::string& name) {
  return PlacerRegistry::global().make(name);
}

std::unique_ptr<Placer> make_placer(PlacerKind kind) {
  return make_placer(std::string(to_string(kind)));
}

std::vector<std::string> registered_placers() {
  return PlacerRegistry::global().names();
}

}  // namespace dmfb
