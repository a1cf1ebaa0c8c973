// placer.h — the polymorphic placement interface and its string-keyed
// registry.
//
// The paper's flow treats placement as one pluggable stage: architectural-
// level synthesis hands a Schedule to *some* placer, which returns module
// locations. The repo has five placers (greedy bottom-left, KAMER-style
// online, simulated annealing, exact branch-and-bound, and the two-stage
// fault-aware flow); this header puts them behind one abstract `Placer`
// configured by one `PlacerContext`, so drivers, benches and the
// `SynthesisPipeline` facade (assay/pipeline.h) select a backend by name:
//
//   auto placer = make_placer("two-stage");
//   PlacementOutcome outcome = placer->place(schedule, context);
//
// New placers register themselves with `PlacerRegistry::global()` and are
// immediately usable everywhere a placer name is accepted.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "assay/schedule.h"
#include "core/annealer.h"
#include "core/cost.h"
#include "core/moves.h"
#include "core/optimal_placer.h"
#include "core/reconfig.h"
#include "core/sa_placer.h"
#include "util/registry.h"

namespace dmfb {

/// Everything a placement backend may need. Backends read the fields
/// relevant to them and ignore the rest; `seed` drives every stochastic
/// backend so one number reproduces a run (see PipelineOptions::seed).
struct PlacerContext {
  int canvas_width = 24;   ///< core-area bound (Fig. 4(a))
  int canvas_height = 24;
  /// Electrodes known defective before placement; defect-aware backends
  /// place around them, others refuse (throw) rather than silently ignore.
  std::vector<Point> defects;
  /// Droplet-transfer demand edges priced by weights.gamma — the
  /// routing-aware placement term (core/cost.h RouteLink). The pipeline
  /// fills these from routing::extract_links and, on feedback rounds,
  /// re-weights them with measured route costs. Ignored at gamma = 0.
  std::vector<RouteLink> route_links;
  /// Optional warm start (the synthesis service's placement memo): module
  /// poses are copied index-by-index onto the new schedule's placement and
  /// annealed from there instead of the greedy constructive initial. Used
  /// only when compatible — same module count and the seeded placement is
  /// feasible and defect-free — otherwise silently falls back to greedy.
  /// Poses only; the time structure always comes from the schedule.
  /// Honoured by the annealing backends ("sa" and stage 1 of
  /// "two-stage"); the others ignore it.
  std::shared_ptr<const Placement> initial_placement;
  std::uint64_t seed = 0xDA7E2005ULL;

  // Annealing backends ("sa", stage 1 of "two-stage").
  AnnealingSchedule annealing;  ///< paper defaults: T0=1e4, alpha=0.9, Na=400
  MoveOptions moves;
  CostWeights weights;  ///< beta = 0 keeps the objective area-only
  FtiOptions fti_options;

  // "two-stage" refinement (§6.2): stage 2 anneals stage 1's placement
  // under `ltsa` at beta = `two_stage_beta`, with single-module
  // displacements only.
  double two_stage_beta = 30.0;  ///< fault-tolerance weight of stage 2
  AnnealingSchedule ltsa{/*initial_temperature=*/100.0,
                         /*cooling_rate=*/0.9,
                         /*iterations_per_module=*/400,
                         /*min_temperature=*/0.05};

  // "optimal" exact search limits (carries its own allow_rotation).
  OptimalPlacerOptions optimal;

  // "kamer" online placement. `allow_rotation` governs this backend only;
  // `optimal` and `fti_options` carry their own rotation flags.
  RelocationPolicy kamer_policy = RelocationPolicy::kBestFit;
  bool allow_rotation = true;
};

/// Abstract placement backend: a Schedule in, module locations out.
///
/// Implementations are stateless w.r.t. `place` (const, reentrant), so one
/// instance may serve concurrent pipeline runs. `place` throws
/// std::runtime_error when no feasible placement is found and
/// std::invalid_argument when the context asks for something the backend
/// cannot honour (e.g. a defect map for a defect-oblivious backend).
class Placer {
 public:
  virtual ~Placer() = default;

  /// Registry key of this backend (e.g. "sa").
  virtual std::string name() const = 0;

  /// Places `schedule`'s modules. The returned outcome is always feasible
  /// (overlap-free, within canvas).
  virtual PlacementOutcome place(const Schedule& schedule,
                                 const PlacerContext& context) const = 0;
};

/// String-keyed placer factory. The five built-ins are pre-registered;
/// `register_placer` adds custom backends process-wide. All methods are
/// thread-safe (run_many workers resolve placers concurrently). The
/// locking machinery is the shared detail::NamedRegistry (util/registry.h).
class PlacerRegistry {
 public:
  using Factory = detail::NamedRegistry<Placer>::Factory;

  /// The process-wide registry, with built-ins pre-registered.
  static PlacerRegistry& global();

  /// Registers a backend under `name`. Throws std::invalid_argument when
  /// the name is empty or already taken.
  void register_placer(const std::string& name, Factory factory) {
    registry_.add(name, std::move(factory));
  }

  /// Instantiates the backend registered under `name`. Throws
  /// std::invalid_argument for unknown names; the message lists every
  /// registered name.
  std::unique_ptr<Placer> make(const std::string& name) const {
    return registry_.make(name);
  }

  bool contains(const std::string& name) const {
    return registry_.contains(name);
  }

  /// All registered names, sorted.
  std::vector<std::string> names() const { return registry_.names(); }

 private:
  PlacerRegistry();

  detail::NamedRegistry<Placer> registry_{"placer"};
};

/// Convenience forwarders to PlacerRegistry::global().
std::unique_ptr<Placer> make_placer(const std::string& name);
std::vector<std::string> registered_placers();

}  // namespace dmfb
