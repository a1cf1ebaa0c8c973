// router_backend.h — the polymorphic droplet-routing interface and its
// string-keyed registry.
//
// Droplet routing at configuration changeovers is the flow's second
// NP-hard stage (placement being the first), and just like placement it
// admits very different algorithms. This header unifies them behind one
// abstract `Router`, mirroring the `Placer`/`PlacerRegistry` pair
// (core/placer.h), so drivers, benches and the `SynthesisPipeline` facade
// select a backend by name:
//
//   auto router = make_router("negotiated");
//   RoutePlan plan = router->plan(graph, schedule, placement, 16, 16);
//
// Built-in backends:
//   * "prioritized" — the classic decoupled planner: transfers are routed
//     one after another, each avoiding the space-time reservations of
//     those before it (the approach descended from this paper's group's
//     work). Fast, incomplete.
//   * "negotiated"  — Pathfinder-style negotiated congestion: all
//     transfers are routed concurrently and allowed to share space-time
//     neighbourhoods at an escalating cost; conflicted routes are ripped
//     up and rerouted until the changeover is conflict-free. Falls back
//     to "prioritized" on a changeover that fails to converge, so its
//     route success rate dominates the prioritized planner's.
//   * "restart"     — seeded random-restart over transfer orderings: the
//     prioritized solver is retried with shuffled visit orders and the
//     minimum-makespan conflict-free changeover wins. Reproducible from
//     RoutePlannerOptions::seed.
//
// New routers register with `RouterRegistry::global()` and are
// immediately usable everywhere a router name is accepted.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/route_planner.h"
#include "util/registry.h"

namespace dmfb {

/// Abstract routing backend: a scheduled, placed assay in, a checkable
/// per-changeover droplet plan out.
///
/// Implementations are stateless w.r.t. `plan` (const, reentrant), so one
/// instance may serve concurrent pipeline runs; stochastic backends draw
/// all randomness from RoutePlannerOptions::seed. `plan` reports routing
/// failure through RoutePlan::success/failure_reason (prioritized-style
/// planning is incomplete by nature) and throws std::invalid_argument
/// when the inputs are inconsistent (schedule/placement mismatch, chip
/// smaller than the placement).
class Router {
 public:
  virtual ~Router() = default;

  /// Registry key of this backend (e.g. "negotiated").
  virtual std::string name() const = 0;

  /// Plans droplet routing for the full assay: for every changeover in
  /// the schedule, routes all pending transfers concurrently under the
  /// fluidic constraints on a `chip_width` x `chip_height` chip.
  virtual RoutePlan plan(const SequencingGraph& graph,
                         const Schedule& schedule, const Placement& placement,
                         int chip_width, int chip_height,
                         const RoutePlannerOptions& options = {}) const = 0;
};

/// String-keyed router factory. The three built-ins are pre-registered;
/// `register_router` adds custom backends process-wide. All methods are
/// thread-safe (run_many workers resolve routers concurrently). The
/// locking machinery is the shared detail::NamedRegistry (util/registry.h).
class RouterRegistry {
 public:
  using Factory = detail::NamedRegistry<Router>::Factory;

  /// The process-wide registry, with built-ins pre-registered.
  static RouterRegistry& global();

  /// Registers a backend under `name`. Throws std::invalid_argument when
  /// the name is empty or already taken.
  void register_router(const std::string& name, Factory factory) {
    registry_.add(name, std::move(factory));
  }

  /// Instantiates the backend registered under `name`. Throws
  /// std::invalid_argument for unknown names; the message lists every
  /// registered name.
  std::unique_ptr<Router> make(const std::string& name) const {
    return registry_.make(name);
  }

  bool contains(const std::string& name) const {
    return registry_.contains(name);
  }

  /// All registered names, sorted.
  std::vector<std::string> names() const { return registry_.names(); }

 private:
  RouterRegistry();

  detail::NamedRegistry<Router> registry_{"router"};
};

/// Convenience forwarders to RouterRegistry::global().
std::unique_ptr<Router> make_router(const std::string& name);
std::vector<std::string> registered_routers();

}  // namespace dmfb
