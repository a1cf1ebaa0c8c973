#include "sim/router_backend.h"

#include <algorithm>

#include "util/rng.h"

namespace dmfb {
namespace {

using routing::ChangeoverProblem;
using routing::position_at;
using routing::PricedRoute;
using routing::SearchScratch;

// --- "prioritized" ----------------------------------------------------

class PrioritizedRouter final : public Router {
 public:
  std::string name() const override { return "prioritized"; }

  RoutePlan plan(const SequencingGraph& graph, const Schedule& schedule,
                 const Placement& placement, int chip_width, int chip_height,
                 const RoutePlannerOptions& options) const override {
    return routing::plan_prioritized(graph, schedule, placement, chip_width,
                                     chip_height, options);
  }
};

// --- "negotiated" -----------------------------------------------------
//
// Pathfinder-style negotiated congestion on the space-time grid. Every
// transfer is routed with a cost-based A* that may enter another route's
// fluidic neighbourhood at a price: an escalating present-congestion cost
// plus a history cost accumulated on space-time cells that keep seeing
// conflicts. Conflicted routes are ripped up and rerouted each round
// until the changeover is conflict-free.

/// Routes `request`, resolving a dispense's pending entry by evaluating
/// the nearest free perimeter cells and keeping the cheapest route. The
/// resolved request (with the chosen entry as `from`) is written back.
std::optional<PricedRoute> route_resolved(
    TransferRequest& request, const Matrix<std::uint8_t>& blocked,
    const std::vector<TimedRoute>& others, std::size_t self, int horizon,
    int separation, double present_weight, const std::vector<double>& history,
    double history_weight, SearchScratch& scratch) {
  if (!(request.from == routing::kDispensePending)) {
    return routing::route_transfer(request, blocked, others, self, horizon,
                                   separation, present_weight, history,
                                   history_weight, scratch);
  }
  // Evaluating every perimeter cell is an A* each; the nearest few are
  // where a sensible entry lives.
  constexpr std::size_t kMaxEntries = 12;
  std::optional<PricedRoute> best;
  Point best_entry = request.from;
  const auto entries = routing::perimeter_entries(blocked, request.to);
  // With non-negative weights every step costs at least 1, so a route
  // costs at least its entry's Manhattan distance to the target. Entries
  // come nearest first: once that distance reaches the best cost found,
  // no later entry can be strictly cheaper, and their searches are moot.
  const bool bounded = present_weight >= 0.0 && history_weight >= 0.0;
  for (std::size_t i = 0; i < entries.size() && i < kMaxEntries; ++i) {
    if (best && bounded &&
        manhattan_distance(entries[i], request.to) >= best->cost) {
      break;
    }
    TransferRequest candidate = request;
    candidate.from = entries[i];
    auto route = routing::route_transfer(candidate, blocked, others, self,
                                         horizon, separation, present_weight,
                                         history, history_weight, scratch);
    if (route && (!best || route->cost < best->cost)) {
      best = std::move(route);
      best_entry = entries[i];
    }
  }
  if (best) request.from = best_entry;
  return best;
}

/// Indices of routes involved in at least one fluidic violation, and —
/// when `scratch` is non-null — a history bump on every space-time cell
/// the offenders occupy at a violating step (the grid grows to cover it,
/// and each newly non-zero entry is listed in `history_cells`).
std::vector<std::size_t> conflicted_routes(
    const std::vector<TimedRoute>& routes, int separation, int horizon,
    int width, int height, SearchScratch* scratch) {
  const auto key = [&](Point p, int step) {
    return (static_cast<std::size_t>(step) * height + p.y) * width + p.x;
  };
  const auto bump = [&](Point p, int step) {
    std::vector<double>& history = scratch->history;
    const int s = std::min(step, horizon);
    const std::size_t k = key(p, s);
    if (k >= history.size()) {  // grow through plane s
      history.resize(key(Point{0, 0}, s + 1), 0.0);
    }
    if (history[k] == 0.0) scratch->history_cells.push_back(k);
    history[k] += 1.0;
  };
  std::vector<bool> conflicted(routes.size(), false);
  int makespan = 0;
  for (const auto& route : routes) {
    makespan = std::max(makespan, route.arrival_step());
  }
  for (std::size_t i = 0; i < routes.size(); ++i) {
    for (std::size_t j = i + 1; j < routes.size(); ++j) {
      const TimedRoute& a = routes[i];
      const TimedRoute& b = routes[j];
      if (a.request.to == b.request.to) continue;  // merging pair
      for (int step = 0; step <= makespan; ++step) {
        if (!routing::pair_violates_at(a, b, step, separation)) continue;
        conflicted[i] = conflicted[j] = true;
        if (scratch) {
          bump(position_at(a, step), step);
          bump(position_at(b, step), step);
        }
      }
    }
  }
  std::vector<std::size_t> result;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (conflicted[i]) result.push_back(i);
  }
  return result;
}

ChangeoverPlan finish(double time_s, std::vector<TimedRoute> routes,
                      int negotiation_rounds) {
  ChangeoverPlan changeover;
  changeover.time_s = time_s;
  changeover.negotiation_rounds = negotiation_rounds;
  for (const auto& route : routes) {
    changeover.makespan_steps =
        std::max(changeover.makespan_steps, route.arrival_step());
  }
  changeover.routes = std::move(routes);
  return changeover;
}

/// Negotiates one changeover to a conflict-free plan, or nullopt when a
/// transfer is unroutable or the rounds run out with conflicts left.
std::optional<ChangeoverPlan> negotiate(const ChangeoverProblem& problem,
                                        const RoutePlannerOptions& options,
                                        int horizon, SearchScratch& scratch) {
  const int width = problem.blocked.width();
  const int height = problem.blocked.height();
  const int separation = options.separation_cells;
  // A zero history grid: undo the last changeover's bumps. It grows as
  // conflicts are bumped, and is never empty, so the kernel always adds
  // the history term (states past its end read as zero).
  std::vector<double>& history = scratch.history;
  for (const std::size_t cell : scratch.history_cells) history[cell] = 0.0;
  scratch.history_cells.clear();
  if (history.empty()) history.resize(1, 0.0);

  // Initial pass: route each transfer congestion-aware against the
  // routes placed so far (soft — sharing is allowed, just priced).
  std::vector<TimedRoute> routes(problem.requests.size());
  for (const std::size_t r : routing::default_order(problem.requests)) {
    TransferRequest request = problem.requests[r];
    auto soft = route_resolved(
        request, problem.blocked, routes, r, horizon, separation,
        options.present_congestion_weight, history,
        options.history_congestion_weight, scratch);
    if (!soft) return std::nullopt;  // physically unroutable
    routes[r].request = request;
    routes[r].positions = std::move(soft->positions);
  }

  // Negotiation rounds: rip up every conflicted route and reroute it at
  // an escalating present-congestion cost.
  for (int round = 1; round <= options.negotiation_rounds; ++round) {
    const auto conflicted = conflicted_routes(routes, separation, horizon,
                                              width, height, &scratch);
    // round - 1 rip-up rounds were spent getting here.
    if (conflicted.empty()) return finish(problem.time_s, routes, round - 1);
    const double present =
        options.present_congestion_weight * static_cast<double>(round);
    for (const std::size_t r : conflicted) {
      TransferRequest request = problem.requests[r];
      auto soft = route_resolved(
          request, problem.blocked, routes, r, horizon, separation, present,
          history, options.history_congestion_weight, scratch);
      if (!soft) return std::nullopt;
      routes[r].request = request;
      routes[r].positions = std::move(soft->positions);
    }
  }
  if (conflicted_routes(routes, separation, horizon, width, height, nullptr)
          .empty()) {
    return finish(problem.time_s, routes, options.negotiation_rounds);
  }
  return std::nullopt;  // failed to converge
}

class NegotiatedRouter final : public Router {
 public:
  std::string name() const override { return "negotiated"; }

  RoutePlan plan(const SequencingGraph& graph, const Schedule& schedule,
                 const Placement& placement, int chip_width, int chip_height,
                 const RoutePlannerOptions& options) const override {
    const int horizon =
        routing::resolve_horizon(options, chip_width, chip_height);
    return routing::solve_changeovers(
        routing::extract_problems(graph, schedule, placement, chip_width,
                                  chip_height),
        [&](const ChangeoverProblem& problem, std::size_t,
            SearchScratch& scratch, std::string* failure) {
          return routing::solve_negotiated(problem, options, horizon, scratch,
                                           failure);
        });
  }
};

// --- "restart" --------------------------------------------------------

class RestartRouter final : public Router {
 public:
  std::string name() const override { return "restart"; }

  RoutePlan plan(const SequencingGraph& graph, const Schedule& schedule,
                 const Placement& placement, int chip_width, int chip_height,
                 const RoutePlannerOptions& options) const override {
    const int horizon =
        routing::resolve_horizon(options, chip_width, chip_height);
    return routing::solve_changeovers(
        routing::extract_problems(graph, schedule, placement, chip_width,
                                  chip_height),
        [&](const ChangeoverProblem& problem, std::size_t c,
            SearchScratch& scratch,
            std::string* failure) -> std::optional<ChangeoverPlan> {
          // Per-changeover stream split from the one seed, so a
          // changeover's orderings do not depend on how the ones before
          // it went.
          Rng rng(SplitMix64(options.seed ^ (0x9e3779b97f4a7c15ULL * (c + 1)))
                      .next());

          std::optional<ChangeoverPlan> best;
          auto consider = [&](const std::vector<std::size_t>& order) {
            auto candidate = routing::solve_prioritized(
                problem, order, options, horizon, scratch, failure);
            if (!candidate) return;
            if (!best || better(*candidate, *best)) {
              best = std::move(candidate);
            }
          };

          std::vector<std::size_t> order =
              routing::default_order(problem.requests);
          consider(order);
          for (int restart = 0; restart < options.max_restarts; ++restart) {
            shuffle(order, rng);
            consider(order);
          }
          return best;
        });
  }

 private:
  /// Min makespan, then min total droplet-steps.
  static bool better(const ChangeoverPlan& a, const ChangeoverPlan& b) {
    if (a.makespan_steps != b.makespan_steps) {
      return a.makespan_steps < b.makespan_steps;
    }
    return total_steps(a) < total_steps(b);
  }

  static long long total_steps(const ChangeoverPlan& plan) {
    long long steps = 0;
    for (const auto& route : plan.routes) steps += route.arrival_step();
    return steps;
  }

  static void shuffle(std::vector<std::size_t>& order, Rng& rng) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
  }
};

}  // namespace

std::optional<ChangeoverPlan> routing::solve_negotiated(
    const ChangeoverProblem& problem, const RoutePlannerOptions& options,
    int horizon, SearchScratch& scratch, std::string* failure) {
  auto changeover = negotiate(problem, options, horizon, scratch);
  if (!changeover) {
    // A changeover the negotiation cannot converge on may still yield to
    // decoupled planning, so "negotiated" never does worse than
    // "prioritized".
    changeover = solve_prioritized(problem, default_order(problem.requests),
                                   options, horizon, scratch, failure);
    // The failed negotiation still burned its full round budget.
    if (changeover) changeover->negotiation_rounds = options.negotiation_rounds;
  }
  return changeover;
}

RouterRegistry::RouterRegistry() {
  register_router("negotiated",
                  [] { return std::make_unique<NegotiatedRouter>(); });
  register_router("prioritized",
                  [] { return std::make_unique<PrioritizedRouter>(); });
  register_router("restart", [] { return std::make_unique<RestartRouter>(); });
}

RouterRegistry& RouterRegistry::global() {
  static RouterRegistry registry;
  return registry;
}

std::unique_ptr<Router> make_router(const std::string& name) {
  return RouterRegistry::global().make(name);
}

std::vector<std::string> registered_routers() {
  return RouterRegistry::global().names();
}

}  // namespace dmfb
