#include "sim/route_planner.h"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "biochip/module_spec.h"

namespace dmfb {
namespace {

constexpr double kEps = 1e-9;

// The shared center convention (also the routing-pressure term's), so
// placement pressure and actual route endpoints cannot diverge.
using detail::footprint_center;

/// Functional regions of modules strictly spanning time t (the changeover
/// rule shared with the simulator: modules starting or ending exactly at t
/// do not block).
Matrix<std::uint8_t> blocked_at(const Placement& placement, double t,
                                int width, int height) {
  Matrix<std::uint8_t> blocked(width, height, 0);
  for (int i = 0; i < placement.module_count(); ++i) {
    const auto& m = placement.module(i);
    if (m.start_s + kEps < t && t + kEps < m.end_s) {
      blocked.fill_rect(m.footprint().inflated(-kSegregationRingCells), 1);
    }
  }
  return blocked;
}

}  // namespace

double RoutePlan::total_transport_seconds(double cells_per_second) const {
  if (cells_per_second <= 0.0) return 0.0;
  double seconds = 0.0;
  for (const auto& changeover : changeovers) {
    seconds += changeover.makespan_steps / cells_per_second;
  }
  return seconds;
}

Schedule fold_transport(const Schedule& schedule, const RoutePlan& plan) {
  Schedule result = schedule;
  // Reverse time order, so every shift's threshold is the changeover's
  // *original* time: a later changeover's shift only moves modules at or
  // after it, leaving every earlier threshold's matches untouched. The
  // net effect is the cumulative delay sum over preceding changeovers.
  for (auto it = plan.changeovers.rbegin(); it != plan.changeovers.rend();
       ++it) {
    result.shift_from(it->time_s, it->transport_seconds());
  }
  return result;
}

namespace routing {

Point position_at(const TimedRoute& route, int step) {
  if (route.positions.empty()) return route.request.to;
  const int clamped =
      std::clamp(step, 0, static_cast<int>(route.positions.size()) - 1);
  return route.positions[static_cast<std::size_t>(clamped)];
}

int resolve_horizon(const RoutePlannerOptions& options, int chip_width,
                    int chip_height) {
  return options.step_horizon > 0 ? options.step_horizon
                                  : 4 * (chip_width + chip_height);
}

bool conflicts_with_route(Point p, int step, const TimedRoute& other,
                          int separation) {
  if (chebyshev_distance(p, position_at(other, step)) < separation) {
    return true;
  }
  // Dynamic constraint, both directions: distance to the other droplet's
  // previous position (no head-on swaps) and to its next position (the
  // other must not be steered into my neighbourhood).
  if (step > 0 &&
      chebyshev_distance(p, position_at(other, step - 1)) < separation) {
    return true;
  }
  return chebyshev_distance(p, position_at(other, step + 1)) < separation;
}

bool pair_violates_at(const TimedRoute& a, const TimedRoute& b, int step,
                      int separation) {
  const Point pa = position_at(a, step);
  const Point pb = position_at(b, step);
  if (chebyshev_distance(pa, pb) < separation) return true;
  return step > 0 &&
         (chebyshev_distance(pa, position_at(b, step - 1)) < separation ||
          chebyshev_distance(pb, position_at(a, step - 1)) < separation);
}

void ReservationTable::apply(const TimedRoute& route, int delta) {
  const int reach = separation_ - 1;  // conflicts lie within this radius
  if (route.positions.empty() || reach < 0) return;
  const auto add = [&](std::uint16_t& count) {
    count = static_cast<std::uint16_t>(count + delta);
  };
  // Steps up to arrival: every cell the rule flags near the route's
  // previous, current and next position (one route counts once). Step
  // planes exist up to the latest arrival held so far.
  const int last = std::min(route.arrival_step(), horizon_);
  const std::size_t planes_needed =
      (static_cast<std::size_t>(last) + 1) * width_ * height_;
  if (steps_.size() < planes_needed) steps_.resize(planes_needed, 0);
  for (int step = 0; step <= last; ++step) {
    const Point here = position_at(route, step);
    const Point around[3] = {position_at(route, step - 1), here,
                             position_at(route, step + 1)};
    int x0 = width_, y0 = height_, x1 = -1, y1 = -1;
    for (const Point& q : around) {
      x0 = std::min(x0, q.x - reach);
      y0 = std::min(y0, q.y - reach);
      x1 = std::max(x1, q.x + reach);
      y1 = std::max(y1, q.y + reach);
    }
    x0 = std::max(x0, 0);
    y0 = std::max(y0, 0);
    x1 = std::min(x1, width_ - 1);
    y1 = std::min(y1, height_ - 1);
    std::uint16_t* plane =
        steps_.data() + static_cast<std::size_t>(step) * width_ * height_;
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        if (conflicts_with_route(Point{x, y}, step, route, separation_)) {
          add(plane[static_cast<std::size_t>(y) * width_ + x]);
        }
      }
    }
  }
  // Parked after arrival, the rule is the distance to the target alone.
  const Point to = route.positions.back();
  for (int y = std::max(to.y - reach, 0);
       y <= std::min(to.y + reach, height_ - 1); ++y) {
    for (int x = std::max(to.x - reach, 0);
         x <= std::min(to.x + reach, width_ - 1); ++x) {
      add(tails_[static_cast<std::size_t>(y) * width_ + x]);
    }
  }
}

void ReservationTable::sync(const std::vector<TimedRoute>& routes, int width,
                            int height, int horizon, int separation) {
  if (routes.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::length_error("ReservationTable: too many routes to count");
  }
  if (width != width_ || height != height_ || horizon != horizon_ ||
      separation != separation_) {
    for (const TimedRoute& route : held_) apply(route, -1);
    held_.clear();  // every count is zero again, under any layout
    width_ = width;
    height_ = height;
    horizon_ = horizon;
    separation_ = separation;
    const std::size_t cells = static_cast<std::size_t>(width) * height;
    if (tails_.size() < cells) tails_.resize(cells, 0);
  }
  while (held_.size() > routes.size()) {
    apply(held_.back(), -1);
    held_.pop_back();
  }
  held_.resize(routes.size());
  for (std::size_t r = 0; r < routes.size(); ++r) {
    if (held_[r].positions == routes[r].positions) continue;
    apply(held_[r], -1);
    held_[r].positions = routes[r].positions;
    apply(held_[r], +1);
  }
}

int ReservationTable::count(Point p, int step) const {
  const std::size_t cell = static_cast<std::size_t>(p.y) * width_ + p.x;
  const std::size_t state =
      static_cast<std::size_t>(step) * width_ * height_ + cell;
  int count = state < steps_.size() ? steps_[state] : 0;
  if (tails_[cell] != 0) {
    for (const TimedRoute& route : held_) {
      if (!route.positions.empty() && route.arrival_step() < step &&
          chebyshev_distance(p, route.positions.back()) < separation_) {
        ++count;
      }
    }
  }
  return count;
}

std::optional<PricedRoute> route_transfer(
    const TransferRequest& request, const Matrix<std::uint8_t>& blocked,
    const std::vector<TimedRoute>& others, std::size_t self, int horizon,
    int separation, double present_weight, const std::vector<double>& history,
    double history_weight, SearchScratch& scratch) {
  const int width = blocked.width();
  const int height = blocked.height();
  if (!blocked.in_bounds(request.from) || !blocked.in_bounds(request.to)) {
    return std::nullopt;
  }
  if (blocked.at(request.from) != 0 || blocked.at(request.to) != 0) {
    return std::nullopt;
  }

  const auto key = [&](Point p, int step) {
    return (static_cast<std::size_t>(step) * height + p.y) * width + p.x;
  };

  // The table counts every routed entry of `others`; the routes the
  // rule exempts (self and merging partners) are subtracted per state.
  ReservationTable& table = scratch.reservations;
  table.sync(others, width, height, horizon, separation);
  std::vector<const TimedRoute*> exempt;
  for (std::size_t o = 0; o < others.size(); ++o) {
    const TimedRoute& other = others[o];
    if (other.positions.empty()) continue;  // not routed yet
    if (o == self || other.request.to == request.to) exempt.push_back(&other);
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto penalty = [&](Point p, int step) {
    const std::size_t k = key(p, step);
    double cost = history.empty()
                      ? 0.0
                      : (k < history.size() ? history[k] : 0.0) *
                            history_weight;
    int offenders = table.count(p, step);
    for (std::size_t e = 0; offenders > 0 && e < exempt.size(); ++e) {
      if (conflicts_with_route(p, step, *exempt[e], separation)) --offenders;
    }
    // One addition per offending route, in the order a scan over the
    // routes would make them, so fractional weights sum bit-identically.
    for (; offenders > 0 && cost != kInf; --offenders) cost += present_weight;
    return cost;
  };

  using Node = SearchScratch::OpenNode;
  const auto after = [](const Node& a, const Node& b) {
    if (a.f != b.f) return a.f > b.f;
    if (a.step != b.step) return a.step > b.step;
    return std::pair(a.p.x, a.p.y) > std::pair(b.p.x, b.p.y);
  };

  // A start that prices out (a hard conflict at step 0) has no route.
  const double start_g = penalty(request.from, 0);
  if (start_g == kInf) return std::nullopt;

  // Entries exist up to the deepest step any search on this scratch has
  // reached; a search grows them one step plane at a time as it goes
  // (pages past the deepest step stay untouched).
  std::vector<SearchScratch::State>& states = scratch.states;
  const std::size_t plane = static_cast<std::size_t>(width) * height;
  const std::uint32_t generation = ++scratch.generation;
  if (generation == 0) {  // wrapped: clear the stamps once
    for (SearchScratch::State& state : states) state.stamp = 0;
    scratch.generation = 1;
  }
  const std::uint32_t current = scratch.generation;
  const auto grow_to = [&](int step) {
    const std::size_t needed = (static_cast<std::size_t>(step) + 1) * plane;
    if (states.size() < needed) states.resize(needed);  // stamps 0: unvisited
  };
  const auto best = [&](std::size_t k) {
    return states[k].stamp == current ? states[k].g : kInf;
  };

  std::vector<Node>& open = scratch.open;
  open.clear();
  const auto push = [&](const Node& node) {
    open.push_back(node);
    std::push_heap(open.begin(), open.end(), after);
  };
  grow_to(0);
  states[key(request.from, 0)] = {start_g, -1, current};
  push(Node{start_g + manhattan_distance(request.from, request.to), start_g,
            0, request.from});

  const Point steps[5] = {{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  while (!open.empty()) {
    std::pop_heap(open.begin(), open.end(), after);
    const Node node = open.back();
    open.pop_back();
    if (node.g > states[key(node.p, node.step)].g) continue;  // stale entry
    if (node.p == request.to) {
      PricedRoute route;
      route.cost = node.g;
      route.positions.resize(static_cast<std::size_t>(node.step) + 1);
      Point p = node.p;
      for (int s = node.step; s >= 0; --s) {
        route.positions[static_cast<std::size_t>(s)] = p;
        if (s > 0) {
          const int cell = states[key(p, s)].parent;
          p = Point{cell % width, cell / width};
        }
      }
      return route;
    }
    if (node.step >= horizon) continue;
    for (const Point& delta : steps) {
      const Point next{node.p.x + delta.x, node.p.y + delta.y};
      const int next_step = node.step + 1;
      if (!blocked.in_bounds(next) || blocked.at(next) != 0) continue;
      // A hard conflict prices to +inf and fails this test even against
      // an unvisited state's +inf.
      const double g = node.g + 1.0 + penalty(next, next_step);
      grow_to(next_step);
      const std::size_t k = key(next, next_step);
      if (g >= best(k)) continue;
      states[k] = {g, node.p.y * width + node.p.x, current};
      push(Node{g + manhattan_distance(next, request.to), g, next_step,
                next});
    }
  }
  return std::nullopt;
}

std::vector<Point> perimeter_entries(const Matrix<std::uint8_t>& blocked,
                                     Point target) {
  std::vector<Point> entries;
  auto consider = [&](Point p) {
    if (blocked.at(p) == 0) entries.push_back(p);
  };
  for (int x = 0; x < blocked.width(); ++x) {
    consider(Point{x, 0});
    consider(Point{x, blocked.height() - 1});
  }
  for (int y = 1; y + 1 < blocked.height(); ++y) {
    consider(Point{0, y});
    consider(Point{blocked.width() - 1, y});
  }
  std::sort(entries.begin(), entries.end(), [&](Point a, Point b) {
    const int da = manhattan_distance(a, target);
    const int db = manhattan_distance(b, target);
    if (da != db) return da < db;
    return std::pair(a.x, a.y) < std::pair(b.x, b.y);
  });
  return entries;
}

std::vector<ChangeoverProblem> extract_problems(const SequencingGraph& graph,
                                                const Schedule& schedule,
                                                const Placement& placement,
                                                int chip_width,
                                                int chip_height) {
  if (schedule.module_count() != placement.module_count()) {
    throw std::invalid_argument(
        "extract_problems: schedule and placement disagree on module count");
  }
  const Rect chip{0, 0, chip_width, chip_height};
  if (!chip.contains(placement.bounding_box())) {
    throw std::invalid_argument(
        "extract_problems: chip smaller than the placement bounding box");
  }

  // Group schedule entries by start time.
  std::map<double, std::vector<int>> groups;
  for (int i = 0; i < schedule.module_count(); ++i) {
    groups[schedule.module(i).start_s].push_back(i);
  }

  std::vector<ChangeoverProblem> problems;
  std::map<OperationId, Point> droplet_at;
  std::map<OperationId, int> droplet_module;  // module the droplet sits in
  for (const auto& [time, members] : groups) {
    ChangeoverProblem problem;
    problem.time_s = time;
    problem.blocked = blocked_at(placement, time, chip_width, chip_height);

    // Gather transfer requests for this changeover. A droplet always
    // lands at its request's `to`, so the position bookkeeping below is
    // independent of how (or in what order) a backend routes.
    std::vector<OperationId> arrivals;  // op whose droplet lands per request
    for (const int index : members) {
      const ScheduledModule& sm = schedule.module(index);
      const Point site = footprint_center(placement.module(index).footprint());
      if (sm.op_id < 0) {
        if (sm.producer_op < 0) continue;
        const auto it = droplet_at.find(sm.producer_op);
        const Point from = it != droplet_at.end() ? it->second : site;
        if (!(from == site)) {
          const auto src = droplet_module.find(sm.producer_op);
          problem.requests.push_back(TransferRequest{
              "S:" + sm.label, from, site, index,
              src != droplet_module.end() ? src->second : -1});
          arrivals.push_back(sm.producer_op);
        } else {
          droplet_at[sm.producer_op] = site;
          droplet_module[sm.producer_op] = index;
        }
        continue;
      }
      for (const OperationId pred : graph.predecessors(sm.op_id)) {
        // Dispense droplets have no on-chip position yet; the sentinel
        // makes the solver pick a conflict-free perimeter entry.
        Point from = kDispensePending;
        int source = -1;
        const auto it = droplet_at.find(pred);
        if (it != droplet_at.end()) {
          from = it->second;
          const auto src = droplet_module.find(pred);
          if (src != droplet_module.end()) source = src->second;
        }
        if (from == site) {
          droplet_at[sm.op_id] = site;
          droplet_module[sm.op_id] = index;
          continue;
        }
        problem.requests.push_back(TransferRequest{
            graph.operation(pred).label, from, site, index, source});
        arrivals.push_back(sm.op_id < 0 ? pred : sm.op_id);
      }
    }

    // Record where droplets end up (a consumed droplet's position becomes
    // the consumer's output site; storage keeps the producer op as key).
    for (std::size_t i = 0; i < problem.requests.size(); ++i) {
      droplet_at[arrivals[i]] = problem.requests[i].to;
      droplet_module[arrivals[i]] = problem.requests[i].target_module;
    }
    if (!problem.requests.empty()) problems.push_back(std::move(problem));
  }
  return problems;
}

std::vector<RouteLink> extract_links(const SequencingGraph& graph,
                                     const Schedule& schedule) {
  // The same grouping and droplet bookkeeping as extract_problems, minus
  // everything placement-dependent: which module pairs exchange droplets
  // is fixed by graph + schedule alone. (extract_problems additionally
  // drops a transfer whose endpoints happen to share a center; such an
  // edge prices to distance 0 here, so keeping it is harmless.)
  std::map<double, std::vector<int>> groups;
  for (int i = 0; i < schedule.module_count(); ++i) {
    groups[schedule.module(i).start_s].push_back(i);
  }

  std::map<std::pair<int, int>, long long> demand;
  std::map<OperationId, int> droplet_module;
  for (const auto& [time, members] : groups) {
    // Arrivals are recorded after the whole changeover is gathered, so an
    // edge always reads the droplet's module *before* this changeover.
    std::vector<std::pair<OperationId, int>> arrivals;
    for (const int index : members) {
      const ScheduledModule& sm = schedule.module(index);
      if (sm.op_id < 0) {
        if (sm.producer_op < 0) continue;
        const auto it = droplet_module.find(sm.producer_op);
        if (it != droplet_module.end()) {
          demand[{it->second, index}] += 1;
          arrivals.emplace_back(sm.producer_op, index);
        } else {
          droplet_module[sm.producer_op] = index;
        }
        continue;
      }
      for (const OperationId pred : graph.predecessors(sm.op_id)) {
        const auto it = droplet_module.find(pred);
        demand[{it != droplet_module.end() ? it->second : -1, index}] += 1;
        arrivals.emplace_back(sm.op_id, index);
      }
    }
    for (const auto& [op, module] : arrivals) droplet_module[op] = module;
  }

  std::vector<RouteLink> links;
  links.reserve(demand.size());
  for (const auto& [edge, weight] : demand) {
    links.push_back(RouteLink{edge.first, edge.second, weight});
  }
  return links;
}

std::vector<RouteLink> reweight_links(std::vector<RouteLink> links,
                                      const RoutePlan& plan) {
  std::map<std::pair<int, int>, long long> measured;
  for (const auto& changeover : plan.changeovers) {
    for (const auto& route : changeover.routes) {
      measured[{route.request.source_module, route.request.target_module}] +=
          route.arrival_step();
    }
  }
  for (auto& link : links) {
    const auto it = measured.find({link.source_module, link.target_module});
    if (it != measured.end()) link.weight += it->second;
  }
  return links;
}

std::vector<std::size_t> default_order(
    const std::vector<TransferRequest>& requests) {
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const bool dispense_a = requests[a].from == kDispensePending;
    const bool dispense_b = requests[b].from == kDispensePending;
    if (dispense_a != dispense_b) return !dispense_a;
    const int da = manhattan_distance(requests[a].from, requests[a].to);
    const int db = manhattan_distance(requests[b].from, requests[b].to);
    if (da != db) return da > db;
    return a < b;
  });
  return order;
}

std::optional<ChangeoverPlan> solve_prioritized(
    const ChangeoverProblem& problem, const std::vector<std::size_t>& order,
    const RoutePlannerOptions& options, int horizon, SearchScratch& scratch,
    std::string* failure) {
  ChangeoverPlan changeover;
  changeover.time_s = problem.time_s;
  const auto search = [&](const TransferRequest& request) {
    // Hard-conflict mode against every route placed so far.
    return route_transfer(request, problem.blocked, changeover.routes,
                          changeover.routes.size(), horizon,
                          options.separation_cells, kHardConflict, {}, 0.0,
                          scratch);
  };
  for (const std::size_t r : order) {
    TransferRequest request = problem.requests[r];
    std::optional<PricedRoute> found;
    if (request.from == kDispensePending) {
      // Try perimeter entries nearest the target until one routes.
      for (const Point& entry :
           perimeter_entries(problem.blocked, request.to)) {
        request.from = entry;
        found = search(request);
        if (found) break;
      }
    } else {
      found = search(request);
    }
    if (!found) {
      if (failure) {
        std::ostringstream os;
        os << "droplet '" << problem.requests[r].label
           << "' cannot be routed to (" << problem.requests[r].to.x << ","
           << problem.requests[r].to.y << ") at t=" << problem.time_s;
        *failure = os.str();
      }
      return std::nullopt;
    }
    TimedRoute route;
    route.request = request;
    route.positions = std::move(found->positions);
    changeover.makespan_steps =
        std::max(changeover.makespan_steps, route.arrival_step());
    changeover.routes.push_back(std::move(route));
  }
  return changeover;
}

void accumulate(RoutePlan& plan, ChangeoverPlan&& changeover) {
  for (const TimedRoute& route : changeover.routes) {
    plan.total_steps += route.arrival_step();
    plan.total_moved_cells += route.moved_cells();
  }
  plan.negotiation_rounds += changeover.negotiation_rounds;
  plan.changeovers.push_back(std::move(changeover));
}

RoutePlan solve_changeovers(const std::vector<ChangeoverProblem>& problems,
                            const ChangeoverSolver& solve) {
  RoutePlan plan;
  SearchScratch scratch;
  for (std::size_t index = 0; index < problems.size(); ++index) {
    // Per changeover: a solver may report a failed attempt and still
    // succeed ("restart" tries several orderings).
    std::string failure;
    auto solved = solve(problems[index], index, scratch, &failure);
    if (!solved) {
      plan.failure_reason = std::move(failure);
      return plan;
    }
    accumulate(plan, std::move(*solved));
  }
  plan.success = true;
  return plan;
}

RoutePlan plan_prioritized(const SequencingGraph& graph,
                           const Schedule& schedule,
                           const Placement& placement, int chip_width,
                           int chip_height,
                           const RoutePlannerOptions& options) {
  const int horizon = resolve_horizon(options, chip_width, chip_height);
  return solve_changeovers(
      extract_problems(graph, schedule, placement, chip_width, chip_height),
      [&](const ChangeoverProblem& problem, std::size_t,
          SearchScratch& scratch, std::string* failure) {
        return solve_prioritized(problem, default_order(problem.requests),
                                 options, horizon, scratch, failure);
      });
}

}  // namespace routing

std::vector<std::string> validate_changeover(
    const ChangeoverPlan& plan, const Matrix<std::uint8_t>& blocked,
    const RoutePlannerOptions& options) {
  std::vector<std::string> violations;
  auto complain = [&](const std::string& what) { violations.push_back(what); };

  for (const TimedRoute& route : plan.routes) {
    if (route.positions.empty()) {
      complain("route '" + route.request.label + "' is empty");
      continue;
    }
    if (!(route.positions.front() == route.request.from)) {
      complain("route '" + route.request.label + "' does not start at from");
    }
    if (!(route.positions.back() == route.request.to)) {
      complain("route '" + route.request.label + "' does not end at to");
    }
    for (std::size_t s = 0; s < route.positions.size(); ++s) {
      const Point p = route.positions[s];
      if (!blocked.in_bounds(p)) {
        complain("route '" + route.request.label + "' leaves the chip");
        break;
      }
      if (blocked.at(p) != 0) {
        complain("route '" + route.request.label +
                 "' crosses a functional region");
        break;
      }
      if (s > 0) {
        const int d = manhattan_distance(route.positions[s - 1], p);
        if (d > 1) {
          complain("route '" + route.request.label + "' teleports");
          break;
        }
      }
    }
  }

  const int horizon = plan.makespan_steps;
  for (std::size_t i = 0; i < plan.routes.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.routes.size(); ++j) {
      const TimedRoute& a = plan.routes[i];
      const TimedRoute& b = plan.routes[j];
      if (a.request.to == b.request.to) continue;  // merging pair
      for (int step = 0; step <= horizon; ++step) {
        if (!routing::pair_violates_at(a, b, step,
                                       options.separation_cells)) {
          continue;
        }
        const bool dynamic_only =
            chebyshev_distance(routing::position_at(a, step),
                               routing::position_at(b, step)) >=
            options.separation_cells;
        std::ostringstream os;
        os << "droplets '" << a.request.label << "' and '" << b.request.label
           << (dynamic_only ? "' violate the dynamic constraint at step "
                            : "' too close at step ")
           << step;
        complain(os.str());
        break;
      }
    }
  }
  return violations;
}

}  // namespace dmfb
