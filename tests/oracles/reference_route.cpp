#include "oracles/reference_route.h"

#include <functional>
#include <limits>
#include <queue>
#include <utility>

namespace dmfb::oracle {

std::optional<std::vector<Point>> route_transfer(
    const TransferRequest& request, const Matrix<std::uint8_t>& blocked,
    const std::vector<TimedRoute>& earlier, int horizon, int separation) {
  const int width = blocked.width();
  const int height = blocked.height();
  if (!blocked.in_bounds(request.from) || !blocked.in_bounds(request.to)) {
    return std::nullopt;
  }
  if (blocked.at(request.from) != 0 || blocked.at(request.to) != 0) {
    return std::nullopt;
  }

  auto conflicts = [&](Point p, int step) {
    for (const TimedRoute& other : earlier) {
      if (other.request.to == request.to) continue;  // merging pair
      if (routing::conflicts_with_route(p, step, other, separation)) {
        return true;
      }
    }
    return false;
  };

  struct Node {
    int f;
    int step;
    Point p;
    bool operator>(const Node& o) const {
      if (f != o.f) return f > o.f;
      if (step != o.step) return step > o.step;
      return std::pair(p.x, p.y) > std::pair(o.p.x, o.p.y);
    }
  };

  // visited[(x, y, step)] — steps bounded by horizon.
  const auto key = [&](Point p, int step) {
    return (static_cast<std::size_t>(step) * height + p.y) * width + p.x;
  };
  std::vector<bool> visited(
      static_cast<std::size_t>(horizon + 1) * width * height, false);
  std::vector<int> parent(
      static_cast<std::size_t>(horizon + 1) * width * height, -1);

  std::priority_queue<Node, std::vector<Node>, std::greater<Node>> open;
  if (conflicts(request.from, 0)) return std::nullopt;
  open.push(
      Node{manhattan_distance(request.from, request.to), 0, request.from});
  visited[key(request.from, 0)] = true;

  const Point steps[5] = {{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  while (!open.empty()) {
    const Node node = open.top();
    open.pop();
    if (node.p == request.to) {
      // Reconstruct by walking parents backwards.
      std::vector<Point> positions(static_cast<std::size_t>(node.step) + 1);
      Point p = node.p;
      for (int s = node.step; s >= 0; --s) {
        positions[static_cast<std::size_t>(s)] = p;
        const int parent_index = parent[key(p, s)];
        if (s > 0) {
          p = Point{parent_index % width, (parent_index / width) % height};
        }
      }
      return positions;
    }
    if (node.step >= horizon) continue;
    for (const Point& delta : steps) {
      const Point next{node.p.x + delta.x, node.p.y + delta.y};
      const int next_step = node.step + 1;
      if (!blocked.in_bounds(next) || blocked.at(next) != 0) continue;
      if (visited[key(next, next_step)]) continue;
      if (conflicts(next, next_step)) continue;
      visited[key(next, next_step)] = true;
      parent[key(next, next_step)] = static_cast<int>(
          key(node.p, 0) % (static_cast<std::size_t>(width) * height));
      open.push(Node{next_step + manhattan_distance(next, request.to),
                     next_step, next});
    }
  }
  return std::nullopt;
}

std::optional<routing::PricedRoute> route_transfer_priced(
    const TransferRequest& request, const Matrix<std::uint8_t>& blocked,
    const std::vector<TimedRoute>& others, std::size_t self, int horizon,
    int separation, double present_weight, const std::vector<double>& history,
    double history_weight) {
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

  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto penalty = [&](Point p, int step) {
    double cost = history.empty() ? 0.0
                                  : history[key(p, step)] * history_weight;
    for (std::size_t o = 0; o < others.size(); ++o) {
      if (o == self) continue;
      const TimedRoute& other = others[o];
      if (other.positions.empty()) continue;  // not routed yet
      if (other.request.to == request.to) continue;  // merging pair
      if (routing::conflicts_with_route(p, step, other, separation)) {
        cost += present_weight;
        if (cost == kInf) return cost;  // priced out: stop scanning
      }
    }
    return cost;
  };

  struct Node {
    double f;
    double g;
    int step;
    Point p;
    bool operator>(const Node& o) const {
      if (f != o.f) return f > o.f;
      if (step != o.step) return step > o.step;
      return std::pair(p.x, p.y) > std::pair(o.p.x, o.p.y);
    }
  };

  const double start_g = penalty(request.from, 0);
  if (start_g == kInf) return std::nullopt;

  const std::size_t states =
      static_cast<std::size_t>(horizon + 1) * width * height;
  std::vector<double> best_g(states, kInf);
  std::vector<int> parent(states, -1);

  std::priority_queue<Node, std::vector<Node>, std::greater<Node>> open;
  best_g[key(request.from, 0)] = start_g;
  open.push(Node{start_g + manhattan_distance(request.from, request.to),
                 start_g, 0, request.from});

  const Point steps[5] = {{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  while (!open.empty()) {
    const Node node = open.top();
    open.pop();
    if (node.g > best_g[key(node.p, node.step)]) continue;  // stale entry
    if (node.p == request.to) {
      routing::PricedRoute route;
      route.cost = node.g;
      route.positions.resize(static_cast<std::size_t>(node.step) + 1);
      Point p = node.p;
      for (int s = node.step; s >= 0; --s) {
        route.positions[static_cast<std::size_t>(s)] = p;
        const int parent_index = parent[key(p, s)];
        if (s > 0) {
          p = Point{parent_index % width, (parent_index / width) % height};
        }
      }
      return route;
    }
    if (node.step >= horizon) continue;
    for (const Point& delta : steps) {
      const Point next{node.p.x + delta.x, node.p.y + delta.y};
      const int next_step = node.step + 1;
      if (!blocked.in_bounds(next) || blocked.at(next) != 0) continue;
      const double g = node.g + 1.0 + penalty(next, next_step);
      if (g >= best_g[key(next, next_step)]) continue;
      best_g[key(next, next_step)] = g;
      parent[key(next, next_step)] = static_cast<int>(
          key(node.p, 0) % (static_cast<std::size_t>(width) * height));
      open.push(Node{g + manhattan_distance(next, request.to), g, next_step,
                     next});
    }
  }
  return std::nullopt;
}

}  // namespace dmfb::oracle
