#include "oracles/reference_simulator.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "sim/router.h"
#include "util/matrix.h"

namespace dmfb::oracle {
namespace {

constexpr double kEps = 1e-9;

/// Center cell of a module's footprint (always inside it).
Point footprint_center(const Rect& fp) {
  return Point{fp.x + fp.width / 2, fp.y + fp.height / 2};
}

std::string fmt_point(Point p) {
  std::ostringstream os;
  os << '(' << p.x << ',' << p.y << ')';
  return os.str();
}

/// Execution state threaded through the reference run.
struct RunState {
  SimulationResult result;
  /// Current physical location of the droplet produced by each operation
  /// (dispenses get a position lazily when first routed).
  std::map<OperationId, Point> droplet_at;
  /// Droplet contents per operation output.
  std::map<OperationId, Droplet> droplets;
  int next_droplet_id = 0;
};

}  // namespace

SimulationResult run_reference(const SequencingGraph& graph,
                               const Schedule& schedule,
                               const Placement& placement, const Chip& chip,
                               const SimOptions& options) {
  const Rect region{0, 0, chip.width(), chip.height()};
  if (schedule.module_count() != placement.module_count()) {
    throw std::invalid_argument(
        "run_reference: schedule and placement disagree on module count");
  }
  if (!region.contains(placement.bounding_box())) {
    throw std::invalid_argument(
        "run_reference: chip smaller than the placement bounding box");
  }
  RunState state;
  auto& result = state.result;
  const std::vector<Point> faults = chip.faulty_cells();
  // Fault occupancy as an O(1) grid, shared by fail_on_fault (footprint
  // scan) and blocked_at, instead of an O(F) list scan per module.
  Matrix<std::uint8_t> fault_grid(region.width, region.height, 0);
  for (const Point& f : faults) {
    if (fault_grid.in_bounds(f)) fault_grid.at(f) = 1;
  }

  auto event = [&](double t, const std::string& what) {
    if (options.record_events) result.events.push_back(SimEvent{t, what});
  };

  // Cells impassable for a droplet moving at the configuration changeover
  // at time t, headed to module `exclude`. Two modelling points from §6 of
  // the paper: (1) only the *functional* regions of modules block — the
  // segregation ring "provides a communication path for droplet movement";
  // (2) transport happens while the array is being reprogrammed, so
  // modules that end exactly at t (being torn down) or start exactly at t
  // (not yet configured) do not block; only modules running across the
  // boundary do.
  auto blocked_at = [&](double t, int exclude) {
    Matrix<std::uint8_t> blocked(region.width, region.height, 0);
    for (int i = 0; i < placement.module_count(); ++i) {
      if (i == exclude) continue;
      const auto& m = placement.module(i);
      if (m.start_s + kEps < t && t + kEps < m.end_s) {
        blocked.fill_rect(m.footprint().inflated(-kSegregationRingCells), 1);
      }
    }
    for (const Point& f : faults) {
      if (blocked.in_bounds(f)) blocked.at(f) = 1;
    }
    return blocked;
  };

  // Routes the droplet of operation `producer` to `target` at time t.
  // Returns false (setting the failure) when routing is impossible.
  auto route_droplet = [&](OperationId producer, Point target, double t,
                           int exclude_module) -> bool {
    if (!options.verify_routing) {
      state.droplet_at[producer] = target;
      return true;
    }
    const Matrix<std::uint8_t> blocked = blocked_at(t, exclude_module);

    // Dispense droplets enter at the free perimeter cell nearest the
    // target; their reservoir sits off-chip next to it.
    auto it = state.droplet_at.find(producer);
    Point from;
    if (it != state.droplet_at.end()) {
      from = it->second;
    } else {
      int best_distance = -1;
      Point best{-1, -1};
      for (int x = 0; x < region.width; ++x) {
        for (int y : {0, region.height - 1}) {
          const Point p{x, y};
          if (blocked.at(p) == 0) {
            const int d = manhattan_distance(p, target);
            if (best_distance < 0 || d < best_distance) {
              best_distance = d;
              best = p;
            }
          }
        }
      }
      // The side columns skip the corner rows: the sweep above already
      // visited them (it used to enumerate all four corners twice; with
      // the strict `<` keeping the first minimum, dropping the
      // duplicates cannot change the winner).
      for (int y = 1; y < region.height - 1; ++y) {
        for (int x : {0, region.width - 1}) {
          const Point p{x, y};
          if (blocked.at(p) == 0) {
            const int d = manhattan_distance(p, target);
            if (best_distance < 0 || d < best_distance) {
              best_distance = d;
              best = p;
            }
          }
        }
      }
      if (best_distance < 0) {
        result.failure_reason =
            "no free perimeter cell to dispense at t=" + std::to_string(t);
        return false;
      }
      from = best;
      event(t, "dispense '" + graph.operation(producer).reagent +
                   "' enters at " + fmt_point(from));
    }

    const auto path = find_path(blocked, from, target);
    if (!path) {
      std::ostringstream os;
      os << "droplet of '" << graph.operation(producer).label
         << "' cannot reach " << fmt_point(target) << " at t=" << t;
      result.failure_reason = os.str();
      return false;
    }
    ++result.routes_planned;
    result.route_cells += static_cast<long long>(path->size()) - 1;
    result.transport_seconds +=
        path_duration_s(*path, options.droplet_speed_cells_per_s);
    state.droplet_at[producer] = target;
    return true;
  };

  // Droplet bookkeeping for a dispense operation reaching its consumer.
  auto droplet_for = [&](OperationId op) -> Droplet& {
    auto it = state.droplets.find(op);
    if (it == state.droplets.end()) {
      const Operation& o = graph.operation(op);
      it = state.droplets
               .emplace(op, Droplet(state.next_droplet_id++, Point{},
                                    o.reagent.empty() ? o.label : o.reagent))
               .first;
    }
    return it->second;
  };

  // Process schedule entries in start order: storage handoffs move waiting
  // droplets; reconfigurable operations consume inputs and produce outputs.
  std::vector<int> order(static_cast<std::size_t>(schedule.module_count()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (schedule.module(a).start_s != schedule.module(b).start_s) {
      return schedule.module(a).start_s < schedule.module(b).start_s;
    }
    return a < b;
  });

  auto fail_on_fault = [&](int index, const Rect& fp, double t) -> bool {
    // Row-major footprint scan over the fault grid: finds the same first
    // fault as a linear pass over faulty_cells() (also row-major).
    const Rect clipped = fp.intersection(region);
    for (int y = clipped.y; y < clipped.top(); ++y) {
      for (int x = clipped.x; x < clipped.right(); ++x) {
        if (fault_grid.at(x, y) == 0) continue;
        const Point f{x, y};
        result.failure_reason = "module '" + schedule.module(index).label +
                                "' contains faulty cell " + fmt_point(f);
        result.failed_module = index;
        result.fault_cell = f;
        event(t, result.failure_reason);
        return true;
      }
    }
    return false;
  };

  for (int index : order) {
    const ScheduledModule& sm = schedule.module(index);
    const Rect fp = placement.module(index).footprint();
    const Point site = footprint_center(fp);

    if (fail_on_fault(index, fp, sm.start_s)) return result;

    if (sm.op_id < 0) {
      // Inserted storage: move the producer's droplet into the store.
      if (sm.producer_op >= 0) {
        if (!route_droplet(sm.producer_op, site, sm.start_s, index)) {
          result.failed_module = index;
          return result;
        }
        event(sm.start_s, "droplet of '" +
                              graph.operation(sm.producer_op).label +
                              "' stored in " + sm.label + " at " +
                              fmt_point(site));
      }
      continue;
    }

    const Operation& op = graph.operation(sm.op_id);
    event(sm.start_s,
          "start '" + op.label + "' (" + sm.spec.name + ") at " +
              fmt_point(site));

    // Route every input droplet to the module site and merge.
    Droplet mixed;
    bool first_input = true;
    for (OperationId pred : graph.predecessors(sm.op_id)) {
      if (!route_droplet(pred, site, sm.start_s, index)) {
        result.failed_module = index;
        return result;
      }
      Droplet& input = droplet_for(pred);
      if (first_input) {
        mixed = input;
        first_input = false;
      } else {
        mixed.merge(input);
      }
    }
    if (first_input) {
      // No predecessors (unusual but legal): synthesize a droplet in place.
      mixed = Droplet(state.next_droplet_id++, site, op.label);
    }
    mixed.move_to(site);

    if (op.type == OperationType::kDilute) {
      // Discard one half to waste; the remaining half is the output.
      Droplet waste = mixed.split(state.next_droplet_id++, site);
      event(sm.end_s, "'" + op.label + "' split; " +
                          std::to_string(waste.volume_nl()) +
                          " nl sent to waste");
    }

    state.droplets[sm.op_id] = mixed;
    state.droplet_at[sm.op_id] = site;
    result.op_outputs[sm.op_id] = mixed;
    event(sm.end_s, "finish '" + op.label + "'");
  }

  result.success = true;
  result.makespan_s = schedule.makespan_s();
  return result;
}

}  // namespace dmfb::oracle
