#include "sim/sim_engine.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "biochip/module_spec.h"
#include "sim/router.h"

namespace dmfb {
namespace {

// Same slice-boundary fuzz as the reference engine: a module ending (or
// starting) exactly at the changeover instant does not block transport.
constexpr double kEps = 1e-9;

/// Center cell of a module's footprint (always inside it).
Point footprint_center(const Rect& fp) {
  return Point{fp.x + fp.width / 2, fp.y + fp.height / 2};
}

void append_int(std::string& out, int value) {
  char digits[16];
  const auto [last, ec] = std::to_chars(digits, digits + sizeof digits, value);
  (void)ec;  // int always fits
  out.append(digits, last);
}

/// Appends "(x,y)" — the same bytes the reference's fmt_point produces.
void append_point(std::string& out, Point p) {
  out.push_back('(');
  append_int(out, p.x);
  out.push_back(',');
  append_int(out, p.y);
  out.push_back(')');
}

std::string fmt_point(Point p) {
  std::string text;
  append_point(text, p);
  return text;
}

// A* frontier nodes packed into one integer so the open list is a flat
// uint64 binary heap (no per-node allocation, one cache line per 8
// nodes): f in the top 22 bits, g (complemented) in the middle 21, cell
// index in the low 20. Complementing g makes equal-f ties pop the
// *deepest* node first, which drives the search straight at the goal
// instead of sweeping the whole equal-f frontier. The tie-break differs
// from the reference router's (f, g, (x, y)) order, but only the
// optimal path *length* is consumed and that is invariant to expansion
// order under the admissible Manhattan heuristic.
constexpr int kIndexBits = 20;
constexpr int kGBits = 21;
constexpr std::uint64_t kGMask = (1u << kGBits) - 1;
constexpr long long kMaxAStarCells = 1LL << kIndexBits;

constexpr std::uint64_t pack_node(int f, int g, int index) {
  return (static_cast<std::uint64_t>(f) << (kIndexBits + kGBits)) |
         ((kGMask - static_cast<std::uint64_t>(g)) << kIndexBits) |
         static_cast<std::uint64_t>(index);
}
constexpr int node_g(std::uint64_t key) {
  return static_cast<int>(kGMask - ((key >> kIndexBits) & kGMask));
}
constexpr int node_index(std::uint64_t key) {
  return static_cast<int>(key & ((1u << kIndexBits) - 1));
}

/// One entry in the event queue. `phase` orders ties at one instant:
/// teardowns (0) dispatch before starts (1), matching the changeover
/// model where transport happens while the array is reprogrammed; `seq`
/// replays the reference's (start_s, schedule index) processing order.
struct QueuedEvent {
  double time_s = 0.0;
  int phase = 0;
  int seq = 0;
  int module = -1;
};

/// Min-heap comparator (std::push_heap wants "a sorts before b" = fires
/// later, so the heap root is the earliest event).
bool fires_later(const QueuedEvent& a, const QueuedEvent& b) {
  if (a.time_s != b.time_s) return a.time_s > b.time_s;
  if (a.phase != b.phase) return a.phase > b.phase;
  return a.seq > b.seq;
}

}  // namespace

EventSimEngine::EventSimEngine(SimOptions options) : options_(options) {}

SimEngineRun EventSimEngine::run(const SequencingGraph& graph,
                                 const Schedule& schedule,
                                 const Placement& placement,
                                 const Chip& chip) {
  return run_online(graph, schedule, placement, chip, FaultInjectionPlan{});
}

SimEngineRun EventSimEngine::run_online(const SequencingGraph& graph,
                                        const Schedule& schedule,
                                        const Placement& placement,
                                        const Chip& chip,
                                        const FaultInjectionPlan& plan,
                                        const SimCheckpoint* resume_from,
                                        SimCheckpoint* checkpoint_out) {
  if (schedule.module_count() != placement.module_count()) {
    throw std::invalid_argument(
        "EventSimEngine::run: schedule and placement disagree on module "
        "count");
  }
  const Rect region{0, 0, chip.width(), chip.height()};
  const Rect bbox = placement.bounding_box();
  if (!region.contains(bbox)) {
    throw std::invalid_argument(
        "EventSimEngine::run: chip smaller than the placement bounding box");
  }
  for (const PlannedFault& fault : plan.faults) {
    if (!region.contains(Rect{fault.cell.x, fault.cell.y, 1, 1})) {
      throw std::invalid_argument(
          "EventSimEngine::run_online: planned fault outside the chip");
    }
  }
  if (resume_from != nullptr &&
      (!resume_from->valid ||
       resume_from->start_done.size() !=
           static_cast<std::size_t>(schedule.module_count()))) {
    throw std::invalid_argument(
        "EventSimEngine::run_online: checkpoint does not match the schedule");
  }

  SimEngineRun out;
  SimulationResult& result = out.result;
  SimEngineTelemetry& telemetry = out.telemetry;
  const int module_count = schedule.module_count();
  const int op_count = graph.operation_count();

  // ---- per-run scratch reset (buffers persist across runs) ----
  // Fast path: a clean previous run left blocked_ at its faults-only
  // state, and a chip with fault_revision() == 0 provably never had a
  // fault injected — with matching dimensions and an empty cached fault
  // set the grids are already exactly right, no O(W*H) work needed.
  const bool reuse_grids = grid_clean_ && faults_.empty() &&
                           chip.fault_revision() == 0 &&
                           blocked_.width() == region.width &&
                           blocked_.height() == region.height;
  if (!reuse_grids) {
    blocked_.reset(region.width, region.height, 0);
    fault_grid_.reset(region.width, region.height, 0);
    faults_.clear();
    fault_bbox_ = Rect{};
    if (chip.fault_revision() != 0) {
      for (int y = 0; y < region.height; ++y) {
        for (int x = 0; x < region.width; ++x) {
          const Point p{x, y};
          if (chip.is_faulty(p)) {
            faults_.push_back(p);  // row-major: = faulty_cells() order
            fault_grid_.at(p) = 1;
            blocked_.at(p) = 1;
            fault_bbox_ = fault_bbox_.united(Rect{x, y, 1, 1});
          }
        }
      }
    }
  }
  grid_clean_ = false;  // until this run tears every module down again
  filled_.clear();
  filled_rects_.clear();
  pending_fills_.clear();
  func_rects_.clear();
  func_rects_.reserve(static_cast<std::size_t>(module_count));
  for (int i = 0; i < module_count; ++i) {
    func_rects_.push_back(
        placement.module(i).footprint().inflated(-kSegregationRingCells));
  }
  const std::size_t cell_count = static_cast<std::size_t>(blocked_.size());
  if (astar_stamp_.size() != cell_count) {
    astar_stamp_.assign(cell_count, 0);
    astar_g_.resize(cell_count);
    astar_generation_ = 0;
  }

  // Droplet state, dense by operation id (the reference keeps maps; ids
  // and contents come out identical because creation order is replayed).
  // Operation outputs live directly in result.op_outputs — std::map nodes
  // are address-stable, so droplet_ref aliases them instead of keeping a
  // second copy; only dispense droplets that have not produced an output
  // yet need their own storage.
  std::vector<Droplet*> droplet_ref(static_cast<std::size_t>(op_count),
                                    nullptr);
  std::vector<std::optional<Droplet>> dispensed(
      static_cast<std::size_t>(op_count));
  std::vector<Point> droplet_pos(static_cast<std::size_t>(op_count));
  std::vector<std::uint8_t> droplet_placed(static_cast<std::size_t>(op_count),
                                           0);
  int next_droplet_id = 0;

  // Online bookkeeping: which start/end events already dispatched (this
  // is what a checkpoint snapshots), the injection cursor, and — when
  // both injection and the log are on — where each started module's
  // deferred (end-timestamped) "finish"/"split" lines sit in the event
  // log, so a fault detected under a live module can roll exactly those
  // lines back.
  const bool injecting = !plan.faults.empty();
  std::vector<std::uint8_t> start_done(static_cast<std::size_t>(module_count),
                                       0);
  std::vector<std::uint8_t> end_done(static_cast<std::size_t>(module_count),
                                     0);
  std::size_t fault_cursor = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> deferred_range;
  if (injecting && options_.record_events) {
    deferred_range.assign(static_cast<std::size_t>(module_count), {0u, 0u});
  }

  if (options_.record_events) {
    // ~2-4 lines per module (start/finish/stored/split/dispense).
    result.events.reserve(static_cast<std::size_t>(module_count) * 4);
  }
  auto push_event = [&](double t) {
    result.events.push_back(SimEvent{t, event_buffer_});
  };

  // ---- blocked-grid maintenance: event-driven stamping ----
  // The dispatch loop owns the grid; routing calls never rebuild it. A
  // start event *pends* its module's functional rect — the reference's
  // active predicate is strict on both ends, so a module never blocks at
  // its own start instant — and pending rects are stamped when the clock
  // first advances past that instant. An end event clears the rect and
  // re-stamps any faults under it; teardowns dispatch before starts at
  // one instant, so every route at t sees exactly the modules running
  // *across* t, the set the reference recomputes from scratch per call.
  // The reference's `exclude` needs no counterpart here: the module being
  // serviced is at most pending, never stamped, at its own start.
  // Placement feasibility makes time-overlapping footprints spatially
  // disjoint, so a teardown's clear cannot erase another active module.
  bool grid_dirty_since_route = true;
  auto clear_rect = [&](const Rect& r) {
    blocked_.fill_rect(r, 0);
    const Rect clipped = r.intersection(region);
    const Rect overlap = clipped.intersection(fault_bbox_);
    for (int y = overlap.y; y < overlap.top(); ++y) {
      for (int x = overlap.x; x < overlap.right(); ++x) {
        if (fault_grid_.at(x, y) != 0) blocked_.at(x, y) = 1;
      }
    }
  };
  auto flush_pending_fills = [&]() {
    for (int idx : pending_fills_) {
      const Rect& r = func_rects_[static_cast<std::size_t>(idx)];
      blocked_.fill_rect(r, 1);
      filled_.push_back(idx);
      filled_rects_.push_back(r);
    }
    pending_fills_.clear();
    grid_dirty_since_route = true;
  };

  // ---- shortest-path length on the current blocked grid ----
  // Returns the optimal path length in moves, 0 for from==to, -1 when
  // unreachable — exactly the values the reference extracts from
  // find_path (path->size() - 1), with the same endpoint guards.
  auto astar_length = [&](Point from, Point to) -> int {
    ++astar_generation_;
    if (astar_generation_ == 0) {  // uint32 wrap: restamp everything once
      std::fill(astar_stamp_.begin(), astar_stamp_.end(), 0u);
      astar_generation_ = 1;
    }
    std::vector<std::uint64_t>& heap = frontier_;
    heap.clear();
    const int width = blocked_.width();
    const int to_index = to.y * width + to.x;
    const int from_index = from.y * width + from.x;
    astar_g_[static_cast<std::size_t>(from_index)] = 0;
    astar_stamp_[static_cast<std::size_t>(from_index)] = astar_generation_;
    heap.push_back(pack_node(manhattan_distance(from, to), 0, from_index));
    std::push_heap(heap.begin(), heap.end(), std::greater<std::uint64_t>());
    ++telemetry.astar_pushes;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<std::uint64_t>());
      const std::uint64_t key = heap.back();
      heap.pop_back();
      const int g = node_g(key);
      const int index = node_index(key);
      if (index == to_index) return g;  // first goal pop is optimal
      if (g > astar_g_[static_cast<std::size_t>(index)]) continue;  // stale
      const int x = index % width;
      const int y = index / width;
      const Point steps[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
      for (const Point& step : steps) {
        const int nx = x + step.x;
        const int ny = y + step.y;
        if (!blocked_.in_bounds(nx, ny) || blocked_.at(nx, ny) != 0) continue;
        const int nindex = ny * width + nx;
        const int ng = g + 1;
        if (astar_stamp_[static_cast<std::size_t>(nindex)] !=
                astar_generation_ ||
            ng < astar_g_[static_cast<std::size_t>(nindex)]) {
          astar_g_[static_cast<std::size_t>(nindex)] = ng;
          astar_stamp_[static_cast<std::size_t>(nindex)] = astar_generation_;
          heap.push_back(pack_node(
              ng + std::abs(nx - to.x) + std::abs(ny - to.y), ng, nindex));
          std::push_heap(heap.begin(), heap.end(),
                         std::greater<std::uint64_t>());
          ++telemetry.astar_pushes;
        }
      }
    }
    return -1;
  };
  auto route_length = [&](Point from, Point to) -> int {
    if (!blocked_.in_bounds(from) || !blocked_.in_bounds(to)) return -1;
    if (blocked_.at(from) != 0 || blocked_.at(to) != 0) return -1;
    if (from == to) return 0;
    // Manhattan fast path: with no active-module rect and no fault inside
    // the source-target bounding box, a staircase walk is unobstructed
    // and the Manhattan distance is the exact optimum.
    const Rect corridor{std::min(from.x, to.x), std::min(from.y, to.y),
                        std::abs(from.x - to.x) + 1,
                        std::abs(from.y - to.y) + 1};
    bool obstructed = false;
    for (const Rect& r : filled_rects_) {
      if (r.intersects(corridor)) {
        obstructed = true;
        break;
      }
    }
    if (!obstructed && corridor.intersects(fault_bbox_)) {
      for (const Point& f : faults_) {
        if (corridor.contains(f)) {
          obstructed = true;
          break;
        }
      }
    }
    if (!obstructed) {
      ++telemetry.manhattan_fast_paths;
      return manhattan_distance(from, to);
    }
    if (blocked_.size() >= kMaxAStarCells) {
      // Grid too large for packed nodes (>1M cells): use the reference
      // router; correctness over speed for out-of-envelope chips.
      const auto path = find_path(blocked_, from, to);
      return path ? static_cast<int>(path->size()) - 1 : -1;
    }
    return astar_length(from, to);
  };

  // ---- stall diagnosis (engine-only; the reference just says "cannot
  // reach"). Cold path: runs at most once, on the event that fails. ----
  auto blockers_on_witness = [&](const DropletPath& witness) {
    StallReport& stall = out.stall;
    double earliest = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < filled_.size(); ++k) {
      const Rect& r = filled_rects_[k];
      for (const Point& cell : witness) {
        if (r.contains(cell)) {
          stall.blocking_modules.push_back(filled_[k]);
          earliest = std::min(earliest, schedule.module(filled_[k]).end_s);
          break;
        }
      }
    }
    if (!stall.blocking_modules.empty()) stall.earliest_unblock_s = earliest;
    // filled_ is maintained swap-erase order; the report promises
    // schedule order.
    std::sort(stall.blocking_modules.begin(), stall.blocking_modules.end());
  };
  auto describe_blockers = [&](std::ostringstream& os, double t) {
    const StallReport& stall = out.stall;
    os << "blocked by {";
    for (std::size_t k = 0; k < stall.blocking_modules.size(); ++k) {
      const ScheduledModule& b = schedule.module(stall.blocking_modules[k]);
      if (k > 0) os << ", ";
      os << b.label << " [" << b.start_s << "," << b.end_s << ")s";
    }
    os << "}; earliest teardown t=" << stall.earliest_unblock_s << "s";
    if (stall.earliest_unblock_s > t + kEps) {
      os << " — transport happens at the changeover instant, so the "
            "schedule must be retimed past that teardown";
    }
  };
  auto diagnose_route_stall = [&](double t, int waiting, OperationId producer,
                                  Point from, Point target) {
    StallReport& stall = out.stall;
    stall.stalled = true;
    stall.time_s = t;
    stall.waiting_module = waiting;
    stall.droplet_label = graph.operation(producer).label;
    stall.target = target;
    std::ostringstream os;
    os << "droplet of '" << stall.droplet_label << "' -> module '"
       << schedule.module(waiting).label << "' at t=" << t << "s: ";
    // Witness route on the faults-only grid: if none exists even with
    // every module torn down, defects sever the path outright.
    const auto witness = find_path(fault_grid_, from, target);
    if (!witness) {
      stall.fault_walled = true;
      os << "no path exists even with every module torn down — faulty "
            "electrodes wall the target off";
    } else {
      blockers_on_witness(*witness);
      if (stall.blocking_modules.empty()) {
        // Endpoint blocked rather than path crossed (e.g. infeasible
        // placement overlapping the target).
        os << "route endpoint occupied by an active module";
      } else {
        describe_blockers(os, t);
      }
    }
    stall.chain = os.str();
  };
  auto diagnose_dispense_stall = [&](double t, int waiting, Point target) {
    StallReport& stall = out.stall;
    stall.stalled = true;
    stall.time_s = t;
    stall.waiting_module = waiting;
    stall.target = target;
    // Which running modules cover perimeter cells? If none do, only
    // faults can be occupying the boundary.
    const Rect edges[4] = {{0, 0, region.width, 1},
                           {0, region.height - 1, region.width, 1},
                           {0, 0, 1, region.height},
                           {region.width - 1, 0, 1, region.height}};
    double earliest = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < filled_.size(); ++k) {
      for (const Rect& edge : edges) {
        if (filled_rects_[k].intersects(edge)) {
          stall.blocking_modules.push_back(filled_[k]);
          earliest = std::min(earliest, schedule.module(filled_[k]).end_s);
          break;
        }
      }
    }
    std::sort(stall.blocking_modules.begin(), stall.blocking_modules.end());
    std::ostringstream os;
    os << "dispense for module '" << schedule.module(waiting).label
       << "' at t=" << t << "s: every perimeter cell is occupied";
    if (stall.blocking_modules.empty()) {
      stall.fault_walled = true;
      os << " by faulty electrodes";
    } else {
      stall.earliest_unblock_s = earliest;
      os << "; ";
      describe_blockers(os, t);
    }
    stall.chain = os.str();
  };

  // ---- the reference's route_droplet, on pooled state ----
  auto route_droplet = [&](OperationId producer, Point target, double t,
                           int exclude_module) -> bool {
    if (!options_.verify_routing) {
      droplet_pos[static_cast<std::size_t>(producer)] = target;
      droplet_placed[static_cast<std::size_t>(producer)] = 1;
      return true;
    }
    ScopedCostTimer timer(telemetry.route_cost);
    if (!grid_dirty_since_route) ++telemetry.blocked_grid_reuses;
    grid_dirty_since_route = false;

    // Dispense droplets enter at the free perimeter cell nearest the
    // target; their reservoir sits off-chip next to it.
    Point from;
    if (droplet_placed[static_cast<std::size_t>(producer)] != 0) {
      from = droplet_pos[static_cast<std::size_t>(producer)];
    } else {
      int best_distance = -1;
      Point best{-1, -1};
      // The reference enumerates the bottom/top rows then the left/right
      // columns in full, visiting the four corners twice; skipping the
      // corner rows in the second sweep is result-identical because the
      // strict `<` comparison always keeps the *first* minimal cell.
      for (int x = 0; x < region.width; ++x) {
        for (int y : {0, region.height - 1}) {
          const Point p{x, y};
          if (blocked_.at(p) == 0) {
            const int d = manhattan_distance(p, target);
            if (best_distance < 0 || d < best_distance) {
              best_distance = d;
              best = p;
            }
          }
        }
      }
      for (int y = 1; y < region.height - 1; ++y) {
        for (int x : {0, region.width - 1}) {
          const Point p{x, y};
          if (blocked_.at(p) == 0) {
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
        diagnose_dispense_stall(t, exclude_module, target);
        return false;
      }
      from = best;
      if (options_.record_events) {
        event_buffer_.clear();
        event_buffer_.append("dispense '");
        event_buffer_.append(graph.operation(producer).reagent);
        event_buffer_.append("' enters at ");
        append_point(event_buffer_, from);
        push_event(t);
      }
    }

    const int length = route_length(from, target);
    if (length < 0) {
      std::ostringstream os;
      os << "droplet of '" << graph.operation(producer).label
         << "' cannot reach " << fmt_point(target) << " at t=" << t;
      result.failure_reason = os.str();
      diagnose_route_stall(t, exclude_module, producer, from, target);
      return false;
    }
    ++result.routes_planned;
    ++telemetry.routes_planned;
    result.route_cells += length;
    if (length > 0 && options_.droplet_speed_cells_per_s > 0.0) {
      result.transport_seconds += length / options_.droplet_speed_cells_per_s;
    }
    droplet_pos[static_cast<std::size_t>(producer)] = target;
    droplet_placed[static_cast<std::size_t>(producer)] = 1;
    return true;
  };

  // Droplet bookkeeping for a dispense operation reaching its consumer.
  auto droplet_for = [&](OperationId op) -> Droplet& {
    Droplet*& ref = droplet_ref[static_cast<std::size_t>(op)];
    if (ref == nullptr) {
      const Operation& o = graph.operation(op);
      std::optional<Droplet>& slot = dispensed[static_cast<std::size_t>(op)];
      slot.emplace(next_droplet_id++, Point{},
                   o.reagent.empty() ? o.label : o.reagent);
      ref = &*slot;
    }
    return *ref;
  };

  auto fail_on_fault = [&](int index, const Rect& fp, double t) -> bool {
    if (faults_.empty() || !fp.intersects(fault_bbox_)) return false;
    // Row-major scan over the footprint finds the same first fault as the
    // reference's linear pass over faulty_cells() (itself row-major).
    const Rect clipped = fp.intersection(region);
    for (int y = clipped.y; y < clipped.top(); ++y) {
      for (int x = clipped.x; x < clipped.right(); ++x) {
        if (fault_grid_.at(x, y) == 0) continue;
        const Point f{x, y};
        result.failure_reason = "module '" + schedule.module(index).label +
                                "' contains faulty cell " + fmt_point(f);
        result.failed_module = index;
        result.fault_cell = f;
        if (options_.record_events) {
          result.events.push_back(SimEvent{t, result.failure_reason});
        }
        return true;
      }
    }
    return false;
  };

  // Executes one module-start event: route inputs in, merge, split,
  // record outputs. Returns false when the run fails here.
  auto process_module_start = [&](int index) -> bool {
    const ScheduledModule& sm = schedule.module(index);
    const Rect fp = placement.module(index).footprint();
    const Point site = footprint_center(fp);

    if (fail_on_fault(index, fp, sm.start_s)) return false;

    if (sm.op_id < 0) {
      // Inserted storage: move the producer's droplet into the store.
      if (sm.producer_op >= 0) {
        if (!route_droplet(sm.producer_op, site, sm.start_s, index)) {
          result.failed_module = index;
          return false;
        }
        if (options_.record_events) {
          event_buffer_.clear();
          event_buffer_.append("droplet of '");
          event_buffer_.append(graph.operation(sm.producer_op).label);
          event_buffer_.append("' stored in ");
          event_buffer_.append(sm.label);
          event_buffer_.append(" at ");
          append_point(event_buffer_, site);
          push_event(sm.start_s);
        }
      }
      return true;
    }

    const Operation& op = graph.operation(sm.op_id);
    if (options_.record_events) {
      event_buffer_.clear();
      event_buffer_.append("start '");
      event_buffer_.append(op.label);
      event_buffer_.append("' (");
      event_buffer_.append(sm.spec.name);
      event_buffer_.append(") at ");
      append_point(event_buffer_, site);
      push_event(sm.start_s);
    }

    // Route every input droplet to the module site and merge.
    Droplet mixed;
    bool first_input = true;
    for (OperationId pred : graph.predecessors(sm.op_id)) {
      if (!route_droplet(pred, site, sm.start_s, index)) {
        result.failed_module = index;
        return false;
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
      mixed = Droplet(next_droplet_id++, site, op.label);
    }
    mixed.move_to(site);

    if (!deferred_range.empty()) {
      deferred_range[static_cast<std::size_t>(index)].first =
          static_cast<std::uint32_t>(result.events.size());
    }
    if (op.type == OperationType::kDilute) {
      // Discard one half to waste; the remaining half is the output.
      Droplet waste = mixed.split(next_droplet_id++, site);
      if (options_.record_events) {
        event_buffer_.clear();
        event_buffer_.push_back('\'');
        event_buffer_.append(op.label);
        event_buffer_.append("' split; ");
        event_buffer_.append(std::to_string(waste.volume_nl()));
        event_buffer_.append(" nl sent to waste");
        push_event(sm.end_s);
      }
    }

    // One droplet copy in total (the `mixed = input` seed above): the
    // merged result is moved into op_outputs and downstream consumers
    // alias the map node. The reference copies the contents map thrice.
    Droplet& stored = result.op_outputs[sm.op_id];
    stored = std::move(mixed);
    droplet_ref[static_cast<std::size_t>(sm.op_id)] = &stored;
    droplet_pos[static_cast<std::size_t>(sm.op_id)] = site;
    droplet_placed[static_cast<std::size_t>(sm.op_id)] = 1;
    if (options_.record_events) {
      event_buffer_.clear();
      event_buffer_.append("finish '");
      event_buffer_.append(op.label);
      event_buffer_.push_back('\'');
      push_event(sm.end_s);
    }
    if (!deferred_range.empty()) {
      deferred_range[static_cast<std::size_t>(index)].second =
          static_cast<std::uint32_t>(result.events.size());
    }
    return true;
  };

  // ---- seed the event queue ----
  // Start events replay the reference's (start_s, schedule index)
  // processing order through their `seq` rank; end events clear their
  // module's rect from the blocked grid at teardown.
  std::vector<int> order(static_cast<std::size_t>(module_count));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (schedule.module(a).start_s != schedule.module(b).start_s) {
      return schedule.module(a).start_s < schedule.module(b).start_s;
    }
    return a < b;
  });
  // ---- checkpointed resume: restore mid-flight state ----
  // The prior invocation failed at time_s; recovery retimed/repaired in
  // between. Completed modules replay nothing (their events are already
  // in the restored log), in-flight modules re-arm only their end
  // events, and the droplet inventory picks up exactly where it stopped.
  double now = -std::numeric_limits<double>::infinity();
  if (resume_from != nullptr) {
    const SimCheckpoint& c = *resume_from;
    now = c.time_s;
    start_done = c.start_done;
    end_done = c.end_done;
    result.op_outputs = c.op_outputs;
    for (auto& [op, droplet] : result.op_outputs) {
      droplet_ref[static_cast<std::size_t>(op)] = &droplet;
    }
    dispensed = c.dispensed;
    dispensed.resize(static_cast<std::size_t>(op_count));
    for (std::size_t op = 0; op < dispensed.size(); ++op) {
      if (dispensed[op].has_value() && droplet_ref[op] == nullptr) {
        droplet_ref[op] = &*dispensed[op];
      }
    }
    droplet_pos = c.droplet_pos;
    droplet_pos.resize(static_cast<std::size_t>(op_count));
    droplet_placed = c.droplet_placed;
    droplet_placed.resize(static_cast<std::size_t>(op_count), 0);
    next_droplet_id = c.next_droplet_id;
    result.events = c.events;
    result.routes_planned = c.routes_planned;
    result.route_cells = c.route_cells;
    result.transport_seconds = c.transport_seconds;
    // Re-arm the grid: modules in flight at the failure go back to
    // blocking (started strictly before the checkpoint instant) or
    // pending (started exactly at it — the strict active predicate keeps
    // them transparent to other transfers at that same instant).
    if (options_.verify_routing) {
      for (int i = 0; i < module_count; ++i) {
        if (start_done[static_cast<std::size_t>(i)] == 0 ||
            end_done[static_cast<std::size_t>(i)] != 0) {
          continue;
        }
        const ScheduledModule& sm = schedule.module(i);
        if (!(sm.end_s > sm.start_s)) continue;
        if (sm.start_s < now - kEps) {
          const Rect& r = func_rects_[static_cast<std::size_t>(i)];
          blocked_.fill_rect(r, 1);
          filled_.push_back(i);
          filled_rects_.push_back(r);
        } else {
          pending_fills_.push_back(i);
        }
      }
    }
  }

  std::vector<QueuedEvent> queue;
  queue.reserve(static_cast<std::size_t>(module_count) * 2);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const int index = order[rank];
    if (start_done[static_cast<std::size_t>(index)] == 0) {
      queue.push_back(QueuedEvent{schedule.module(index).start_s, 1,
                                  static_cast<int>(rank), index});
    }
    if (end_done[static_cast<std::size_t>(index)] == 0) {
      queue.push_back(
          QueuedEvent{schedule.module(index).end_s, 0, index, index});
    }
  }
  std::make_heap(queue.begin(), queue.end(), fires_later);

  // ---- failure-instant snapshot (nullable) ----
  auto capture = [&](double t) {
    if (checkpoint_out == nullptr) return;
    SimCheckpoint& c = *checkpoint_out;
    c.valid = true;
    c.time_s = t;
    c.failed_module = result.failed_module;
    c.start_done = start_done;
    c.end_done = end_done;
    c.op_outputs = result.op_outputs;
    c.dispensed = dispensed;
    c.droplet_pos = droplet_pos;
    c.droplet_placed = droplet_placed;
    c.next_droplet_id = next_droplet_id;
    // The clean completed prefix: everything logged up to (not
    // including) the failure-reason line, which the recovery driver
    // re-appends along with its own markers.
    c.events = result.events;
    if (!c.events.empty() && c.events.back().what == result.failure_reason) {
      c.events.pop_back();
    }
    c.routes_planned = result.routes_planned;
    c.route_cells = result.route_cells;
    c.transport_seconds = result.transport_seconds;
  };

  // ---- mid-run fault injection ----
  // Rolls an interrupted module's optimistic effects back so the resumed
  // run re-executes it: its output droplet, its deferred finish/split
  // log lines, its start_done bit and its blocked-grid stamp.
  auto rollback_module = [&](int index) {
    if (!deferred_range.empty()) {
      const auto [begin, end] = deferred_range[static_cast<std::size_t>(index)];
      if (end > begin && end <= result.events.size()) {
        result.events.erase(result.events.begin() + begin,
                            result.events.begin() + end);
      }
    }
    const ScheduledModule& sm = schedule.module(index);
    if (sm.op_id >= 0) {
      result.op_outputs.erase(sm.op_id);
      droplet_ref[static_cast<std::size_t>(sm.op_id)] = nullptr;
      droplet_placed[static_cast<std::size_t>(sm.op_id)] = 0;
    }
    start_done[static_cast<std::size_t>(index)] = 0;
    if (auto it = std::find(pending_fills_.begin(), pending_fills_.end(), index);
        it != pending_fills_.end()) {
      pending_fills_.erase(it);
    }
    for (std::size_t k = 0; k < filled_.size(); ++k) {
      if (filled_[k] == index) {
        clear_rect(filled_rects_[k]);
        filled_[k] = filled_.back();
        filled_rects_[k] = filled_rects_.back();
        filled_.pop_back();
        filled_rects_.pop_back();
        grid_dirty_since_route = true;
        break;
      }
    }
  };
  // Injects one planned fault at simulated instant t_eff. Returns true
  // when the run fails right here: concurrent testing detects a fault
  // under a live operation immediately; a fault elsewhere stays latent
  // until a start-time scan or a routing stall trips over it.
  auto apply_fault = [&](const PlannedFault& fault, double t_eff) -> bool {
    out.faults_fired.push_back(FiredFault{fault.cell, t_eff});
    if (fault_grid_.at(fault.cell) == 0) {
      fault_grid_.at(fault.cell) = 1;
      blocked_.at(fault.cell) = 1;
      const auto row_major_less = [](const Point& a, const Point& b) {
        if (a.y != b.y) return a.y < b.y;
        return a.x < b.x;
      };
      faults_.insert(std::lower_bound(faults_.begin(), faults_.end(),
                                      fault.cell, row_major_less),
                     fault.cell);
      fault_bbox_ =
          fault_bbox_.united(Rect{fault.cell.x, fault.cell.y, 1, 1});
      grid_dirty_since_route = true;
    }
    for (int i = 0; i < module_count; ++i) {
      if (start_done[static_cast<std::size_t>(i)] == 0 ||
          end_done[static_cast<std::size_t>(i)] != 0) {
        continue;
      }
      const ScheduledModule& sm = schedule.module(i);
      if (t_eff + kEps >= sm.end_s) continue;  // logically complete already
      if (!placement.module(i).footprint().contains(fault.cell)) continue;
      rollback_module(i);
      result.failure_reason = "module '" + sm.label +
                              "' contains faulty cell " + fmt_point(fault.cell);
      result.failed_module = i;
      result.fault_cell = fault.cell;
      if (options_.record_events) {
        result.events.push_back(SimEvent{t_eff, result.failure_reason});
      }
      return true;
    }
    return false;
  };

  // ---- dispatch loop ----
  while (!queue.empty()) {
    std::pop_heap(queue.begin(), queue.end(), fires_later);
    const QueuedEvent ev = queue.back();
    queue.pop_back();
    // Fire every planned fault due before this event dispatches. A time
    // trigger fires once the next event's time reaches it (the fault's
    // own timestamp is the detection instant); an event-count trigger
    // fires between the k-th and (k+1)-th dispatch of this invocation.
    while (injecting && fault_cursor < plan.faults.size()) {
      const PlannedFault& planned = plan.faults[fault_cursor];
      const bool due_time = planned.time_s >= 0.0 && planned.time_s <= ev.time_s;
      const bool due_count =
          planned.time_s < 0.0 && planned.after_event >= 0 &&
          telemetry.events_dispatched >= planned.after_event;
      if (!due_time && !due_count) break;
      ++fault_cursor;
      const double t_eff =
          due_time ? std::max(planned.time_s, now)
                   : (now > -std::numeric_limits<double>::infinity()
                          ? now
                          : ev.time_s);
      if (apply_fault(planned, t_eff)) {
        capture(t_eff);
        return out;
      }
    }
    ++telemetry.events_dispatched;
    if (ev.time_s > now) {
      // The clock advanced past the instant the pending modules started
      // at; from here on they block transport.
      if (!pending_fills_.empty()) flush_pending_fills();
      now = ev.time_s;
    }
    if (ev.phase == 0) {
      // Teardown: clear the rect if the module ever got stamped (a
      // zero-duration module ends before it starts and never pends).
      for (std::size_t k = 0; k < filled_.size(); ++k) {
        if (filled_[k] == ev.module) {
          clear_rect(filled_rects_[k]);
          filled_[k] = filled_.back();
          filled_rects_[k] = filled_rects_.back();
          filled_.pop_back();
          filled_rects_.pop_back();
          grid_dirty_since_route = true;
          break;
        }
      }
      end_done[static_cast<std::size_t>(ev.module)] = 1;
      continue;
    }
    if (!process_module_start(ev.module)) {
      capture(ev.time_s);
      return out;
    }
    start_done[static_cast<std::size_t>(ev.module)] = 1;
    const ScheduledModule& started = schedule.module(ev.module);
    if (options_.verify_routing && started.end_s > started.start_s) {
      pending_fills_.push_back(ev.module);
    }
  }

  // Every stamped module was torn down by its end event, so the grid is
  // back to its faults-only state — the next run on an unmutated chip of
  // the same dimensions skips the rebuild.
  grid_clean_ = filled_.empty() && pending_fills_.empty();
  result.success = true;
  result.makespan_s = schedule.makespan_s();
  return out;
}

}  // namespace dmfb
