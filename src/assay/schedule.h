// schedule.h — the output of architectural-level synthesis: each bound
// operation gets a module type and a start time. Placement consumes this
// (module footprints + fixed time intervals) as its input.
#pragma once

#include <string>
#include <vector>

#include "assay/sequencing_graph.h"
#include "biochip/module_spec.h"

namespace dmfb {

/// One scheduled, bound module usage. `op_id` is -1 for helper modules the
/// synthesizer inserts itself (e.g., storage for droplets waiting between
/// operations).
struct ScheduledModule {
  OperationId op_id = -1;
  std::string label;       ///< e.g. "M1" or "S(M3)" for inserted storage
  ModuleSpec spec;
  double start_s = 0.0;
  double end_s = 0.0;
  /// For inserted storage modules: the operation whose output droplet is
  /// held, and the operation that will consume it. -1 otherwise.
  OperationId producer_op = -1;
  OperationId consumer_op = -1;

  double duration_s() const { return end_s - start_s; }

  /// Open-interval time overlap; back-to-back modules (end == start) may
  /// share cells, which is exactly the dynamic reuse the paper exploits.
  bool time_overlaps(const ScheduledModule& other) const {
    return start_s < other.end_s && other.start_s < end_s;
  }
};

/// A maximal interval of time during which the set of active modules is
/// constant — one "configuration" (horizontal cut of the 3-D boxes, Fig. 2).
struct TimeSlice {
  double begin_s = 0.0;
  double end_s = 0.0;
  std::vector<int> active;  ///< indices into Schedule::modules()
};

/// A complete schedule for one assay.
class Schedule {
 public:
  Schedule() = default;

  void add(ScheduledModule module);

  const std::vector<ScheduledModule>& modules() const { return modules_; }
  int module_count() const { return static_cast<int>(modules_.size()); }
  const ScheduledModule& module(int index) const { return modules_.at(index); }

  /// Completion time of the last module (0 for an empty schedule). Note
  /// that for a schedule produced by the list scheduler this treats
  /// configuration changeovers as instantaneous; the transport-inclusive
  /// makespan is the makespan of `fold_transport(schedule, plan)`
  /// (sim/route_planner.h), which retimes the schedule by the routed
  /// droplet-transport times.
  double makespan_s() const;

  /// Retiming primitive: delays every module whose start is at or after
  /// `from_s` by `delta_s` (start and end shift together, so durations are
  /// preserved). Modules already running at `from_s` are left alone. With
  /// `delta_s >= 0`, gaps between modules never shrink, so precedence and
  /// time-disjointness are preserved — a placement feasible for the
  /// original schedule stays feasible for the shifted one. Throws
  /// std::invalid_argument on a negative delta (compressing a schedule
  /// can create overlaps the placement never priced).
  void shift_from(double from_s, double delta_s);

  /// Retiming primitive for online recovery: rewrites one module's
  /// interval in place (duration may change; end must stay >= start).
  /// Unlike shift_from this can create overlaps the placement never
  /// priced — callers own feasibility. The recovery engine uses it to
  /// re-run an interrupted operation from the detection instant
  /// (sim/recovery.h), after shift_from has pushed the successors out.
  void retime(int index, double start_s, double end_s);

  /// Splits [0, makespan) at every module start/end into maximal constant
  /// configurations, skipping zero-length intervals.
  std::vector<TimeSlice> time_slices() const;

  /// Indices of modules active at time t (start <= t < end).
  std::vector<int> active_at(double t) const;

  /// Largest total footprint (in cells) over all time slices — a lower
  /// bound on any feasible array area.
  long long peak_concurrent_cells() const;

  /// Checks precedence against `graph`: for every edge u -> v between
  /// reconfigurable operations present in the schedule,
  /// start(v) >= end(u). Returns a human-readable violation list.
  std::vector<std::string> validate_against(const SequencingGraph& graph) const;

 private:
  std::vector<ScheduledModule> modules_;
};

/// Renders a schedule as an ASCII Gantt chart (one row per module, '#'
/// during the module's active interval) — the shape of the paper's Fig. 6.
std::string render_gantt(const Schedule& schedule,
                         double seconds_per_column = 1.0);

}  // namespace dmfb
