#include "assay/schedule.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

namespace dmfb {

void Schedule::add(ScheduledModule module) {
  if (module.end_s < module.start_s) {
    throw std::invalid_argument("Schedule: module ends before it starts");
  }
  modules_.push_back(std::move(module));
}

double Schedule::makespan_s() const {
  double makespan = 0.0;
  for (const auto& m : modules_) makespan = std::max(makespan, m.end_s);
  return makespan;
}

void Schedule::shift_from(double from_s, double delta_s) {
  if (delta_s < 0.0) {
    throw std::invalid_argument("Schedule::shift_from: negative delta");
  }
  if (delta_s == 0.0) return;
  constexpr double kEps = 1e-9;
  for (auto& m : modules_) {
    if (m.start_s + kEps < from_s) continue;
    m.start_s += delta_s;
    m.end_s += delta_s;
  }
}

void Schedule::retime(int index, double start_s, double end_s) {
  if (end_s < start_s) {
    throw std::invalid_argument("Schedule::retime: end before start");
  }
  ScheduledModule& m = modules_.at(static_cast<std::size_t>(index));
  m.start_s = start_s;
  m.end_s = end_s;
}

std::vector<TimeSlice> Schedule::time_slices() const {
  std::set<double> boundaries;
  for (const auto& m : modules_) {
    boundaries.insert(m.start_s);
    boundaries.insert(m.end_s);
  }
  std::vector<TimeSlice> slices;
  if (boundaries.size() < 2) return slices;

  auto it = boundaries.begin();
  double prev = *it++;
  for (; it != boundaries.end(); ++it) {
    const double next = *it;
    TimeSlice slice{prev, next, {}};
    for (int i = 0; i < module_count(); ++i) {
      if (modules_[i].start_s <= prev && next <= modules_[i].end_s) {
        slice.active.push_back(i);
      }
    }
    if (!slice.active.empty()) slices.push_back(std::move(slice));
    prev = next;
  }
  return slices;
}

std::vector<int> Schedule::active_at(double t) const {
  std::vector<int> active;
  for (int i = 0; i < module_count(); ++i) {
    if (modules_[i].start_s <= t && t < modules_[i].end_s) {
      active.push_back(i);
    }
  }
  return active;
}

long long Schedule::peak_concurrent_cells() const {
  long long peak = 0;
  for (const auto& slice : time_slices()) {
    long long cells = 0;
    for (int index : slice.active) {
      cells += modules_[index].spec.footprint_cells();
    }
    peak = std::max(peak, cells);
  }
  return peak;
}

std::vector<std::string> Schedule::validate_against(
    const SequencingGraph& graph) const {
  std::vector<std::string> violations;

  // Map operation id -> schedule index (helper modules have op_id == -1).
  std::vector<int> by_op(graph.operation_count(), -1);
  for (int i = 0; i < module_count(); ++i) {
    const OperationId op = modules_[i].op_id;
    if (op < 0) continue;
    if (op >= graph.operation_count()) {
      violations.push_back("module '" + modules_[i].label +
                           "' references an operation outside the graph");
      continue;
    }
    if (by_op[op] != -1) {
      violations.push_back("operation '" + graph.operation(op).label +
                           "' is scheduled twice");
      continue;
    }
    by_op[op] = i;
  }

  for (const auto& op : graph.operations()) {
    const int v = op.id < static_cast<int>(by_op.size()) ? by_op[op.id] : -1;
    if (v == -1) continue;
    for (OperationId pred : graph.predecessors(op.id)) {
      const int u = by_op[pred];
      if (u == -1) continue;
      if (modules_[v].start_s + 1e-9 < modules_[u].end_s) {
        std::ostringstream os;
        os << "precedence violated: '" << modules_[v].label << "' starts at "
           << modules_[v].start_s << "s before predecessor '"
           << modules_[u].label << "' ends at " << modules_[u].end_s << "s";
        violations.push_back(os.str());
      }
    }
  }
  return violations;
}

std::string render_gantt(const Schedule& schedule, double seconds_per_column) {
  std::ostringstream os;
  const double makespan = schedule.makespan_s();
  const int columns =
      static_cast<int>(std::ceil(makespan / seconds_per_column));

  std::size_t label_width = 0;
  for (const auto& m : schedule.modules()) {
    label_width = std::max(label_width, m.label.size());
  }

  for (const auto& m : schedule.modules()) {
    os << m.label << std::string(label_width - m.label.size(), ' ') << " |";
    for (int c = 0; c < columns; ++c) {
      const double t0 = c * seconds_per_column;
      const double t1 = t0 + seconds_per_column;
      const bool active = m.start_s < t1 && t0 < m.end_s;
      os << (active ? '#' : ' ');
    }
    os << "|  " << m.start_s << "s - " << m.end_s << "s  ("
       << m.spec.footprint_width() << 'x' << m.spec.footprint_height()
       << " cells, " << m.spec.name << ")\n";
  }
  os << std::string(label_width, ' ') << " 0s";
  if (columns > 4) {
    os << std::string(static_cast<std::size_t>(columns) - 2, ' ')
       << makespan << "s";
  }
  os << '\n';
  return os.str();
}

}  // namespace dmfb
