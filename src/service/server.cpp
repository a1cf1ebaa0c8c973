#include "service/server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "io/assay_format.h"
#include "io/json.h"
#include "service/option_table.h"
#include "util/parallel.h"
#include "util/request_queue.h"

namespace dmfb {
namespace {

using option_table::Range;
using option_table::Record;

[[noreturn]] void reject(const char* key, const json::Value& value,
                         const char* why) {
  throw std::invalid_argument(std::string("option \"") + key + "\": " +
                              value.dump() + ' ' + why);
}

/// A number held to its key's range and, for an int field, to whole
/// numbers in int's range (the double -> int cast is UB outside it).
template <class T>
T read_number(const json::Value& value, const char* key, const Range& range) {
  const double number = value.as_number();
  if (!range.admits(number)) reject(key, value, "is out of range");
  if (std::is_integral_v<T> &&
      !(number >= std::numeric_limits<int>::min() &&
        number <= std::numeric_limits<int>::max() &&
        number == std::trunc(number))) {
    reject(key, value, "is not an integer");
  }
  return static_cast<T>(number);
}

/// [width,height], [x,y] or [t,x,y]: one number per field.
template <class... T>
  requires(sizeof...(T) > 1)
void read(const json::Value& value, const char* key, const Range& range,
          T&... fields) {
  const json::Value::Array& items = value.as_array();
  if (items.size() != sizeof...(T)) reject(key, value, "has a wrong length");
  std::size_t i = 0;
  ((fields = read_number<T>(items[i++], key, range)), ...);
}

template <class T>
void parse_record(const json::Value& value, T& record,
                  const std::string& what);
template <class T>
json::Value record_to_json(const T& record);

template <class T>
void read(const json::Value& value, const char* key, const Range& range,
          T& field) {
  if constexpr (Record<T>) {
    parse_record(value, field, key + std::string(" option"));
  } else if constexpr (std::is_same_v<T, bool>) {
    field = value.as_bool();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    field = value.as_u64();
  } else if constexpr (std::is_arithmetic_v<T>) {
    field = read_number<T>(value, key, range);
  } else if constexpr (std::is_same_v<T, std::string>) {
    field = value.as_string();
  } else if constexpr (std::is_enum_v<T>) {
    field = from_string<T>(value.as_string());
  } else if constexpr (std::is_same_v<T, std::vector<Point>>) {
    for (const json::Value& item : value.as_array()) {
      Point& p = field.emplace_back();
      read(item, key, range, p.x, p.y);
    }
  } else {
    // [[t,x,y], ...]: a fault at cell (x,y) once the simulated clock
    // reaches t (requires "simulate": true to have any effect).
    for (const json::Value& item : value.as_array()) {
      PlannedFault& f = field.faults.emplace_back();
      read(item, key, range, f.time_s, f.cell.x, f.cell.y);
    }
  }
}

template <class... T>
  requires(sizeof...(T) > 1)
json::Value to_json(const T&... fields) {
  return json::Value::Array{fields...};
}

template <class T>
json::Value to_json(const T& field) {
  if constexpr (Record<T>) {
    return record_to_json(field);
  } else if constexpr (std::is_enum_v<T>) {
    return to_string(field);
  } else if constexpr (std::is_same_v<T, std::vector<Point>>) {
    json::Value::Array items;
    for (const Point& p : field) items.push_back(to_json(p.x, p.y));
    return items;
  } else if constexpr (std::is_same_v<T, FaultInjectionPlan>) {
    json::Value::Array items;
    for (const PlannedFault& f : field.faults) {
      items.push_back(to_json(f.time_s, f.cell.x, f.cell.y));
    }
    return items;
  } else {
    return field;  // bool, int, double, std::uint64_t or std::string
  }
}

/// Applies the members of `value` in document order; `what` names the
/// record's keys in the unknown-key error.
template <class T>
void parse_record(const json::Value& value, T& record,
                  const std::string& what) {
  for (const auto& [key, member] : value.as_object()) {
    bool known = false;
    option_table::for_each_option(
        std::type_identity<T>{}, [&]<class E, class... F>(E entry, F...) {
          if constexpr (E::on_wire) {
            if (!known && key == entry.key) {
              known = true;
              read(member, entry.key, entry.range, F::of(record)...);
            }
          }
        });
    if (!known) {
      throw std::invalid_argument("unknown " + what + " \"" + key + "\"");
    }
  }
}

template <class T>
json::Value record_to_json(const T& record) {
  json::Value doc;
  option_table::for_each_option(
      std::type_identity<T>{}, [&]<class E, class... F>(E entry, F...) {
        if constexpr (E::on_wire) doc.set(entry.key, to_json(F::of(record)...));
      });
  return doc;
}

json::Value stats_line(const CacheStats& stats) {
  json::Value counters;
  counters.set("exact_hits", static_cast<double>(stats.exact_hits));
  counters.set("warm_hits", static_cast<double>(stats.warm_hits));
  counters.set("misses", static_cast<double>(stats.misses));
  counters.set("entries", static_cast<double>(stats.entries));
  json::Value doc;
  doc.set("ok", true);
  doc.set("stats", std::move(counters));
  return doc;
}

/// Best-effort id recovery for a line that failed request parsing, so the
/// error response still correlates when the id itself was readable.
std::string recover_id(const std::string& line) {
  try {
    const json::Value doc = json::Value::parse(line);
    if (const json::Value* id = doc.find("id"); id && id->is_string()) {
      return id->as_string();
    }
  } catch (...) {
  }
  return {};
}

}  // namespace

void parse_pipeline_options(const json::Value& value,
                            PipelineOptions& options) {
  parse_record(value, options, "option");
  option_table::check_anneal_work(options);
}

json::Value pipeline_options_to_json(const PipelineOptions& options) {
  return record_to_json(options);
}

CompileServer::CompileServer(ServerOptions options)
    : options_(std::move(options)), service_(options_.service) {}

CompileRequest CompileServer::parse_request(const std::string& line) const {
  const json::Value doc = json::Value::parse(line);
  CompileRequest request;
  if (const json::Value* id = doc.find("id")) request.id = id->as_string();
  const json::Value* assay = doc.find("assay");
  if (!assay) throw std::invalid_argument("request missing \"assay\"");
  request.assay =
      assay_from_string(assay->as_string(), options_.service.library);
  if (const json::Value* cache = doc.find("cache")) {
    request.use_cache = cache->as_bool();
  }
  if (const json::Value* opts = doc.find("options")) {
    parse_pipeline_options(*opts, request.options);
  }
  return request;
}

void append_result_summary(const PipelineResult& result, json::Value& out) {
  out.set("area_cells", static_cast<double>(result.placement.cost.area_cells));
  out.set("cost", result.placement.cost.value);
  out.set("fti", result.fti.fti());
  out.set("makespan_s", result.makespan_s);
  out.set("transport_makespan_s", result.transport_makespan_s);
  out.set("routed", result.routes.success);
  out.set("rounds", static_cast<double>(result.feedback_history.size()));
  out.set("selected_round", static_cast<double>(result.selected_round));
  if (result.placement.placement.module_count() > 0) {
    out.set("placement", placement_to_string(result.placement.placement));
  }
}

std::string CompileServer::render_response(const CompileResponse& response) {
  json::Value doc;
  doc.set("id", response.id);
  doc.set("ok", response.ok);
  if (!response.ok) {
    doc.set("error", response.error);
    return doc.dump();
  }
  doc.set("source", to_string(response.source));
  doc.set("wall_s", response.wall_seconds);

  const PipelineResult& r = *response.result;
  json::Value result;
  result.set("assay", r.assay_name);
  result.set("seed", json::Value(r.seed));
  append_result_summary(r, result);
  // Online fault-recovery telemetry (present iff the request planned
  // faults — the engine always stamps a detail line when it runs).
  if (!r.recovery.detail.empty()) {
    json::Value recovery;
    recovery.set("faults", static_cast<double>(r.recovery.faults_injected));
    recovery.set("cycles", static_cast<double>(r.recovery.recovery_cycles));
    recovery.set("recovered", r.recovery.recovered);
    recovery.set("completed", r.recovery.completed);
    recovery.set("time_lost_s", r.recovery.time_lost_s);
    recovery.set("resumed_from_s", r.recovery.resumed_from_s);
    recovery.set("detail", r.recovery.detail);
    json::Value::Array attempts;
    for (const RecoveryAttempt& attempt : r.recovery.attempts) {
      json::Value a;
      a.set("action", to_string(attempt.action));
      a.set("cycle", static_cast<double>(attempt.cycle));
      a.set("success", attempt.success);
      attempts.push_back(std::move(a));
    }
    recovery.set("attempts", json::Value(std::move(attempts)));
    result.set("recovery", std::move(recovery));
  }
  doc.set("result", std::move(result));
  return doc.dump();
}

void CompileServer::serve(
    const std::function<bool(std::string&)>& read_line,
    const std::function<void(const std::string&)>& write_line) {
  std::mutex write_mutex;
  const auto emit = [&](const std::string& line) {
    std::lock_guard lock(write_mutex);
    write_line(line);
  };

  detail::BoundedQueue<std::string> queue(
      std::max<std::size_t>(1, options_.queue_capacity));
  // Same 0-means-hardware-concurrency convention as run_many; the
  // "count" bound does not apply to an open-ended request stream.
  const std::size_t worker_count = detail::resolve_worker_count(
      std::numeric_limits<std::size_t>::max(), options_.workers);

  const auto worker = [&] {
    std::string line;
    while (queue.pop(line)) {
      CompileResponse response;
      try {
        response = service_.compile(parse_request(line));
      } catch (const std::exception& error) {
        response.id = recover_id(line);
        response.ok = false;
        response.error = error.what();
      }
      emit(render_response(response));
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) pool.emplace_back(worker);

  std::string line;
  while (read_line(line)) {
    if (line.find_first_not_of(" \t\r\n") == std::string::npos) continue;
    // Control lines ({"cmd":...}) bypass the queue; the substring test is
    // only a cheap pre-filter — the parse decides.
    if (line.find("\"cmd\"") != std::string::npos) {
      std::string cmd;
      try {
        const json::Value doc = json::Value::parse(line);
        if (const json::Value* field = doc.find("cmd")) {
          cmd = field->as_string();
        }
      } catch (...) {
        // Malformed line: fall through to the queue, a worker reports it.
      }
      if (cmd == "stats") {
        emit(stats_line(service_.cache_stats()).dump());
        continue;
      }
      if (cmd == "shutdown") break;
      if (!cmd.empty()) {
        json::Value doc;
        doc.set("ok", false);
        doc.set("error", "unknown command \"" + cmd + "\"");
        emit(doc.dump());
        continue;
      }
    }
    queue.push(line);
  }

  queue.close();
  for (auto& thread : pool) thread.join();
}

}  // namespace dmfb
