#include "service/compile_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "service/option_table.h"
#include "util/hash.h"

namespace dmfb {
namespace {

using option_table::Role;

template <Role Scope, class T>
void mix_record(HashStream& h, const T& record, bool faults);

template <Role Scope, class T>
void mix_field(HashStream& h, const T& field, bool faults) {
  if constexpr (option_table::Record<T>) {
    mix_record<Scope>(h, field, faults);
  } else if constexpr (std::is_same_v<T, std::string>) {
    h.mix_bytes(field);
  } else if constexpr (std::is_floating_point_v<T>) {
    h.mix(field);
  } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    h.mix(static_cast<std::uint64_t>(field));  // bools as 0 and 1
  } else if constexpr (std::is_same_v<T, std::vector<Point>>) {
    h.mix(static_cast<std::uint64_t>(field.size()));
    for (const Point& p : field) h.mix(p.x).mix(p.y);
  } else if constexpr (std::is_same_v<T, FaultInjectionPlan>) {
    h.mix(static_cast<std::uint64_t>(field.faults.size()));
    for (const PlannedFault& fault : field.faults) {
      h.mix(fault.cell.x).mix(fault.cell.y).mix(fault.time_s).mix(
          static_cast<std::uint64_t>(fault.after_event));
    }
  } else if constexpr (requires { field.begin()->second; }) {  // a map
    h.mix(static_cast<std::uint64_t>(field.size()));
    for (const auto& [key, value] : field) {
      mix_field<Scope>(h, key, faults);
      mix_field<Scope>(h, value, faults);
    }
  } else {
    static_assert(!sizeof(T), "no fingerprint for this field type");
  }
}

/// Mixes every field whose role, within `Scope`, is an identity role;
/// fault identities only when the request plans faults. Key names are
/// not hashed: the table's order is the key's layout.
template <Role Scope, class T>
void mix_record(HashStream& h, const T& record, bool faults) {
  option_table::for_each_option(
      std::type_identity<T>{}, [&]<class E, class... F>(const E&, F...) {
        constexpr Role role = std::max(Scope, E::role);
        if constexpr (role == Role::kIdentity) {
          (mix_field<role>(h, F::of(record), faults), ...);
        } else if constexpr (role == Role::kFaultIdentity) {
          if (faults) (mix_field<role>(h, F::of(record), faults), ...);
        }
      });
}

}  // namespace

std::uint64_t options_fingerprint(const PipelineOptions& options) {
  HashStream h(/*seed=*/0x5EF1CE00000002ULL);  // versioned domain tag
  mix_record<Role::kIdentity>(h, options, !options.fault_plan.empty());
  return h.value();
}

std::uint64_t schedule_signature(const Schedule& schedule) {
  HashStream h(/*seed=*/0x51614A7012345ULL);  // domain tag
  const auto& modules = schedule.modules();
  h.mix(static_cast<std::uint64_t>(modules.size()));
  for (const auto& m : modules) {
    h.mix(m.spec.footprint_width()).mix(m.spec.footprint_height());
  }
  for (std::size_t i = 0; i < modules.size(); ++i) {
    for (std::size_t j = i + 1; j < modules.size(); ++j) {
      if (modules[i].time_overlaps(modules[j])) {
        h.mix(static_cast<std::uint64_t>(i)).mix(
            static_cast<std::uint64_t>(j));
      }
    }
  }
  return h.value();
}

CompileCache::Lookup CompileCache::lookup(std::uint64_t assay_fp,
                                          std::uint64_t options_fp,
                                          std::uint64_t signature) {
  std::lock_guard lock(mutex_);
  Lookup result;

  if (const auto exact = exact_.find({assay_fp, options_fp});
      exact != exact_.end()) {
    result.exact = exact->second;
    ++stats_.exact_hits;
    return result;
  }

  if (const auto layout = layouts_.find(options_fp);
      layout != layouts_.end()) {
    if (const auto warm = layout->second.placements.find(signature);
        warm != layout->second.placements.end()) {
      result.warm_placement = warm->second;
    }
    result.warm_links = layout->second.links;
  }
  if (result.warm_placement) {
    ++stats_.warm_hits;
  } else {
    ++stats_.misses;
  }
  return result;
}

void CompileCache::store(std::uint64_t assay_fp, std::uint64_t options_fp,
                         std::uint64_t signature,
                         std::shared_ptr<const PipelineResult> result,
                         std::vector<RouteLink> links) {
  if (!result) return;
  std::lock_guard lock(mutex_);
  const auto [it, inserted] =
      exact_.insert_or_assign({assay_fp, options_fp}, result);
  if (inserted) ++stats_.entries;

  Layout& layout = layouts_[options_fp];
  if (result->placement.placement.module_count() > 0) {
    layout.placements[signature] = std::shared_ptr<const Placement>(
        result, &result->placement.placement);
  }
  if (!links.empty()) layout.links = std::move(links);
}

CacheStats CompileCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

// --- persistence ------------------------------------------------------
//
// Versioned line-oriented text: one "entry ... end" block per exact
// entry. Doubles are serialized as their raw 64-bit patterns, so a
// load reproduces every value bit for bit; strings (assay names,
// module labels/specs) are rest-of-line fields, so they may contain
// spaces. The loader is strict per entry but tolerant per file: the
// first malformed line ends the load, keeping the entries already read
// — a truncated or garbage file is just a colder cache.

namespace {

constexpr const char kCacheHeader[] = "dmfb-compile-cache v1";

std::uint64_t double_bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Rest-of-line string field: "<key> <value...>". Returns false when the
/// line does not start with `key` + space (empty value is allowed).
bool read_tail(const std::string& line, const char* key, std::string& out) {
  const std::size_t len = std::strlen(key);
  if (line.compare(0, len, key) != 0) return false;
  if (line.size() == len) {
    out.clear();
    return true;
  }
  if (line[len] != ' ') return false;
  out = line.substr(len + 1);
  return true;
}

void write_entry(std::ostream& os, std::uint64_t assay_fp,
                 std::uint64_t options_fp, std::uint64_t signature,
                 const PipelineResult& r) {
  os << "entry " << assay_fp << ' ' << options_fp << ' ' << signature
     << '\n';
  os << "name " << r.assay_name << '\n';
  os << "seed " << r.seed << '\n';
  os << "status " << (r.ok ? 1 : 0) << ' ' << r.error << '\n';
  os << "peak " << r.peak_concurrent_cells << '\n';
  const CostBreakdown& c = r.placement.cost;
  os << "cost " << c.area_cells << ' ' << c.overlap_cells << ' '
     << c.defect_cells << ' ' << double_bits(c.fti) << ' '
     << c.route_pressure << ' ' << double_bits(c.value) << '\n';
  os << "fti " << r.fti.covered_cells << ' ' << r.fti.total_cells << ' '
     << r.fti.array.x << ' ' << r.fti.array.y << ' ' << r.fti.array.width
     << ' ' << r.fti.array.height << '\n';
  os << "makespan " << double_bits(r.makespan_s) << ' '
     << double_bits(r.transport_makespan_s) << '\n';
  os << "routes " << (r.routes.success ? 1 : 0) << ' ' << r.routes.total_steps
     << ' ' << r.routes.total_moved_cells << ' '
     << r.routes.negotiation_rounds << '\n';
  os << "rounds " << r.selected_round << ' ' << r.feedback_history.size()
     << '\n';
  for (const FeedbackRoundResult& round : r.feedback_history) {
    os << "round " << round.round << ' ' << round.seed << ' '
       << (round.routed ? 1 : 0) << ' '
       << double_bits(round.transport_makespan_s) << ' '
       << double_bits(round.placement_cost) << '\n';
  }
  const Placement& p = r.placement.placement;
  os << "placement " << p.canvas_width() << ' ' << p.canvas_height() << ' '
     << p.module_count() << '\n';
  for (const PlacedModule& m : p.modules()) {
    os << "module " << m.spec.functional_width << ' '
       << m.spec.functional_height << ' ' << static_cast<int>(m.spec.kind)
       << ' ' << double_bits(m.spec.duration_s) << ' '
       << double_bits(m.start_s) << ' ' << double_bits(m.end_s) << ' '
       << m.anchor.x << ' ' << m.anchor.y << ' ' << (m.rotated ? 1 : 0)
       << '\n';
    os << "spec " << m.spec.name << '\n';
    os << "label " << m.label << '\n';
  }
  os << "end\n";
}

/// Parses one entry after its "entry" line was consumed. Returns null on
/// any malformation (the caller then abandons the rest of the file).
std::shared_ptr<const PipelineResult> read_entry(std::istream& is) {
  auto result = std::make_shared<PipelineResult>();
  PipelineResult& r = *result;
  std::string line;
  std::string tail;

  const auto next = [&](const char* key, auto&... fields) {
    if (!std::getline(is, line)) return false;
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (word != key) return false;
    return static_cast<bool>((ls >> ... >> fields));
  };

  if (!std::getline(is, line) || !read_tail(line, "name", r.assay_name)) {
    return nullptr;
  }
  if (!next("seed", r.seed)) return nullptr;
  {
    if (!std::getline(is, line)) return nullptr;
    std::istringstream ls(line);
    std::string word;
    int ok = 1;
    if (!(ls >> word >> ok) || word != "status") return nullptr;
    r.ok = ok != 0;
    ls.get();  // the separating space (absent on an empty error)
    std::getline(ls, r.error);
  }
  if (!next("peak", r.peak_concurrent_cells)) return nullptr;
  {
    CostBreakdown& c = r.placement.cost;
    std::uint64_t fti_bits = 0, value_bits = 0;
    if (!next("cost", c.area_cells, c.overlap_cells, c.defect_cells,
              fti_bits, c.route_pressure, value_bits)) {
      return nullptr;
    }
    c.fti = bits_double(fti_bits);
    c.value = bits_double(value_bits);
  }
  if (!next("fti", r.fti.covered_cells, r.fti.total_cells, r.fti.array.x,
            r.fti.array.y, r.fti.array.width, r.fti.array.height)) {
    return nullptr;
  }
  {
    std::uint64_t makespan_bits = 0, transport_bits = 0;
    if (!next("makespan", makespan_bits, transport_bits)) return nullptr;
    r.makespan_s = bits_double(makespan_bits);
    r.transport_makespan_s = bits_double(transport_bits);
  }
  {
    int routed = 0;
    if (!next("routes", routed, r.routes.total_steps,
              r.routes.total_moved_cells, r.routes.negotiation_rounds)) {
      return nullptr;
    }
    r.routes.success = routed != 0;
  }
  std::size_t round_count = 0;
  if (!next("rounds", r.selected_round, round_count)) return nullptr;
  for (std::size_t i = 0; i < round_count; ++i) {
    FeedbackRoundResult round;
    int routed = 0;
    std::uint64_t tm_bits = 0, pc_bits = 0;
    if (!next("round", round.round, round.seed, routed, tm_bits, pc_bits)) {
      return nullptr;
    }
    round.routed = routed != 0;
    round.transport_makespan_s = bits_double(tm_bits);
    round.placement_cost = bits_double(pc_bits);
    r.feedback_history.push_back(round);
  }

  int canvas_width = 0, canvas_height = 0, module_count = 0;
  if (!next("placement", canvas_width, canvas_height, module_count)) {
    return nullptr;
  }
  std::vector<PlacedModule> modules;
  modules.reserve(static_cast<std::size_t>(std::max(0, module_count)));
  for (int i = 0; i < module_count; ++i) {
    PlacedModule m;
    int kind = 0, rotated = 0;
    std::uint64_t duration_bits = 0, start_bits = 0, end_bits = 0;
    if (!next("module", m.spec.functional_width, m.spec.functional_height,
              kind, duration_bits, start_bits, end_bits, m.anchor.x,
              m.anchor.y, rotated)) {
      return nullptr;
    }
    m.spec.kind = static_cast<ModuleKind>(kind);
    m.spec.duration_s = bits_double(duration_bits);
    m.start_s = bits_double(start_bits);
    m.end_s = bits_double(end_bits);
    m.rotated = rotated != 0;
    if (!std::getline(is, line) || !read_tail(line, "spec", m.spec.name)) {
      return nullptr;
    }
    if (!std::getline(is, line) || !read_tail(line, "label", m.label)) {
      return nullptr;
    }
    modules.push_back(std::move(m));
  }
  if (module_count > 0) {
    try {
      r.placement.placement =
          Placement(std::move(modules), canvas_width, canvas_height);
    } catch (const std::exception&) {
      return nullptr;  // inconsistent geometry: treat the entry as corrupt
    }
  }

  if (!std::getline(is, line) || line != "end") return nullptr;
  return result;
}

}  // namespace

bool CompileCache::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) return false;
    os << kCacheHeader << '\n';
    std::lock_guard lock(mutex_);
    for (const auto& [key, result] : exact_) {
      // The warm signature is recoverable for stored results with a
      // placement (store() keyed them), but the exact map does not keep
      // it; re-derive from the layout table.
      std::uint64_t signature = 0;
      if (const auto layout = layouts_.find(key.second);
          layout != layouts_.end()) {
        for (const auto& [sig, placement] : layout->second.placements) {
          if (placement.get() == &result->placement.placement) {
            signature = sig;
            break;
          }
        }
      }
      write_entry(os, key.first, key.second, signature, *result);
    }
    os.flush();
    if (!os) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::size_t CompileCache::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) return 0;
  std::string line;
  if (!std::getline(is, line) || line != kCacheHeader) return 0;

  std::size_t loaded = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string word;
    std::uint64_t assay_fp = 0, options_fp = 0, signature = 0;
    if (!(ls >> word >> assay_fp >> options_fp >> signature) ||
        word != "entry") {
      break;  // corrupt from here on: keep what loaded so far
    }
    const std::shared_ptr<const PipelineResult> result = read_entry(is);
    if (!result) break;
    {
      std::lock_guard lock(mutex_);
      const auto [it, inserted] =
          exact_.insert_or_assign({assay_fp, options_fp}, result);
      if (inserted) ++stats_.entries;
      if (result->placement.placement.module_count() > 0) {
        layouts_[options_fp].placements[signature] =
            std::shared_ptr<const Placement>(result,
                                             &result->placement.placement);
      }
    }
    ++loaded;
  }
  return loaded;
}

}  // namespace dmfb
