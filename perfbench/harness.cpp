#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>

namespace perfbench {
namespace {

/// Layer name of a pipeline stage's span.
const char* stage_layer(dmfb::PipelineStage stage) {
  switch (stage) {
    case dmfb::PipelineStage::kBind:
      return "assay.bind";
    case dmfb::PipelineStage::kSchedule:
      return "assay.schedule";
    case dmfb::PipelineStage::kPlace:
      return "core.place";
    case dmfb::PipelineStage::kRoute:
      return "sim.route";
    case dmfb::PipelineStage::kSimulate:
      return "sim.simulate";
  }
  return "?";
}

}  // namespace

int Tracer::open(std::string name, int parent, long item) {
  const double t = now();
  spans_.push_back(Span{std::move(name), parent, item, t, t});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) { spans_[static_cast<std::size_t>(id)].end_s = now(); }

int Tracer::add_finished(std::string name, int parent, long item,
                         double seconds) {
  const double end = now();
  spans_.push_back(Span{std::move(name), parent, item, end - seconds, end});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_cover[static_cast<std::size_t>(span.parent)] +=
          span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration = spans_[i].end_s - spans_[i].start_s;
    self[spans_[i].name] += std::max(0.0, duration - child_cover[i]);
  }
  return self;
}

dmfb::StageObserver Tracer::stage_observer(int parent, long item) {
  return [this, parent, item](dmfb::PipelineStage stage, double seconds,
                              const std::string&) {
    add_finished(stage_layer(stage), parent, item, seconds);
  };
}


Digest& Digest::mix(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ = (hash_ ^ bytes[i]) * 0x100000001B3ULL;
  }
  return *this;
}

std::uint64_t quality_digest(const Quality& q) {
  Digest d;
  d.mix(q.area_cells).mix(q.fti).mix(q.transport_makespan_s);
  d.mix(static_cast<long long>(q.routed)).mix(static_cast<long long>(q.completed));
  d.mix(q.time_lost_s);
  return d.value();
}

void Phase::record(Item item) {
  ++attempted;
  if (!item.ok) {
    slot_failed[item.slot] = true;
    if (!item.known_defect) ++unexpected_failures;
    if (failures.size() < 5) {
      failures.push_back("slot " + std::to_string(item.slot) +
                         (item.known_defect ? " [known defect]: " : ": ") +
                         item.problem);
    }
  }
  const std::size_t slot = item.slot;
  slot_times[slot].push_back(item.wall_s);
  if (!seen[slot]) {
    seen[slot] = true;
    first_pass[slot] = std::move(item);
  } else if (first_pass[slot].digest != item.digest) {
    ++digest_mismatches;
  }
}

void SpeedProbe::sample() {
  // xorshift64 drives every choice, so each call does the same work.
  static std::vector<std::uint32_t> table(1 << 16);  // 256 KiB
  static std::uint64_t sink = 0;
  const auto kernel = [] {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    std::map<int, int> buckets;
    for (std::uint32_t k = 0; k < 30000; ++k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint32_t& cell = table[x & (table.size() - 1)];
      cell = cell * 31 + k;
      sink += cell;
      if ((k & 15) == 0) {
        buckets[static_cast<int>(x % 512)] += static_cast<int>(k);
        sink += std::vector<double>(4 + (x & 31), 1.0).size();
      }
      if ((x & 7) < 3) {
        sink ^= k;
      } else {
        sink += 3ULL * k;
      }
    }
    sink += buckets.size();
  };
  kernel();
  const auto start = Clock::now();
  kernel();
  samples_.push_back(seconds_between(start, Clock::now()));
}

double SpeedProbe::reference_s(double q) const {
  return percentile(samples_, q);
}

Phase closed_loop(
    std::size_t pass_size, double seconds, bool traced,
    const std::function<Item(std::size_t, Tracer*, int)>& run_item) {
  Phase phase(pass_size);
  Tracer tracer;
  const auto start = Clock::now();
  auto last_probe = start;
  for (std::size_t i = 0;; ++i) {
    if (i >= kMinPasses * pass_size &&
        seconds_between(start, Clock::now()) >= seconds) {
      break;
    }
    const std::size_t slot = i % pass_size;
    int span = -1;
    if (traced) span = tracer.open("item", -1, static_cast<long>(i));
    Item item = run_item(slot, traced ? &tracer : nullptr, span);
    item.slot = slot;
    phase.timed_wall_s += item.wall_s;
    phase.record(std::move(item));
    if (seconds_between(last_probe, Clock::now()) >= kProbeInterval) {
      phase.probe.sample();
      last_probe = Clock::now();
    }
  }
  if (traced) fold_spans(tracer, phase);
  return phase;
}

void fold_spans(const Tracer& tracer, Phase& phase) {
  for (const auto& [name, seconds] : tracer.self_seconds()) {
    phase.layer_seconds[name == "item" ? "harness" : name] += seconds;
  }
}

double child_share(const Tracer& tracer,
                   const std::function<bool(long)>& select) {
  const auto& spans = tracer.spans();
  std::vector<bool> chosen(spans.size(), false);
  double items = 0.0, children = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& span = spans[i];
    if (span.name == "item" && span.parent < 0 && select(span.item)) {
      chosen[i] = true;
      items += span.end_s - span.start_s;
    }
  }
  for (const Tracer::Span& span : spans) {
    if (span.parent >= 0 && chosen[static_cast<std::size_t>(span.parent)]) {
      children += span.end_s - span.start_s;
    }
  }
  return items > 0.0 ? children / items : 0.0;
}

std::vector<double> slot_fastest(const Phase& phase) {
  std::vector<double> fastest;
  for (const std::vector<double>& repeats : phase.slot_times) {
    if (!repeats.empty()) {
      fastest.push_back(*std::min_element(repeats.begin(), repeats.end()));
    }
  }
  return fastest;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double peak_rss_mb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
