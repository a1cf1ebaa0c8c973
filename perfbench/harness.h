// harness.h — the parts every workload shares: the seeded input stream,
// the span tracer, the per-item record, and the measurement loop that
// turns items into the end-to-end and per-layer metrics.
//
// Only calls into the program are timed. Output checks run after the
// clock stops, and their cost never lands in an item's wall time.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "assay/pipeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// SplitMix64: the benchmark's own input generator, so the inputs a seed
/// names do not move when the library's Rng changes.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0. The modulo bias is irrelevant at
  /// the bounds used here and keeps the stream platform-independent.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  int range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// A seeded permutation of `items` (Fisher–Yates).
  template <class T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// In-memory span recorder for the traced run. A span is a named
/// interval with a parent; spans of one item share the item's index. One
/// tracer per thread; the traced run merges them when it ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    long item = -1;
    double start_s = 0.0;  ///< since the tracer's epoch
    double end_s = 0.0;
  };

  explicit Tracer(Clock::time_point epoch = Clock::now()) : epoch_(epoch) {}

  int open(std::string name, int parent, long item);
  void close(int id);
  /// Records an already finished child span that ended now and lasted
  /// `seconds` (the pipeline observer reports stages that way).
  int add_finished(std::string name, int parent, long item, double seconds);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span name: each span's duration minus the part its
  /// children cover (children never overlap within one parent here).
  std::map<std::string, double> self_seconds() const;

  /// A StageObserver that records each pipeline stage as a child span of
  /// `parent`, named by layer (assay.bind, core.place, sim.route, ...).
  dmfb::StageObserver stage_observer(int parent, long item);

 private:
  double now() const { return seconds_between(epoch_, Clock::now()); }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Host-speed reference. A shared host runs the same code 10-70% slower
/// in spells that last from under a second to minutes, as other tenants
/// load the same physical cores, and a spell can cover a whole run. The
/// probe times a fixed kernel of the benchmark's own between items:
/// integer hashing, updates to a 256 KiB table, small heap allocations
/// and an ordered map, the kinds of work the program does. The kernel is
/// not program code, so a change to the program never moves it, while a
/// slow spell slows it along with the program. A time scaled by
/// kNominalReferenceS over the kernel's time in the same run reads as the
/// time on a host running the kernel in kNominalReferenceS.
class SpeedProbe {
 public:
  /// Runs the kernel once untimed, so its table is in cache, then once
  /// timed.
  void sample();
  /// The `q` quantile of the timed samples (nearest rank).
  double reference_s(double q) const;
  std::size_t size() const { return samples_.size(); }

 private:
  std::vector<double> samples_;
};

/// The kernel's time on an uncontended 2.1 GHz Xeon core (GCC 12,
/// Release): the host speed the end-to-end times are scaled to.
inline constexpr double kNominalReferenceS = 0.35e-3;

/// The quality of one item's output. Deterministic: a fixed seed gives
/// the same values on every run, which the determinism gate relies on.
struct Quality {
  /// False when the item's output is a copy of one measured elsewhere
  /// (a service exact hit): it then stays out of the quality means.
  bool scored = true;
  double area_cells = 0.0;
  double fti = 0.0;
  double transport_makespan_s = 0.0;  ///< simulated seconds
  bool routed = false;
  bool completed = false;
  double time_lost_s = 0.0;  ///< simulated seconds
};

/// One finished item: a compile, a fault plan or a service request.
struct Item {
  std::size_t slot = 0;   ///< position in the workload's fixed pass
  double wall_s = 0.0;    ///< timed program calls only
  bool ok = true;         ///< every output check passed
  /// Failed only through a known program defect (listed in NOTES.md);
  /// counted in `failed`, not against `correct`.
  bool known_defect = false;
  std::string problem;    ///< first failed check, for the report
  Quality quality;
  /// Counts the per-layer metrics read (proposals, route steps, ...).
  std::map<std::string, double> counts;
  /// Digest of everything deterministic about the output; repeats of a
  /// slot must reproduce it exactly.
  std::uint64_t digest = 0;
};

/// FNV-1a over the bytes of values, for item digests.
class Digest {
 public:
  Digest& mix(const void* data, std::size_t size);
  Digest& mix(double value) { return mix(&value, sizeof value); }
  Digest& mix(long long value) { return mix(&value, sizeof value); }
  Digest& mix(const std::string& text) { return mix(text.data(), text.size()); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};
std::uint64_t quality_digest(const Quality& quality);

/// What one measured phase produced. Items fold in as they finish, so the
/// harness's own memory does not grow with the run's length: the first
/// run of each slot is kept whole, repeats only as a time.
struct Phase {
  explicit Phase(std::size_t pass_size)
      : first_pass(pass_size),
        seen(pass_size, false),
        slot_failed(pass_size, false),
        slot_times(pass_size) {}

  /// Folds in one finished item; a repeat must reproduce its slot's
  /// first digest.
  void record(Item item);

  std::vector<Item> first_pass;  ///< by slot: each slot's first run
  std::vector<bool> seen;
  /// By slot: some run of the slot failed a check. A slot's outcome is a
  /// function of its input, so these counts repeat exactly for a seed,
  /// however many passes the host's speed allows.
  std::vector<bool> slot_failed;
  std::vector<std::vector<double>> slot_times;  ///< by slot: every wall_s
  long attempted = 0;  ///< item runs, repeats included
  long unexpected_failures = 0;  ///< failed, and not a known defect
  long digest_mismatches = 0;
  std::vector<std::string> failures;  ///< the first few failed checks

  double timed_wall_s = 0.0;  ///< wall time the program was being measured
  /// Kernel timings taken between items (every kProbeInterval of the
  /// closed loop's wall, or after each service_mix session).
  SpeedProbe probe;
  /// Wall time of each pass, for workloads whose items overlap in time
  /// (service_mix's concurrent clients); empty for the closed loop.
  std::vector<double> pass_walls;
  /// Seconds spent per layer (self time) in a traced phase, summed over
  /// items, plus the item spans' own self time under "harness".
  std::map<std::string, double> layer_seconds;
  /// Per-layer figures measured outside spans (e.g. queue wait), summed.
  std::map<std::string, double> extra_seconds;
  /// Lines for the layer-share report.
  std::vector<std::string> notes;
};

/// A workload: builds its inputs in set-up and measures phases.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input from `seed`. Called several times (set-up time is
  /// the median); each call replaces the previous inputs.
  virtual void setup(std::uint64_t seed) = 0;
  /// Measures for at least `seconds` and at least kMinPasses full passes.
  /// With a tracer the phase records spans and fills `layer_seconds`.
  virtual Phase measure(double seconds, bool traced) = 0;
};

/// Passes every phase completes at least, so that each item's time is the
/// fastest of several repeats (see slot_fastest).
inline constexpr std::size_t kMinPasses = 3;

/// How often the closed loop samples the SpeedProbe, in seconds of wall.
/// A sample costs about 0.7 ms, so the probe takes about 3% of a run.
inline constexpr double kProbeInterval = 0.025;

/// The single-client closed loop shared by ft_compile, route_compile and
/// recovery: items run in pass order, cycling, until `seconds` have
/// elapsed and kMinPasses passes are complete. `run_item(slot, tracer,
/// item_span)` times its own program calls into Item::wall_s.
Phase closed_loop(
    std::size_t pass_size, double seconds, bool traced,
    const std::function<Item(std::size_t slot, Tracer* tracer, int span)>&
        run_item);

/// Folds a tracer's spans into `phase.layer_seconds`: per-name self time,
/// with the item spans (named "item") reported as "harness".
void fold_spans(const Tracer& tracer, Phase& phase);

/// Share of the "item" spans selected by `item` that their child spans
/// cover, over every such span in `tracer`.
double child_share(const Tracer& tracer,
                   const std::function<bool(long item)>& select);

/// Each slot's fastest wall time over its repeats in `phase`. The items
/// are deterministic, so every repeat does the same work, and a shared
/// host can only add time to it: contention from other tenants slows the
/// same code by 10-70% in spells that last seconds to minutes, often a
/// whole run. The fastest repeat, taken from repeats spread across the
/// run, reads the item's own cost; a median reads how busy the host was.
std::vector<double> slot_fastest(const Phase& phase);

/// Nearest-rank percentile of `values` (q in [0,1]).
double percentile(std::vector<double> values, double q);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

std::unique_ptr<Workload> make_ft_compile();
std::unique_ptr<Workload> make_route_compile();
std::unique_ptr<Workload> make_recovery();
std::unique_ptr<Workload> make_service_mix();

}  // namespace perfbench
