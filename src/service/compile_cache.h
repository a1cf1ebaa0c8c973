// compile_cache.h — the content-hashed placement memo at the heart of the
// synthesis service (service/service.h).
//
// A compile is addressed by two stable fingerprints: the canonical assay
// form (io/assay_format.h assay_fingerprint) and the options fingerprint
// below, which covers everything that changes what the compiler produces —
// chip geometry, defect map, placer/router selection, every weight and
// schedule, and the seed. An exact hit returns the stored PipelineResult
// verbatim (bit-identical by construction). A miss on the assay but a hit
// on the layout (same options fingerprint) can still *warm-start*: per
// layout the cache remembers, keyed by schedule structure, the best
// placement seen, plus the cross-request route-pressure ledger
// (reweighted RouteLinks) — so a perturbed assay on a known layout anneals
// from a near-solution instead of cold.
//
// All methods are thread-safe.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "assay/pipeline.h"

namespace dmfb {

/// Stable fingerprint of every PipelineOptions field that affects compile
/// output: the identity fields of service/option_table.h, plus its
/// recovery knobs when the request plans faults. Execution-only,
/// warm-start and overridden fields stay out; the warm-start seams carry
/// cached state *into* a run and must not fork the key space of the cache
/// feeding them.
std::uint64_t options_fingerprint(const PipelineOptions& options);

/// Structure signature of a schedule: module count, each module's
/// footprint (dims in index order) and which index pairs overlap in time.
/// Equal signatures mean placements transfer index-by-index — the warm-
/// start compatibility test. Labels and absolute times are excluded, so
/// a perturbed assay with the same shape signature-matches.
std::uint64_t schedule_signature(const Schedule& schedule);

/// Hit/miss counters (monotonic; snapshot via CompileCache::stats()).
struct CacheStats {
  long long exact_hits = 0;
  long long warm_hits = 0;
  long long misses = 0;
  long long entries = 0;  ///< stored exact results
};

class CompileCache {
 public:
  /// What the cache can contribute to one compile.
  struct Lookup {
    /// Exact hit: the stored result; return it, skip the compile.
    std::shared_ptr<const PipelineResult> exact;
    /// Warm start: a structure-compatible placement on this layout.
    std::shared_ptr<const Placement> warm_placement;
    /// The layout's route-pressure ledger (empty when none recorded).
    std::vector<RouteLink> warm_links;
  };

  /// Consults the cache for (assay, options, structure). Bumps exactly
  /// one stats counter: exact_hits, warm_hits (warm_placement set) or
  /// misses.
  Lookup lookup(std::uint64_t assay_fp, std::uint64_t options_fp,
                std::uint64_t signature);

  /// Records a finished compile: the exact entry, the layout's warm
  /// placement for `signature` and the layout ledger rebuilt from the
  /// run's routes (only when routing succeeded). Last writer wins
  /// throughout.
  void store(std::uint64_t assay_fp, std::uint64_t options_fp,
             std::uint64_t signature,
             std::shared_ptr<const PipelineResult> result,
             std::vector<RouteLink> links);

  /// Persists the exact entries to `path` (atomically: temp file +
  /// rename) in a version-stamped text format; doubles are written as
  /// raw bit patterns so every persisted value round-trips exactly.
  ///
  /// What persists is the *response surface* of each result — name,
  /// seed, cost breakdown, FTI counts, makespans, routing totals, round
  /// history and the full placement (specs, intervals, poses) — i.e.
  /// everything a batch result line or wire response renders. Heavy
  /// stage artifacts (schedule, binding, per-changeover routes,
  /// simulation events, stage timings, the FTI coverage matrix) are NOT
  /// persisted: a loaded hit serves summaries bit-identically but
  /// cannot replay artifacts. Layout ledgers (warm links) are
  /// process-local and rebuilt by fresh compiles. Returns
  /// false on I/O failure.
  bool save(const std::string& path) const;

  /// Merges entries from a save() file into this cache (last writer
  /// wins on duplicate keys) and registers each loaded placement as its
  /// layout's warm placement, so cross-process warm starts work from
  /// disk. A missing, truncated or corrupt file is tolerated as a cold
  /// cache — well-formed leading entries are kept, the rest dropped.
  /// Returns the number of exact entries loaded.
  std::size_t load(const std::string& path);

  CacheStats stats() const;

 private:
  /// Everything remembered about one layout (= one options fingerprint).
  struct Layout {
    /// Best-known placement per schedule structure.
    std::map<std::uint64_t, std::shared_ptr<const Placement>> placements;
    std::vector<RouteLink> links;
  };

  mutable std::mutex mutex_;
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::shared_ptr<const PipelineResult>>
      exact_;
  std::map<std::uint64_t, Layout> layouts_;
  CacheStats stats_;
};

}  // namespace dmfb
