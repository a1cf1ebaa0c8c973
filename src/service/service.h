// service.h — CompileService: one synthesis compile with the cache in the
// loop (synthesis-as-a-service, minus the wire protocol, which lives in
// service/server.h so tests and benches can drive the service in-process).
//
// Per request the service:
//   1. fingerprints the assay (canonical form) and the options;
//   2. returns the stored result verbatim on an exact hit — bit-identical
//      to the original compile by construction;
//   3. otherwise schedules the assay, and when the layout has a
//      structure-compatible cached placement, *warm-starts*: the pipeline
//      anneals from the cached poses under a short refinement schedule
//      instead of the full cold anneal, with the layout's route-pressure
//      ledger injected.
//      Because the annealers never record a state worse than a feasible
//      initial, a warm-started compile's placement cost is never worse
//      than the cached placement it started from;
//   4. compiles cold otherwise, and in every non-hit case stores the
//      result, the layout's warm placement and the reweighted RouteLink
//      ledger back into the cache.
//
// compile() is reentrant; the server (service/server.h) calls it from a
// worker pool.
#pragma once

#include <memory>
#include <string>

#include "assay/pipeline.h"
#include "service/compile_cache.h"

namespace dmfb {

/// Where a response came from (also spelled into the wire protocol).
enum class CompileSource {
  kMiss,      ///< full cold compile
  kExactHit,  ///< cache returned the stored result, no compile ran
  kWarmStart, ///< compiled, annealing seeded from a cached placement
};

const char* to_string(CompileSource source);

/// One request: an assay plus the compile options. `options.seed` is the
/// request's reproducibility handle exactly as in SynthesisPipeline.
struct CompileRequest {
  std::string id;  ///< echoed in the response; opaque to the service
  AssayCase assay;
  PipelineOptions options;
  bool use_cache = true;  ///< false = always compile cold, store nothing
};

struct CompileResponse {
  std::string id;
  bool ok = false;
  std::string error;  ///< set iff !ok
  CompileSource source = CompileSource::kMiss;
  /// Shared with the cache on hits — do not mutate.
  std::shared_ptr<const PipelineResult> result;
  double wall_seconds = 0.0;  ///< service-side time for this request
};

/// Service-level tuning.
struct ServiceOptions {
  /// Refinement annealing schedule for warm-started compiles: the cached
  /// placement is near-solved, so the full cold schedule (T0=1e4, Na=400)
  /// would waste almost all its proposals re-exploring. ~8x fewer
  /// proposals than the paper defaults. Clamped per request against the
  /// request's own schedule (no hotter, no slower-cooling, at most a
  /// quarter of its proposal density), so the warm path stays the cheap
  /// one even for requests that already anneal briefly.
  AnnealingSchedule warm_annealing{/*initial_temperature=*/25.0,
                                   /*cooling_rate=*/0.9,
                                   /*iterations_per_module=*/100,
                                   /*min_temperature=*/0.05};
  /// Library used to auto-bind requests that arrive unbound.
  ModuleLibrary library = ModuleLibrary::standard();
};

class CompileService {
 public:
  explicit CompileService(ServiceOptions options = {});

  /// Compiles one request (or serves it from the cache). Never throws:
  /// compile errors come back as !ok responses with the exception text.
  CompileResponse compile(const CompileRequest& request);

  CacheStats cache_stats() const { return cache_.stats(); }
  const ServiceOptions& options() const { return options_; }

 private:
  ServiceOptions options_;
  CompileCache cache_;
};

}  // namespace dmfb
