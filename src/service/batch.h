// batch.h — the multi-process sharded batch-synthesis driver behind
// tools/dmfb_batch.cpp: compile a manifest of assay cases across worker
// *processes* with checkpoint/restart, a crash-safe shared results file
// and a cross-process compile cache.
//
// Where run_many (assay/pipeline.h) shards a batch across threads of
// one process, run_batch shards the same batch across processes — the
// parent re-execs itself with --worker, feeds each child an item-index
// range over its stdin pipe, and every child appends one JSON result
// line per completed item to the shared results file plus one
// checkpoint line to the ledger. Both files are append-only with one
// write(2) per line (util/subprocess.h LineAppender), so a SIGKILL at
// any instant leaves at most one torn trailing line, which resume
// isolates and readers skip. A killed job restarted with --resume
// recomputes nothing that reached the ledger, and because item seeds
// come from the shared batch seed-split (derive_item_seeds) and result
// lines carry only deterministic fields, the resumed results file is
// bit-identical (as a set of lines) to an uninterrupted run's — pinned
// by bench/bench_batch.cpp and tests/test_batch.cpp.
//
// The process topology is deliberately behind two small seams —
// WorkPartitioner (who computes which items) and ResultSink (where
// result/ledger lines go) — so an MPI rank decomposition or a socket
// fan-out can replace fork/exec + local files without touching the
// worker loop.
//
// Manifest: one JSON object per line, the compile server's request
// dialect minus the queueing fields:
//
//   {"id":"case-3","assay":"assay pcr\n...\nend","options":{"placer":"sa"}}
//
// Per-item "options" overlay the batch's base options; the item's seed
// is then always overwritten by its entry in
// derive_item_seeds(base.seed, n) — the master seed governs every item
// seed (that is the batch seed-split contract; a per-item "seed" key is
// accepted but has no effect). The wire options are the wire entries of
// service/option_table.h; base-option fields the table keeps off the
// wire are forwarded to workers only if dmfb_batch's own flags cover
// them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "assay/assay_library.h"
#include "assay/pipeline.h"
#include "biochip/module_library.h"
#include "service/compile_cache.h"

namespace dmfb {

/// One manifest entry, fully resolved: options = base + overlay, seed
/// already replaced by the item's derive_item_seeds entry.
struct BatchItem {
  std::string id;  ///< echoed in the result line; opaque to the driver
  AssayCase assay;
  PipelineOptions options;
};

/// Parses a JSON-line manifest (format above). Throws on malformed
/// manifests — a batch that silently dropped items would be worse than
/// one that failed loudly before spawning anything.
std::vector<BatchItem> read_manifest(std::istream& in,
                                     const PipelineOptions& base,
                                     const ModuleLibrary& library);

/// Content hash of one resolved item: assay_fingerprint x
/// options_fingerprint (which covers the derived item seed). This is
/// the identity the checkpoint ledger records — resume recomputes an
/// item iff its fingerprint is absent, so editing one manifest entry
/// (or changing the master seed) invalidates exactly the items it
/// changed.
std::uint64_t batch_item_fingerprint(const BatchItem& item);

/// One checkpoint ledger line: "<index> <fingerprint>".
struct LedgerEntry {
  std::size_t index = 0;
  std::uint64_t fingerprint = 0;
};

/// Loads a checkpoint ledger, skipping malformed lines (a torn trailing
/// line from a killed run is data loss of at most that one checkpoint,
/// never an error). Missing file = empty ledger.
std::vector<LedgerEntry> load_ledger(const std::string& path);

/// Renders one result line (no trailing newline). Only deterministic
/// fields — no wall times, no cache provenance — so an item's line is
/// byte-identical whether it was computed cold, served from the cache
/// file, or recomputed by a resumed run (64-bit seed/fingerprint are
/// JSON strings: doubles cannot hold them).
std::string render_result_line(const BatchItem& item, std::size_t index,
                               const PipelineResult& result);

/// Splits pending item indices across `shards` workers. The seam an MPI
/// rank decomposition would implement.
class WorkPartitioner {
 public:
  virtual ~WorkPartitioner() = default;
  /// Returns `shards` disjoint index lists covering `pending` exactly.
  virtual std::vector<std::vector<std::size_t>> partition(
      const std::vector<std::size_t>& pending, int shards) const = 0;
};

/// Contiguous near-equal blocks in manifest order — the default. Block
/// (not round-robin) keeps each worker's manifest locality and makes
/// per-worker progress legible in the ledger.
class BlockPartitioner : public WorkPartitioner {
 public:
  std::vector<std::vector<std::size_t>> partition(
      const std::vector<std::size_t>& pending, int shards) const override;
};

/// Where a worker's result and checkpoint lines go. The seam a socket
/// reporter would implement; the ledger append MUST follow the result
/// append (a crash between them recomputes the item — harmless — where
/// the opposite order would resume past a result that was never
/// written).
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void append_result(const std::string& line) = 0;
  virtual void append_ledger(const std::string& line) = 0;
};

/// Appends to the shared results file and ledger via LineAppender — one
/// write(2) per line, safe for concurrent worker processes.
class FileResultSink : public ResultSink {
 public:
  FileResultSink(const std::string& results_path,
                 const std::string& ledger_path);
  ~FileResultSink() override;
  void append_result(const std::string& line) override;
  void append_ledger(const std::string& line) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One worker's tally, also the unit the parent aggregates.
struct WorkerReport {
  std::size_t completed = 0;   ///< items whose result line was appended
  std::size_t failed = 0;      ///< of those, items with ok=false
  std::size_t exact_hits = 0;  ///< served from the cache, not compiled
  /// Summed per-item compile CPU seconds (not wall: CPU time is immune
  /// to the time-slicing inflation of running more workers than cores).
  double busy_s = 0.0;
};

/// The worker loop, process-agnostic: compiles `indices` (in order)
/// from `items`, appending one result + one ledger line per item.
/// `cache` (nullable) serves exact hits and records cold compiles; if
/// `progress` is non-null, emits the worker wire lines
/// ("done <index> <source> <ok01>" per item, "busy <seconds>" at the
/// end) that run_batch parses. Exposed so tests drive it in-process
/// against run_many for the bit-identity pin.
WorkerReport run_batch_items(const std::vector<BatchItem>& items,
                             const std::vector<std::size_t>& indices,
                             ResultSink& sink, CompileCache* cache,
                             std::ostream* progress);

/// Configuration of one `dmfb_batch --worker` child (everything it
/// cannot get from its stdin handshake).
struct BatchWorkerConfig {
  std::string manifest_path;
  std::string results_path;
  std::string ledger_path;
  /// Cache file to serve exact hits from; "" = no cache. The worker
  /// writes its new entries to `<cache_path>.w<shard>` (the parent
  /// merges) — workers never write the shared cache file concurrently.
  std::string cache_path;
  int shard = 0;
  ModuleLibrary library = ModuleLibrary::standard();
};

/// Worker-process entry point: reads the base-options JSON handshake
/// line then item indices (one per line) from `in`, reports on `out`.
/// Returns the process exit code.
int batch_worker_main(const BatchWorkerConfig& config, std::istream& in,
                      std::ostream& out);

struct BatchOptions {
  std::string manifest_path;
  std::string results_path;
  std::string ledger_path;  ///< "" = results_path + ".ledger"
  std::string cache_path;   ///< "" = no cross-process cache
  /// Worker processes (>= 1). 1 still forks one child — the parent
  /// never compiles, so a wedged compile cannot take the driver down.
  int workers = 1;
  /// Resume a killed run: isolate torn trailing lines, then skip every
  /// item whose current fingerprint is already in the ledger. False =
  /// fresh run, results/ledger truncated.
  bool resume = false;
  PipelineOptions base;
  ModuleLibrary library = ModuleLibrary::standard();
  /// Path re-exec'd with --worker (the running binary's own path).
  std::string worker_exe;
  /// Nullable; default BlockPartitioner.
  const WorkPartitioner* partitioner = nullptr;
  /// Per-worker respawn budget: a worker that exits abnormally (crash,
  /// OOM kill, SIGKILL) with items outstanding is re-exec'd with exactly
  /// its unreported items, and the batch carries on. An item the dead
  /// worker completed without reporting recomputes deterministically, so
  /// the results file stays byte-identical as a set of lines. 0 restores
  /// the pre-recovery behavior: any dead worker fails the batch.
  int max_respawns = 2;
  /// Fault-injection hook for tests and bench_recovery: the parent
  /// SIGKILLs the first spawned worker after this many of its "done"
  /// reports, exercising the respawn path on demand. 0 = off.
  int chaos_kill_after = 0;
};

struct BatchSummary {
  std::size_t items = 0;      ///< manifest size
  std::size_t skipped = 0;    ///< already in the ledger (resume)
  std::size_t completed = 0;  ///< computed or cache-served this run
  std::size_t failed = 0;     ///< of those, ok=false result lines
  std::size_t exact_hits = 0;
  int workers = 0;
  double wall_s = 0.0;  ///< parent wall clock
  /// max over workers of summed per-item compile CPU seconds — the
  /// batch's critical path: the elapsed wall of the same run on enough
  /// free cores, and the scaling denominator on machines with fewer
  /// (items/s = completed / critical_path_s).
  double critical_path_s = 0.0;
  /// Abnormal worker exits recovered by re-exec (see
  /// BatchOptions::max_respawns).
  std::size_t respawns = 0;
  /// Every non-skipped item reported done (workers may have died and
  /// been respawned along the way — that alone does not fail the batch,
  /// and neither does a worker killed after its last done report: the
  /// result and ledger lines land before the report).
  bool ok = false;
};

/// The parent driver: reads the manifest, reconciles the ledger when
/// resuming, shards pending items across spawned workers, aggregates
/// their reports and merges their cache shards into `cache_path`.
/// Throws std::runtime_error on driver-level failures (unreadable
/// manifest, spawn failure); worker failures come back as ok=false.
BatchSummary run_batch(const BatchOptions& options);

}  // namespace dmfb
