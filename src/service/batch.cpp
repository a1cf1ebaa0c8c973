#include "service/batch.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/assay_format.h"
#include "io/json.h"
#include "service/server.h"
#include "util/hash.h"
#include "util/subprocess.h"

namespace dmfb {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds consumed by this process — the batch's busy metric.
/// Wall time would credit a worker for time slices it spent descheduled
/// behind its siblings, inflating every worker's busy to roughly the
/// whole batch on machines with fewer cores than workers; CPU time
/// charges each item what it actually cost, so critical-path throughput
/// (completed / max worker busy) measures the sharding itself on any
/// machine.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::runtime_error manifest_error(std::size_t line_number,
                                  const std::string& what) {
  return std::runtime_error("manifest line " + std::to_string(line_number) +
                            ": " + what);
}

}  // namespace

std::vector<BatchItem> read_manifest(std::istream& in,
                                     const PipelineOptions& base,
                                     const ModuleLibrary& library) {
  std::vector<BatchItem> items;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r\n") == std::string::npos) continue;
    BatchItem item;
    item.options = base;
    try {
      const json::Value doc = json::Value::parse(line);
      if (const json::Value* id = doc.find("id")) item.id = id->as_string();
      const json::Value* assay = doc.find("assay");
      if (!assay) throw std::invalid_argument("missing \"assay\"");
      item.assay = assay_from_string(assay->as_string(), library);
      if (const json::Value* opts = doc.find("options")) {
        parse_pipeline_options(*opts, item.options);
      }
    } catch (const std::exception& error) {
      throw manifest_error(line_number, error.what());
    }
    items.push_back(std::move(item));
  }
  // The batch seed-split: item i anneals with seed i of the master
  // walk no matter which process picks it up, and no matter what a
  // per-item overlay said — run_many derives the very same seeds.
  const std::vector<std::uint64_t> seeds =
      derive_item_seeds(base.seed, items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].options.seed = seeds[i];
  }
  return items;
}

std::uint64_t batch_item_fingerprint(const BatchItem& item) {
  HashStream h(/*seed=*/0xBA7C400000001ULL);  // versioned domain tag
  h.mix(assay_fingerprint(item.assay));
  h.mix(options_fingerprint(item.options));
  return h.value();
}

std::vector<LedgerEntry> load_ledger(const std::string& path) {
  std::vector<LedgerEntry> entries;
  for (const std::string& line : read_lines(path)) {
    std::istringstream ls(line);
    LedgerEntry entry;
    if (ls >> entry.index >> entry.fingerprint) {
      entries.push_back(entry);
    }
    // else: torn or garbage line — at most one checkpoint lost, the
    // item just recomputes (deterministically) on resume.
  }
  return entries;
}

std::string render_result_line(const BatchItem& item, std::size_t index,
                               const PipelineResult& result) {
  json::Value doc;
  doc.set("id", item.id);
  doc.set("index", static_cast<double>(index));
  doc.set("assay", item.assay.name);
  doc.set("seed", std::to_string(result.seed));
  doc.set("fingerprint", std::to_string(batch_item_fingerprint(item)));
  doc.set("ok", result.ok);
  if (!result.ok) {
    doc.set("error", result.error);
    return doc.dump();
  }
  append_result_summary(result, doc);
  // Online fault-recovery telemetry (multi-fault campaigns run as batch
  // items with a fault_plan in their options overlay). Deterministic
  // fields only, so re-computed lines stay byte-identical.
  if (!result.recovery.detail.empty()) {
    doc.set("recovery_faults",
            static_cast<double>(result.recovery.faults_injected));
    doc.set("recovery_cycles",
            static_cast<double>(result.recovery.recovery_cycles));
    doc.set("recovery_recovered", result.recovery.recovered);
    doc.set("recovery_completed", result.recovery.completed);
    doc.set("recovery_time_lost_s", result.recovery.time_lost_s);
  }
  return doc.dump();
}

std::vector<std::vector<std::size_t>> BlockPartitioner::partition(
    const std::vector<std::size_t>& pending, int shards) const {
  const std::size_t shard_count =
      static_cast<std::size_t>(std::max(1, shards));
  std::vector<std::vector<std::size_t>> result(shard_count);
  const std::size_t base = pending.size() / shard_count;
  const std::size_t remainder = pending.size() % shard_count;
  std::size_t position = 0;
  for (std::size_t k = 0; k < shard_count; ++k) {
    const std::size_t take = base + (k < remainder ? 1 : 0);
    result[k].assign(pending.begin() + position,
                     pending.begin() + position + take);
    position += take;
  }
  return result;
}

struct FileResultSink::Impl {
  // The ledger is fsync'd per line: a checkpoint acknowledged to the
  // parent must survive a machine crash, or resume could skip an item
  // whose result line was itself lost. One short line per completed
  // compile keeps the cost negligible; the bulk results file stays on
  // the page cache (a lost result line just recomputes).
  Impl(const std::string& results_path, const std::string& ledger_path)
      : results(results_path), ledger(ledger_path, /*fsync_each_line=*/true) {}
  LineAppender results;
  LineAppender ledger;
};

FileResultSink::FileResultSink(const std::string& results_path,
                               const std::string& ledger_path)
    : impl_(std::make_unique<Impl>(results_path, ledger_path)) {}

FileResultSink::~FileResultSink() = default;

void FileResultSink::append_result(const std::string& line) {
  impl_->results.append(line);
}

void FileResultSink::append_ledger(const std::string& line) {
  impl_->ledger.append(line);
}

WorkerReport run_batch_items(const std::vector<BatchItem>& items,
                             const std::vector<std::size_t>& indices,
                             ResultSink& sink, CompileCache* cache,
                             std::ostream* progress) {
  WorkerReport report;
  for (const std::size_t index : indices) {
    const BatchItem& item = items.at(index);
    const double start = cpu_seconds();
    const std::uint64_t assay_fp = assay_fingerprint(item.assay);
    const std::uint64_t options_fp = options_fingerprint(item.options);

    std::shared_ptr<const PipelineResult> result;
    bool exact = false;
    if (cache) {
      // Exact hits only: a warm-started anneal would converge somewhere
      // other than run_many's cold run, and batch results are pinned
      // bit-identical to run_many's.
      result = cache->lookup(assay_fp, options_fp, /*signature=*/0).exact;
      exact = result != nullptr;
    }
    if (!result) {
      auto computed = std::make_shared<PipelineResult>();
      try {
        *computed = SynthesisPipeline(item.options).run(item.assay);
      } catch (const std::exception& error) {
        *computed = PipelineResult{};
        computed->seed = item.options.seed;
        computed->ok = false;
        computed->error = error.what();
      } catch (...) {
        *computed = PipelineResult{};
        computed->seed = item.options.seed;
        computed->ok = false;
        computed->error = "unknown error";
      }
      if (cache && computed->ok) {
        cache->store(assay_fp, options_fp,
                     schedule_signature(computed->schedule), computed,
                     /*links=*/{});
      }
      result = std::move(computed);
    }

    // Result line first, checkpoint second: a crash between the two
    // recomputes the item (deterministically, so the duplicate line is
    // byte-identical); the opposite order could checkpoint an item
    // whose result never hit the file.
    sink.append_result(render_result_line(item, index, *result));
    sink.append_ledger(std::to_string(index) + ' ' +
                       std::to_string(batch_item_fingerprint(item)));
    report.busy_s += cpu_seconds() - start;
    ++report.completed;
    if (!result->ok) ++report.failed;
    if (exact) ++report.exact_hits;
    if (progress) {
      *progress << "done " << index << ' ' << (exact ? "exact" : "cold")
                << ' ' << (result->ok ? 1 : 0) << std::endl;
    }
  }
  if (progress) *progress << "busy " << report.busy_s << std::endl;
  return report;
}

int batch_worker_main(const BatchWorkerConfig& config, std::istream& in,
                      std::ostream& out) {
  std::string line;
  if (!std::getline(in, line)) return 2;  // no options handshake
  PipelineOptions base;
  try {
    parse_pipeline_options(json::Value::parse(line), base);
  } catch (const std::exception&) {
    return 2;
  }

  std::ifstream manifest(config.manifest_path);
  if (!manifest) return 2;
  std::vector<BatchItem> items;
  try {
    items = read_manifest(manifest, base, config.library);
  } catch (const std::exception&) {
    return 2;
  }

  std::vector<std::size_t> indices;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::size_t index = 0;
    std::istringstream ls(line);
    if (!(ls >> index) || index >= items.size()) return 2;
    indices.push_back(index);
  }

  CompileCache cache;
  const bool use_cache = !config.cache_path.empty();
  if (use_cache) cache.load(config.cache_path);

  FileResultSink sink(config.results_path, config.ledger_path);
  run_batch_items(items, indices, sink, use_cache ? &cache : nullptr, &out);

  if (use_cache) {
    // Private shard file; the parent merges shards after every worker
    // exited, so the shared cache file is never written concurrently.
    cache.save(config.cache_path + ".w" + std::to_string(config.shard));
  }
  return 0;
}

BatchSummary run_batch(const BatchOptions& options) {
  const auto start = Clock::now();
  BatchSummary summary;
  const std::string ledger_path = options.ledger_path.empty()
                                      ? options.results_path + ".ledger"
                                      : options.ledger_path;

  std::ifstream manifest(options.manifest_path);
  if (!manifest) {
    throw std::runtime_error("cannot read manifest " + options.manifest_path);
  }
  const std::vector<BatchItem> items =
      read_manifest(manifest, options.base, options.library);
  summary.items = items.size();

  std::vector<std::uint64_t> fingerprints(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    fingerprints[i] = batch_item_fingerprint(items[i]);
  }

  std::vector<char> done(items.size(), 0);
  if (options.resume) {
    // Isolate any torn trailing line *before* a worker appends to the
    // files, then trust only checkpoints that match the items the
    // manifest holds right now.
    terminate_torn_tail(options.results_path);
    terminate_torn_tail(ledger_path);
    for (const LedgerEntry& entry : load_ledger(ledger_path)) {
      if (entry.index < items.size() &&
          fingerprints[entry.index] == entry.fingerprint) {
        done[entry.index] = 1;
      }
    }
  } else {
    std::ofstream(options.results_path, std::ios::trunc);
    std::ofstream(ledger_path, std::ios::trunc);
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!done[i]) pending.push_back(i);
  }
  summary.skipped = items.size() - pending.size();

  const int workers = std::max(1, options.workers);
  summary.workers = workers;
  const BlockPartitioner default_partitioner;
  const WorkPartitioner& partitioner =
      options.partitioner ? *options.partitioner : default_partitioner;
  const auto shards = partitioner.partition(pending, workers);

  if (options.worker_exe.empty()) {
    throw std::runtime_error("run_batch: worker_exe not set");
  }
  const std::string options_json =
      pipeline_options_to_json(options.base).dump();

  // A worker killed between reading its handshake and its first item
  // leaves the write side of its stdin pipe broken; with SIGPIPE at the
  // default disposition the *parent* would die feeding the next line.
  // Ignore it process-wide — every write error still surfaces as EPIPE,
  // which spawn_shard tolerates (the wait() below sees the dead child).
  ::signal(SIGPIPE, SIG_IGN);

  const auto spawn_shard = [&](std::size_t k,
                               const std::vector<std::size_t>& indices) {
    std::vector<std::string> argv = {
        options.worker_exe, "--worker",
        "--manifest",       options.manifest_path,
        "--results",        options.results_path,
        "--ledger",         ledger_path,
        "--shard",          std::to_string(k)};
    if (!options.cache_path.empty()) {
      argv.push_back("--cache");
      argv.push_back(options.cache_path);
    }
    Subprocess process = Subprocess::spawn(argv);
    try {
      process.write_line(options_json);
      for (const std::size_t index : indices) {
        process.write_line(std::to_string(index));
      }
      process.close_stdin();
    } catch (const std::runtime_error&) {
      // Child already dead (EPIPE): wait() reports the abnormal exit and
      // the respawn path below requeues every index.
    }
    return process;
  };

  struct ShardState {
    Subprocess process;
    std::vector<std::size_t> remaining;  ///< not yet reported "done"
    std::size_t shard;
  };
  std::vector<ShardState> children;
  std::vector<int> spawned_shards;
  for (std::size_t k = 0; k < shards.size(); ++k) {
    if (shards[k].empty()) continue;
    children.push_back(ShardState{spawn_shard(k, shards[k]), shards[k], k});
    spawned_shards.push_back(static_cast<int>(k));
  }

  bool ok = true;
  const int max_respawns = std::max(0, options.max_respawns);
  for (ShardState& child : children) {
    double shard_busy = 0.0;
    int respawns_used = 0;
    // The chaos hook targets the first spawned worker, once.
    std::size_t chaos_countdown =
        (&child == children.data() && options.chaos_kill_after > 0)
            ? static_cast<std::size_t>(options.chaos_kill_after)
            : 0;
    for (;;) {
      std::string line;
      while (child.process.read_line(line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "done") {
          std::size_t index = 0;
          std::string source;
          int item_ok = 1;
          if (ls >> index >> source >> item_ok) {
            ++summary.completed;
            if (!item_ok) ++summary.failed;
            if (source == "exact") ++summary.exact_hits;
            const auto it = std::find(child.remaining.begin(),
                                      child.remaining.end(), index);
            if (it != child.remaining.end()) child.remaining.erase(it);
            if (chaos_countdown > 0 && --chaos_countdown == 0) {
              child.process.kill(SIGKILL);
            }
          }
        } else if (tag == "busy") {
          double busy = 0.0;
          if (ls >> busy) shard_busy += busy;
        }
      }
      const int exit_code = child.process.wait();
      // Every item reported done = the shard is complete; results and
      // ledger lines land *before* the done report, so even a worker
      // killed on its way out left nothing unwritten.
      if (child.remaining.empty()) break;
      if (exit_code != 0 && respawns_used < max_respawns) {
        // Abnormal exit with work outstanding: re-exec the worker with
        // exactly the unreported items. An item the dead worker finished
        // without reporting recomputes deterministically, so a duplicate
        // result line is byte-identical and the results file is
        // unchanged as a set of lines. Isolate any torn tail first so
        // the respawned worker's appends start on a fresh line.
        terminate_torn_tail(options.results_path);
        terminate_torn_tail(ledger_path);
        ++respawns_used;
        ++summary.respawns;
        child.process = spawn_shard(child.shard, child.remaining);
        continue;
      }
      // Clean-but-incomplete (a worker logic bug) or budget exhausted.
      ok = false;
      break;
    }
    summary.critical_path_s = std::max(summary.critical_path_s, shard_busy);
  }
  summary.ok = ok;

  if (!options.cache_path.empty()) {
    CompileCache merged;
    merged.load(options.cache_path);
    for (const int k : spawned_shards) {
      const std::string shard_file =
          options.cache_path + ".w" + std::to_string(k);
      merged.load(shard_file);
      std::remove(shard_file.c_str());
    }
    merged.save(options.cache_path);
  }

  summary.wall_s = seconds_since(start);
  return summary;
}

}  // namespace dmfb
