// Tests for the multi-process batch driver (service/batch.h) and its
// subprocess plumbing (util/subprocess.h): manifests parse and seed
// items through the shared batch seed-split, the in-process worker loop
// produces results bit-identical to run_many, checkpoint files tolerate
// torn writes, and resume trusts only checkpoints that match the
// current manifest.
#include "service/batch.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "assay/random_assay.h"
#include "io/assay_format.h"
#include "io/json.h"
#include "service/server.h"
#include "util/subprocess.h"

namespace dmfb {
namespace {

/// Short annealing runs so the whole suite stays fast (mirrors
/// test_pipeline's fast_options, minus the non-wire ltsa field so the
/// worker handshake can carry every set option).
PipelineOptions fast_options() {
  PipelineOptions options;
  options.placer_context.annealing.initial_temperature = 1000.0;
  options.placer_context.annealing.cooling_rate = 0.8;
  options.placer_context.annealing.iterations_per_module = 60;
  return options;
}

std::vector<AssayCase> small_assays(int count) {
  const ModuleLibrary library = ModuleLibrary::standard();
  std::vector<AssayCase> assays;
  for (int i = 0; i < count; ++i) {
    RandomAssayParams params;
    params.mix_operations = 3 + i % 2;
    AssayCase assay = random_assay(params, library, /*seed=*/500 + i);
    assay.name = "case-" + std::to_string(i);
    assays.push_back(std::move(assay));
  }
  return assays;
}

std::string manifest_text(const std::vector<AssayCase>& assays) {
  std::ostringstream out;
  for (std::size_t i = 0; i < assays.size(); ++i) {
    json::Value doc;
    doc.set("id", "item-" + std::to_string(i));
    doc.set("assay", assay_to_string(assays[i]));
    out << doc.dump() << '\n';
  }
  return out.str();
}

/// In-memory sink: what FileResultSink appends, captured for asserts.
class MemorySink : public ResultSink {
 public:
  void append_result(const std::string& line) override {
    results.push_back(line);
  }
  void append_ledger(const std::string& line) override {
    ledger.push_back(line);
  }
  std::vector<std::string> results;
  std::vector<std::string> ledger;
};

TEST(BatchManifestTest, ParsesItemsAndAppliesTheBatchSeedSplit) {
  const auto assays = small_assays(3);
  PipelineOptions base = fast_options();
  base.seed = 77;
  std::istringstream in(manifest_text(assays) + "\n  \n");  // blank ok

  const auto items =
      read_manifest(in, base, ModuleLibrary::standard());
  ASSERT_EQ(items.size(), 3u);
  const auto seeds = derive_item_seeds(77, 3);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].id, "item-" + std::to_string(i));
    EXPECT_EQ(items[i].assay.name, assays[i].name);
    EXPECT_EQ(items[i].options.seed, seeds[i]);
  }
  // Fingerprints are per-item (seed differs even for identical text).
  EXPECT_NE(batch_item_fingerprint(items[0]),
            batch_item_fingerprint(items[1]));

  // Per-item overlays apply, but the derived seed still wins.
  std::istringstream overlay(
      "{\"assay\":" +
      json::Value(assay_to_string(assays[0])).dump() +
      ",\"options\":{\"placer\":\"greedy\",\"seed\":1}}\n");
  const auto overlaid =
      read_manifest(overlay, base, ModuleLibrary::standard());
  ASSERT_EQ(overlaid.size(), 1u);
  EXPECT_EQ(overlaid[0].options.placer, "greedy");
  EXPECT_EQ(overlaid[0].options.seed, derive_item_seeds(77, 1)[0]);

  // Malformed manifests fail loudly, with the line number.
  std::istringstream bad("{\"no_assay\":true}\n");
  EXPECT_THROW(read_manifest(bad, base, ModuleLibrary::standard()),
               std::runtime_error);
}

TEST(BatchPartitionTest, BlocksCoverPendingExactlyAndNearEvenly) {
  const std::vector<std::size_t> pending = {0, 2, 3, 5, 7, 8, 9};
  const auto shards = BlockPartitioner().partition(pending, 3);
  ASSERT_EQ(shards.size(), 3u);
  std::vector<std::size_t> flattened;
  for (const auto& shard : shards) {
    EXPECT_LE(shard.size(), 3u);
    EXPECT_GE(shard.size(), 2u);
    flattened.insert(flattened.end(), shard.begin(), shard.end());
  }
  EXPECT_EQ(flattened, pending);

  // More shards than items: trailing shards are empty, nothing lost.
  const auto sparse = BlockPartitioner().partition({4, 6}, 5);
  ASSERT_EQ(sparse.size(), 5u);
  EXPECT_EQ(sparse[0], std::vector<std::size_t>{4});
  EXPECT_EQ(sparse[1], std::vector<std::size_t>{6});
  for (std::size_t k = 2; k < 5; ++k) EXPECT_TRUE(sparse[k].empty());
}

TEST(BatchWorkerTest, ItemsAreBitIdenticalToRunMany) {
  // THE cross-harness contract: the worker loop compiling items
  // [0, n) must reproduce run_many on the same assays and master seed,
  // result for result — same derived seeds, same placements, same
  // costs. This is what makes a sharded batch a drop-in replacement
  // for the in-process thread pool.
  const auto assays = small_assays(3);
  PipelineOptions base = fast_options();
  base.seed = 1234;

  std::istringstream in(manifest_text(assays));
  const auto items = read_manifest(in, base, ModuleLibrary::standard());
  MemorySink sink;
  const WorkerReport report =
      run_batch_items(items, {0, 1, 2}, sink, nullptr, nullptr);
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.failed, 0u);
  ASSERT_EQ(sink.results.size(), 3u);

  const auto reference = SynthesisPipeline(base).run_many(
      std::span<const AssayCase>(assays));
  ASSERT_EQ(reference.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.results[i],
              render_result_line(items[i], i, reference[i]))
        << "item " << i << " diverged from run_many";
  }
}

TEST(BatchWorkerTest, CacheHitsRenderTheSameResultLine) {
  const auto assays = small_assays(2);
  PipelineOptions base = fast_options();
  base.seed = 42;
  std::istringstream in(manifest_text(assays));
  const auto items = read_manifest(in, base, ModuleLibrary::standard());

  CompileCache cache;
  MemorySink cold;
  run_batch_items(items, {0, 1}, cold, &cache, nullptr);

  // Second pass over a warm cache: all exact hits, identical lines —
  // including after a save/load round-trip (the cross-process path).
  MemorySink warm;
  const WorkerReport hits = run_batch_items(items, {0, 1}, warm, &cache,
                                            nullptr);
  EXPECT_EQ(hits.exact_hits, 2u);
  EXPECT_EQ(warm.results, cold.results);

  const std::string path = testing::TempDir() + "dmfb_batch_cache.txt";
  ASSERT_TRUE(cache.save(path));
  CompileCache loaded;
  EXPECT_EQ(loaded.load(path), 2u);
  MemorySink from_disk;
  const WorkerReport disk_hits =
      run_batch_items(items, {0, 1}, from_disk, &loaded, nullptr);
  EXPECT_EQ(disk_hits.exact_hits, 2u);
  EXPECT_EQ(from_disk.results, cold.results);
  std::remove(path.c_str());
}

TEST(BatchLedgerTest, ToleratesTornAndGarbageLines) {
  const std::string path = testing::TempDir() + "dmfb_batch_ledger.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "0 111\n"
        << "garbage line\n"
        << "1 222\n"
        << "5";  // torn mid-append: no fingerprint, no newline
  }
  // terminate_torn_tail isolates the fragment; the reader skips it and
  // the two well-formed checkpoints survive.
  terminate_torn_tail(path);
  const auto entries = load_ledger(path);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].index, 0u);
  EXPECT_EQ(entries[0].fingerprint, 111u);
  EXPECT_EQ(entries[1].index, 1u);
  EXPECT_EQ(entries[1].fingerprint, 222u);

  // A later append lands on its own line, not glued to the fragment.
  {
    LineAppender appender(path);
    appender.append("2 333");
  }
  const auto appended = load_ledger(path);
  ASSERT_EQ(appended.size(), 3u);
  EXPECT_EQ(appended.back().index, 2u);
  EXPECT_EQ(appended.back().fingerprint, 333u);
  std::remove(path.c_str());

  EXPECT_TRUE(load_ledger(path + ".missing").empty());
}

TEST(BatchResumeTest, SkipsOnlyCheckpointsMatchingTheCurrentManifest) {
  // Drive the full parent: fresh 1-worker run over 3 items, then a
  // resume after hand-editing the ledger — the valid checkpoint is
  // skipped, the invalidated one (stale fingerprint, e.g. an edited
  // manifest entry) and the missing one recompute, and the deduplicated
  // results equal the uninterrupted run's.
  // (run_batch itself needs a dmfb_batch binary to re-exec; the
  // spawning path is covered end-to-end by bench_batch. This test pins
  // the resume arithmetic on the library pieces.)
  const auto assays = small_assays(3);
  PipelineOptions base = fast_options();
  base.seed = 9;
  std::istringstream in(manifest_text(assays));
  const auto items = read_manifest(in, base, ModuleLibrary::standard());

  MemorySink full;
  run_batch_items(items, {0, 1, 2}, full, nullptr, nullptr);

  // Ledger after a "crash": item 0 checkpointed correctly, item 1
  // checkpointed under a stale fingerprint, item 2 never finished.
  std::vector<char> done(items.size(), 0);
  std::vector<LedgerEntry> ledger = {
      {0, batch_item_fingerprint(items[0])},
      {1, batch_item_fingerprint(items[1]) ^ 1},  // stale
      {7, batch_item_fingerprint(items[0])},      // out of range
  };
  for (const LedgerEntry& entry : ledger) {
    if (entry.index < items.size() &&
        batch_item_fingerprint(items[entry.index]) == entry.fingerprint) {
      done[entry.index] = 1;
    }
  }
  std::vector<std::size_t> pendingIndices;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!done[i]) pendingIndices.push_back(i);
  }
  EXPECT_EQ(pendingIndices, (std::vector<std::size_t>{1, 2}));

  MemorySink resumed;
  run_batch_items(items, pendingIndices, resumed, nullptr, nullptr);
  ASSERT_EQ(resumed.results.size(), 2u);
  EXPECT_EQ(resumed.results[0], full.results[1]);
  EXPECT_EQ(resumed.results[1], full.results[2]);
}

TEST(BatchRespawnTest, ChaosKilledWorkerIsRespawnedAndResultsMatch) {
  // End-to-end respawn: the parent SIGKILLs its worker after the first
  // "done" report (chaos_kill_after), re-execs it with the unreported
  // items, and the batch still completes with the same result lines an
  // undisturbed run produces.
  const char* env_bin = std::getenv("DMFB_BATCH_BIN");
  const std::string worker_exe = env_bin ? env_bin : "./dmfb_batch";
  if (!std::ifstream(worker_exe).good()) {
    GTEST_SKIP() << "dmfb_batch binary not found (run from the build "
                    "directory or set DMFB_BATCH_BIN)";
  }

  const auto assays = small_assays(4);
  const std::string dir = testing::TempDir();
  const std::string manifest = dir + "dmfb_respawn_manifest.jsonl";
  {
    std::ofstream out(manifest, std::ios::trunc);
    out << manifest_text(assays);
  }

  BatchOptions options;
  options.manifest_path = manifest;
  options.base = fast_options();
  options.base.seed = 321;
  options.workers = 1;
  options.worker_exe = worker_exe;

  // Reference lines from the in-process worker loop (already pinned to
  // run_many above) — what any incarnation of the worker must append.
  std::set<std::string> expected;
  {
    std::istringstream in(manifest_text(assays));
    const auto items =
        read_manifest(in, options.base, ModuleLibrary::standard());
    MemorySink sink;
    run_batch_items(items, {0, 1, 2, 3}, sink, nullptr, nullptr);
    expected.insert(sink.results.begin(), sink.results.end());
  }

  options.results_path = dir + "dmfb_respawn_results.jsonl";
  options.ledger_path = options.results_path + ".ledger";
  std::remove(options.results_path.c_str());
  std::remove(options.ledger_path.c_str());
  options.chaos_kill_after = 1;
  options.max_respawns = 2;
  const BatchSummary summary = run_batch(options);
  EXPECT_TRUE(summary.ok);
  EXPECT_GE(summary.respawns, 1u);
  EXPECT_GE(summary.completed, 4u);  // recomputed items report again

  // The result file may hold byte-identical duplicates (items the dead
  // worker finished without reporting) — identical as a *set* of lines.
  const auto lines = read_lines(options.results_path);
  const std::set<std::string> actual(lines.begin(), lines.end());
  EXPECT_EQ(actual, expected);

  // Zero respawn budget: the same chaos kill fails the batch instead.
  options.results_path = dir + "dmfb_respawn_none.jsonl";
  options.ledger_path = options.results_path + ".ledger";
  std::remove(options.results_path.c_str());
  std::remove(options.ledger_path.c_str());
  options.max_respawns = 0;
  const BatchSummary denied = run_batch(options);
  EXPECT_FALSE(denied.ok);
  EXPECT_EQ(denied.respawns, 0u);

  std::remove(manifest.c_str());
  std::remove((dir + "dmfb_respawn_results.jsonl").c_str());
  std::remove((dir + "dmfb_respawn_results.jsonl.ledger").c_str());
  std::remove(options.results_path.c_str());
  std::remove(options.ledger_path.c_str());
}

TEST(SubprocessTest, RoundTripsLinesThroughCat) {
  Subprocess child = Subprocess::spawn({"/bin/cat"});
  child.write_line("hello");
  child.write_line("world");
  child.close_stdin();
  std::string line;
  ASSERT_TRUE(child.read_line(line));
  EXPECT_EQ(line, "hello");
  ASSERT_TRUE(child.read_line(line));
  EXPECT_EQ(line, "world");
  EXPECT_FALSE(child.read_line(line));
  EXPECT_EQ(child.wait(), 0);
}

TEST(SubprocessTest, ReportsExitCodesAndExecFailures) {
  Subprocess failing = Subprocess::spawn({"/bin/false"});
  failing.close_stdin();
  EXPECT_EQ(failing.wait(), 1);

  Subprocess missing = Subprocess::spawn({"/no/such/binary/anywhere"});
  missing.close_stdin();
  EXPECT_EQ(missing.wait(), 127);
}

TEST(SubprocessTest, TornTailAndReadLinesEdgeCases) {
  const std::string path = testing::TempDir() + "dmfb_torn_tail.txt";
  std::remove(path.c_str());

  // Missing file: no-op, and it is not created.
  terminate_torn_tail(path);
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_TRUE(read_lines(path).empty());

  // Empty file: no-op, stays empty (no spurious blank line).
  { std::ofstream out(path, std::ios::trunc); }
  terminate_torn_tail(path);
  EXPECT_TRUE(read_lines(path).empty());

  // Several complete lines then a torn tail: only the tail is touched,
  // and the call is idempotent — a second pass adds nothing.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "alpha\nbeta\ngam";
  }
  // read_lines returns an unterminated final line as-is (getline).
  {
    const auto torn = read_lines(path);
    ASSERT_EQ(torn.size(), 3u);
    EXPECT_EQ(torn.back(), "gam");
  }
  terminate_torn_tail(path);
  terminate_torn_tail(path);
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream raw;
    raw << in.rdbuf();
    EXPECT_EQ(raw.str(), "alpha\nbeta\ngam\n");
  }

  // Already-terminated file: untouched byte for byte.
  terminate_torn_tail(path);
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "alpha");
  EXPECT_EQ(lines[1], "beta");
  EXPECT_EQ(lines[2], "gam");
  std::remove(path.c_str());
}

TEST(SubprocessTest, AppendsAreWholeLines) {
  const std::string path = testing::TempDir() + "dmfb_appender.txt";
  std::remove(path.c_str());
  {
    LineAppender a(path);
    LineAppender b(path);  // a second handle, as a sibling process would
    a.append("from a");
    b.append("from b");
    a.append("a again");
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "from a");
  EXPECT_EQ(lines[1], "from b");
  EXPECT_EQ(lines[2], "a again");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dmfb
