// Tests for the synthesis service (service/): the content-hashed compile
// cache's key covers everything that changes compile output and nothing
// that doesn't, exact hits are bit-identical to the original compile,
// warm starts are deterministic and never worse than cold, the deadline
// round budget leaves no-deadline runs bit-identical, and the JSON-line
// wire protocol round-trips through an in-process serve().
#include "service/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <typeindex>
#include <utility>
#include <vector>

#include "assay/assay_library.h"
#include "assay/scheduler.h"
#include "io/assay_format.h"
#include "io/json.h"
#include "service/batch.h"
#include "service/option_table.h"

namespace dmfb {
namespace {

/// Short annealing runs so the whole suite stays fast (mirrors
/// test_pipeline's fast_options).
PipelineOptions fast_options() {
  PipelineOptions options;
  options.placer_context.annealing.initial_temperature = 1000.0;
  options.placer_context.annealing.cooling_rate = 0.8;
  options.placer_context.annealing.iterations_per_module = 60;
  options.placer_context.ltsa.iterations_per_module = 60;
  return options;
}

/// The PCR assay with only its name changed: different cache key
/// (assay_fingerprint sees the name), identical schedule structure — the
/// canonical near-miss that should warm-start.
AssayCase renamed_pcr() {
  AssayCase assay = pcr_mixing_assay();
  assay.name = "pcr-variant";
  return assay;
}

CompileRequest make_request(std::string id, AssayCase assay,
                            PipelineOptions options) {
  CompileRequest request;
  request.id = std::move(id);
  request.assay = std::move(assay);
  request.options = std::move(options);
  return request;
}

// --- cache key -------------------------------------------------------

TEST(CompileCacheTest, OptionsFingerprintSeesCompileRelevantFields) {
  const PipelineOptions base = fast_options();
  const std::uint64_t fp = options_fingerprint(base);
  EXPECT_EQ(options_fingerprint(fast_options()), fp);  // stable

  const auto differs = [&](auto mutate, const char* what) {
    PipelineOptions changed = fast_options();
    mutate(changed);
    EXPECT_NE(options_fingerprint(changed), fp) << what;
  };
  differs([](PipelineOptions& o) { o.seed = 1; }, "seed");
  differs([](PipelineOptions& o) { o.placer = "greedy"; }, "placer");
  differs([](PipelineOptions& o) { o.router = "negotiated"; }, "router");
  differs([](PipelineOptions& o) { o.placer_context.canvas_width = 28; },
          "canvas");
  differs(
      [](PipelineOptions& o) {
        o.placer_context.defects.push_back(Point{3, 4});
      },
      "defect map");
  differs([](PipelineOptions& o) { o.placer_context.weights.gamma = 0.1; },
          "gamma");
  differs(
      [](PipelineOptions& o) {
        o.placer_context.annealing.iterations_per_module = 61;
      },
      "annealing schedule");
  differs([](PipelineOptions& o) { o.feedback_rounds = 2; },
          "feedback rounds");
  differs([](PipelineOptions& o) { o.deadline_s = 30.0; }, "deadline");
  differs([](PipelineOptions& o) { o.chip_width = 16; }, "chip geometry");
  differs([](PipelineOptions& o) { o.plan_droplet_routes = false; },
          "routing toggle");
  differs([](PipelineOptions& o) { o.simulate = true; }, "simulate");
  differs(
      [](PipelineOptions& o) {
        o.fault_plan.faults.push_back(PlannedFault{Point{3, 4}, 12.0, -1});
      },
      "fault plan");

  // With a plan present, outcome-affecting recovery knobs fork the key;
  // the host-wall deadline (execution-only, like `threads`) does not.
  PipelineOptions with_plan = fast_options();
  with_plan.fault_plan.faults.push_back(PlannedFault{Point{3, 4}, 12.0, -1});
  PipelineOptions no_replace = with_plan;
  no_replace.recovery.enable_replace = false;
  EXPECT_NE(options_fingerprint(no_replace), options_fingerprint(with_plan));
  PipelineOptions slow = with_plan;
  slow.recovery.deadline_s = 99.0;
  EXPECT_EQ(options_fingerprint(slow), options_fingerprint(with_plan));
}

TEST(CompileCacheTest, OptionsFingerprintIgnoresExecutionOnlyFields) {
  const PipelineOptions base = fast_options();
  const std::uint64_t fp = options_fingerprint(base);

  // Execution-only knobs and the warm-start seams themselves must not
  // fork the key space of the cache that feeds them.
  PipelineOptions changed = fast_options();
  changed.threads = 8;
  changed.observer = [](PipelineStage, double, const std::string&) {};
  changed.warm_links.push_back(RouteLink{});
  EXPECT_EQ(options_fingerprint(changed), fp);
}

TEST(CompileCacheTest, RecoveryRelocationOptionsForkTheKeyWithAFaultPlan) {
  // recovery.fti steers the reconfigure rung's relocations, so with a
  // plan it changes the result and must fork the key.
  PipelineOptions with_plan = fast_options();
  with_plan.fault_plan.faults.push_back(PlannedFault{Point{3, 4}, 12.0, -1});
  PipelineOptions no_rotation = with_plan;
  no_rotation.recovery.fti.allow_rotation = false;
  EXPECT_NE(options_fingerprint(no_rotation), options_fingerprint(with_plan));

  // Without a plan the recovery engine never runs.
  PipelineOptions plain = fast_options();
  PipelineOptions plain_no_rotation = plain;
  plain_no_rotation.recovery.fti.allow_rotation = false;
  EXPECT_EQ(options_fingerprint(plain_no_rotation),
            options_fingerprint(plain));

  // The pipeline derives the replace rung's context from placer_context,
  // so the field itself cannot change a result.
  PipelineOptions custom_context = with_plan;
  custom_context.recovery.replace_context.canvas_width = 40;
  EXPECT_EQ(options_fingerprint(custom_context),
            options_fingerprint(with_plan));
}

TEST(CompileCacheTest, ScheduleSignatureIgnoresLabels) {
  const AssayCase a = pcr_mixing_assay();
  const AssayCase b = renamed_pcr();
  const Schedule sa = list_schedule(a.graph, a.binding, a.scheduler_options);
  const Schedule sb = list_schedule(b.graph, b.binding, b.scheduler_options);
  EXPECT_EQ(schedule_signature(sa), schedule_signature(sb));

  // Serializing the schedule removes every time overlap — a different
  // structure, so placements must not transfer.
  AssayCase serial = pcr_mixing_assay();
  serial.scheduler_options.constraints.max_concurrent_modules = 1;
  const Schedule ss = list_schedule(serial.graph, serial.binding,
                                    serial.scheduler_options);
  EXPECT_NE(schedule_signature(ss), schedule_signature(sa));
}

// --- exact hits ------------------------------------------------------

TEST(ServiceTest, ExactHitReturnsTheStoredResultBitIdentical) {
  CompileService service;
  const CompileRequest request =
      make_request("r1", pcr_mixing_assay(), fast_options());

  const CompileResponse first = service.compile(request);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.source, CompileSource::kMiss);

  const CompileResponse second = service.compile(request);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.source, CompileSource::kExactHit);
  // The very same stored object, not a recompute — bit-identical by
  // construction.
  EXPECT_EQ(second.result.get(), first.result.get());

  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.exact_hits, 1);
  EXPECT_EQ(stats.warm_hits, 0);
  EXPECT_EQ(stats.entries, 1);
}

TEST(ServiceTest, CacheBypassAlwaysCompilesColdAndStoresNothing) {
  CompileService service;
  CompileRequest request =
      make_request("r1", pcr_mixing_assay(), fast_options());
  request.use_cache = false;

  EXPECT_EQ(service.compile(request).source, CompileSource::kMiss);
  EXPECT_EQ(service.compile(request).source, CompileSource::kMiss);
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.misses, 0);  // bypass never consults the cache
}

TEST(ServiceTest, CompileErrorsComeBackAsResponsesNotThrows) {
  CompileService service;
  PipelineOptions options = fast_options();
  options.placer = "no-such-placer";
  const CompileResponse response =
      service.compile(make_request("r1", pcr_mixing_assay(), options));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.id, "r1");
  EXPECT_NE(response.error.find("no-such-placer"), std::string::npos)
      << response.error;
}

// --- warm starts -----------------------------------------------------

TEST(ServiceTest, NearMissWarmStartsDeterministicallyAndNeverWorse) {
  // A cold reference compile of the perturbed assay, outside any cache.
  CompileService cold_service;
  CompileRequest cold_request =
      make_request("cold", renamed_pcr(), fast_options());
  cold_request.use_cache = false;
  const CompileResponse cold = cold_service.compile(cold_request);
  ASSERT_TRUE(cold.ok) << cold.error;

  const auto run_sequence = [](CompileService& service) {
    const CompileResponse seed = service.compile(
        make_request("seed", pcr_mixing_assay(), fast_options()));
    EXPECT_TRUE(seed.ok) << seed.error;
    EXPECT_EQ(seed.source, CompileSource::kMiss);
    return service.compile(
        make_request("warm", renamed_pcr(), fast_options()));
  };

  CompileService a;
  const CompileResponse warm = run_sequence(a);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.source, CompileSource::kWarmStart);
  EXPECT_EQ(a.cache_stats().warm_hits, 1);

  // Never worse: the annealers record the (feasible) warm seed as the
  // initial best, and the seed *is* the cold solution here — same
  // structure, same master seed.
  EXPECT_LE(warm.result->placement.cost.value,
            cold.result->placement.cost.value + 1e-9);

  // Deterministic under a fixed seed: a fresh service running the same
  // request sequence lands on the identical placement.
  CompileService b;
  const CompileResponse again = run_sequence(b);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.source, CompileSource::kWarmStart);
  const Placement& p = warm.result->placement.placement;
  const Placement& q = again.result->placement.placement;
  ASSERT_EQ(p.module_count(), q.module_count());
  for (int i = 0; i < p.module_count(); ++i) {
    EXPECT_EQ(p.module(i).anchor, q.module(i).anchor) << "module " << i;
    EXPECT_EQ(p.module(i).rotated, q.module(i).rotated) << "module " << i;
  }
  EXPECT_DOUBLE_EQ(warm.result->placement.cost.value,
                   again.result->placement.cost.value);
}

// --- deadline round budget -------------------------------------------

TEST(DeadlineTest, NoDeadlineRunsAreBitIdenticalToTheDeadlinePath) {
  // deadline_s = 0 must take the exact legacy code path; an unmeetable
  // deadline must change nothing either (the check never fires).
  PipelineOptions options = fast_options();
  options.feedback_rounds = 2;
  options.placer_context.weights.gamma = 0.05;

  const PipelineResult zero = SynthesisPipeline(options).run(
      pcr_mixing_assay());
  options.deadline_s = 1e-9;  // never met: makespans are whole seconds
  const PipelineResult tiny = SynthesisPipeline(options).run(
      pcr_mixing_assay());

  ASSERT_EQ(tiny.feedback_history.size(), zero.feedback_history.size());
  for (std::size_t i = 0; i < zero.feedback_history.size(); ++i) {
    EXPECT_EQ(tiny.feedback_history[i].seed, zero.feedback_history[i].seed);
    EXPECT_EQ(tiny.feedback_history[i].routed,
              zero.feedback_history[i].routed);
    EXPECT_DOUBLE_EQ(tiny.feedback_history[i].transport_makespan_s,
                     zero.feedback_history[i].transport_makespan_s);
    EXPECT_DOUBLE_EQ(tiny.feedback_history[i].placement_cost,
                     zero.feedback_history[i].placement_cost);
  }
  EXPECT_EQ(tiny.selected_round, zero.selected_round);
  const Placement& p = zero.placement.placement;
  const Placement& q = tiny.placement.placement;
  ASSERT_EQ(p.module_count(), q.module_count());
  for (int i = 0; i < p.module_count(); ++i) {
    EXPECT_EQ(p.module(i).anchor, q.module(i).anchor);
    EXPECT_EQ(p.module(i).rotated, q.module(i).rotated);
  }
}

TEST(DeadlineTest, GenerousDeadlineStopsSpendingRounds) {
  PipelineOptions options = fast_options();
  options.feedback_rounds = 3;
  options.placer_context.weights.gamma = 0.05;
  options.deadline_s = 1e9;  // any routed round meets it

  const PipelineResult result = SynthesisPipeline(options).run(
      pcr_mixing_assay());
  ASSERT_FALSE(result.feedback_history.empty());
  ASSERT_TRUE(result.feedback_history.front().routed);
  // Round 0 routed under the deadline, so no feedback round runs.
  EXPECT_EQ(result.feedback_history.size(), 1u);
  EXPECT_EQ(result.selected_round, 0);
}

// --- wire protocol ---------------------------------------------------

/// A PCR request line whose "options" member is `options_text` verbatim,
/// for values json::Value cannot build (integers past 2^53).
std::string request_line(const std::string& id,
                         const std::string& options_text) {
  json::Value request;
  request.set("id", id);
  request.set("assay", assay_to_string(pcr_mixing_assay()));
  std::string line = request.dump();
  line.pop_back();  // reopen the object
  return line + ",\"options\":" + options_text + "}";
}

/// Feeds `input` through serve() and returns the responses (in completion
/// order, which need not be input order with several workers).
std::vector<std::string> serve_all(CompileServer& server,
                                   const std::vector<std::string>& input) {
  std::size_t cursor = 0;
  std::mutex output_mutex;
  std::vector<std::string> output;
  server.serve(
      [&](std::string& line) {
        if (cursor >= input.size()) return false;
        line = input[cursor++];
        return true;
      },
      [&](const std::string& line) {
        const std::lock_guard<std::mutex> lock(output_mutex);
        output.push_back(line);
      });
  return output;
}

TEST(ServerTest, ParseRequestReadsEveryField) {
  const CompileServer server;
  json::Value doc;
  doc.set("id", std::string("r7"));
  doc.set("assay", assay_to_string(pcr_mixing_assay()));
  doc.set("cache", false);
  json::Value options;
  options.set("seed", 99.0);
  options.set("placer", std::string("two-stage"));
  options.set("router", std::string("negotiated"));
  options.set("canvas", json::Value(json::Value::Array{
                            json::Value(28), json::Value(26)}));
  options.set("gamma", 0.05);
  options.set("feedback_rounds", 2.0);
  options.set("deadline_s", 40.0);
  doc.set("options", std::move(options));

  const CompileRequest request = server.parse_request(doc.dump());
  EXPECT_EQ(request.id, "r7");
  EXPECT_FALSE(request.use_cache);
  EXPECT_EQ(request.assay.graph.operation_count(),
            pcr_mixing_assay().graph.operation_count());
  EXPECT_EQ(request.options.seed, 99u);
  EXPECT_EQ(request.options.placer, "two-stage");
  EXPECT_EQ(request.options.router, "negotiated");
  EXPECT_EQ(request.options.placer_context.canvas_width, 28);
  EXPECT_EQ(request.options.placer_context.canvas_height, 26);
  EXPECT_DOUBLE_EQ(request.options.placer_context.weights.gamma, 0.05);
  EXPECT_EQ(request.options.feedback_rounds, 2);
  EXPECT_DOUBLE_EQ(request.options.deadline_s, 40.0);
}

TEST(ServerTest, ParseRequestRejectsUnknownOptionsAndMissingAssay) {
  const CompileServer server;
  EXPECT_THROW(server.parse_request("{\"id\":\"x\"}"),
               std::invalid_argument);  // no assay
  json::Value doc;
  doc.set("id", std::string("x"));
  doc.set("assay", assay_to_string(pcr_mixing_assay()));
  json::Value options;
  options.set("plaecr", std::string("sa"));  // misspelled: must be an error
  doc.set("options", std::move(options));
  EXPECT_THROW(server.parse_request(doc.dump()), std::invalid_argument);
  EXPECT_THROW(server.parse_request("not json"), json::JsonError);
}

TEST(ServerTest, ServeAnswersRequestsControlLinesAndErrors) {
  ServerOptions options;
  options.workers = 2;
  CompileServer server(options);

  json::Value request;
  request.set("id", std::string("r1"));
  request.set("assay", assay_to_string(pcr_mixing_assay()));
  json::Value request_options;
  json::Value annealing;
  annealing.set("T0", 1000.0);
  annealing.set("alpha", 0.8);
  annealing.set("iterations_per_module", 60.0);
  request_options.set("annealing", std::move(annealing));
  request.set("options", std::move(request_options));

  const std::vector<std::string> input = {
      request.dump(),
      "this is not json",
      "{\"cmd\":\"stats\"}",
      "{\"cmd\":\"shutdown\"}",
      "{\"id\":\"never-read\"}",  // after shutdown: must not be served
  };
  std::size_t cursor = 0;
  std::mutex output_mutex;
  std::vector<std::string> output;
  std::atomic<int> responses{0};
  server.serve(
      [&](std::string& line) {
        if (cursor >= input.size()) return false;
        // Control lines are answered inline by the reader; wait for the
        // queued requests to drain first so the counters and the output
        // size are deterministic.
        if (input[cursor].find("\"cmd\"") != std::string::npos) {
          while (responses.load() < 2) std::this_thread::yield();
        }
        line = input[cursor++];
        return true;
      },
      [&](const std::string& line) {
        {
          const std::lock_guard<std::mutex> lock(output_mutex);
          output.push_back(line);
        }
        responses.fetch_add(1);
      });

  // shutdown stops the reader before the trailing request.
  EXPECT_EQ(cursor, 4u);
  ASSERT_EQ(output.size(), 3u);  // r1 + parse error + stats

  bool saw_result = false, saw_error = false, saw_stats = false;
  for (const std::string& line : output) {
    const json::Value doc = json::Value::parse(line);
    if (doc.find("stats")) {
      saw_stats = true;
      EXPECT_EQ(doc.find("stats")->find("misses")->as_number(), 1.0);
    } else if (doc.find("id") && doc.find("id")->as_string() == "r1") {
      saw_result = true;
      EXPECT_TRUE(doc.find("ok")->as_bool());
      EXPECT_EQ(doc.find("source")->as_string(), "miss");
      const json::Value* result = doc.find("result");
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(result->find("assay")->as_string(), "pcr-mixing-stage");
      EXPECT_GT(result->find("area_cells")->as_number(), 0.0);
      EXPECT_TRUE(result->find("routed")->as_bool());
      EXPECT_GT(result->find("transport_makespan_s")->as_number(), 0.0);
      // The placement text round-trips through the repo's one parser.
      EXPECT_EQ(result->find("placement")->as_string().rfind("placement ", 0),
                0u);
    } else {
      saw_error = true;
      EXPECT_FALSE(doc.find("ok")->as_bool());
      EXPECT_FALSE(doc.find("error")->as_string().empty());
    }
  }
  EXPECT_TRUE(saw_result);
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(saw_stats);
}

TEST(ServerTest, UnterminatingOrOutOfRangeOptionsAnswerNotOk) {
  // Alpha 1.0 and a negative stop temperature never cool to a stop; a
  // billion iterations per module, or T0 = 1e300 cooled at 0.999999
  // (~6.9e8 temperature steps), stop but only after hours; 1e30 and 2.5
  // are no int; -1, 1e30, 2.5 and 2^64 are no 64-bit seed; and "engine"
  // and "persist_congestion_history" are no options (both were once).
  // Each request must answer ok:false, and promptly: the first four would
  // otherwise hold a worker forever or for hours.
  const auto request_with = [](const std::string& id, const char* key,
                               json::Value value, bool in_annealing) {
    json::Value request;
    request.set("id", id);
    request.set("assay", assay_to_string(pcr_mixing_assay()));
    json::Value options;
    if (in_annealing) {
      json::Value annealing;
      annealing.set(key, std::move(value));
      options.set("annealing", std::move(annealing));
    } else {
      options.set(key, std::move(value));
    }
    request.set("options", std::move(options));
    return request.dump();
  };
  const std::vector<std::string> input = {
      request_with("alpha", "alpha", json::Value(1.0), true),
      request_with("min-t", "min_temperature", json::Value(-1.0), true),
      request_with("na", "iterations_per_module", json::Value(1e30), true),
      request_with("na-frac", "iterations_per_module", json::Value(2.5),
                   true),
      request_with("na-huge", "iterations_per_module",
                   json::Value(1000000000), true),
      request_with("engine", "engine", json::Value(std::string("delta")),
                   false),
      request_with("persist", "persist_congestion_history",
                   json::Value(true), false),
      request_with("seed-neg", "seed", json::Value(-1), false),
      request_with("seed-huge", "seed", json::Value(1e30), false),
      request_with("seed-frac", "seed", json::Value(2.5), false),
      request_line("seed-2^64", "{\"seed\":18446744073709551616}"),
      request_line("slow-cool",
                   "{\"annealing\":{\"T0\":1e300,\"alpha\":0.999999}}"),
  };

  ServerOptions options;
  options.workers = 2;
  CompileServer server(options);
  const std::vector<std::string> output = serve_all(server, input);

  ASSERT_EQ(output.size(), input.size());
  for (const std::string& line : output) {
    const json::Value doc = json::Value::parse(line);
    EXPECT_FALSE(doc.find("ok")->as_bool()) << line;
    const std::string& error = doc.find("error")->as_string();
    EXPECT_FALSE(error.empty()) << line;
    // Rejected for the reason under test, not an earlier one.
    const std::string& id = doc.find("id")->as_string();
    if (id == "na-huge" || id == "slow-cool") {
      EXPECT_NE(error.find("work limit"), std::string::npos) << line;
    } else if (id.rfind("seed-", 0) == 0) {
      EXPECT_NE(error.find("unsigned 64-bit"), std::string::npos) << line;
    }
  }
}

/// Parses one wire "options" object onto defaults.
PipelineOptions parse_options(const std::string& text) {
  PipelineOptions options;
  parse_pipeline_options(json::Value::parse(text), options);
  return options;
}

/// Expects parse_options(text) to throw std::invalid_argument whose
/// message contains every one of `needles`.
void expect_rejected(const std::string& text,
                     std::initializer_list<const char*> needles) {
  try {
    parse_options(text);
    ADD_FAILURE() << "accepted " << text;
  } catch (const std::invalid_argument& error) {
    for (const char* needle : needles) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << text << " -> " << error.what();
    }
  }
}

TEST(ServerTest, FeedbackRoundsCountTowardTheAnnealWorkLimit) {
  // With gamma 0 the closed loop never reaches a fixed point, so every
  // round re-anneals: two billion rounds of the paper's schedule would
  // run for years.
  expect_rejected("{\"feedback_rounds\":2000000000}",
                  {"feedback_rounds", "work limit"});
  expect_rejected("{\"feedback_rounds\":200}", {"feedback_rounds"});
  expect_rejected("{\"feedback_rounds\":-1}", {"\"feedback_rounds\""});
  EXPECT_EQ(parse_options("{\"feedback_rounds\":2}").feedback_rounds, 2);
  EXPECT_EQ(parse_options("{\"feedback_rounds\":3}").feedback_rounds, 3);
  // The rule reads the parsed whole, in any key order: a cheaper schedule
  // buys the rounds back (201 x 116 steps x 40 < 4e6).
  EXPECT_EQ(parse_options("{\"feedback_rounds\":200,\"annealing\":{"
                          "\"iterations_per_module\":40}}")
                .feedback_rounds,
            200);
}

TEST(ServerTest, CanvasChipAndDefectsAreBoundedAtParseTime) {
  // A 2000 x 2000 canvas used to reach the compile and come back as
  // std::bad_alloc; every side and cell now stops at the parser.
  expect_rejected("{\"canvas\":[2000,2000]}", {"\"canvas\"", "range"});
  expect_rejected("{\"canvas\":[24,129]}", {"\"canvas\""});
  expect_rejected("{\"canvas\":[0,24]}", {"\"canvas\""});
  expect_rejected("{\"canvas\":[24]}", {"\"canvas\""});
  expect_rejected("{\"chip\":[2000,16]}", {"\"chip\""});
  expect_rejected("{\"chip\":[-1,16]}", {"\"chip\""});
  expect_rejected("{\"defects\":[[3,4],[128,0]]}", {"\"defects\""});
  expect_rejected("{\"defects\":[[-1,0]]}", {"\"defects\""});

  const PipelineOptions largest = parse_options(
      "{\"canvas\":[128,128],\"chip\":[128,0],\"defects\":[[127,127]]}");
  EXPECT_EQ(largest.placer_context.canvas_width, option_table::kMaxSide);
  EXPECT_EQ(largest.chip_width, option_table::kMaxSide);
  EXPECT_EQ(largest.chip_height, 0);
  EXPECT_EQ(largest.placer_context.defects.back(), (Point{127, 127}));

  CompileServer server;
  const std::vector<std::string> output =
      serve_all(server, {request_line("huge", "{\"canvas\":[2000,2000]}")});
  ASSERT_EQ(output.size(), 1u);
  const json::Value doc = json::Value::parse(output[0]);
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_NE(doc.find("error")->as_string().find("\"canvas\""),
            std::string::npos)
      << output[0];
}

TEST(JsonTest, NestingDeeperThanTheBoundThrowsInsteadOfOverflowing) {
  // One recursion level per '[': unbounded, 200k of them overflowed the
  // stack of the reading process.
  EXPECT_THROW(json::Value::parse(std::string(200000, '[')), json::JsonError);
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(json::Value::parse(nested(json::kMaxDepth)));
  EXPECT_THROW(json::Value::parse(nested(json::kMaxDepth + 1)),
               json::JsonError);
  EXPECT_THROW(json::Value::parse(std::string(100000, '{') + "\"k\":1"),
               json::JsonError);
}

TEST(ServerTest, DeeplyNestedLineAnswersNotOkAndServingContinues) {
  const std::string valid =
      request_line("after", "{\"plan_droplet_routes\":false,\"annealing\":{"
                            "\"T0\":100,\"alpha\":0.5,"
                            "\"iterations_per_module\":5}}");
  CompileServer server;
  const std::vector<std::string> output =
      serve_all(server, {std::string(200000, '['), valid});
  ASSERT_EQ(output.size(), 2u);
  int rejected = 0;
  for (const std::string& line : output) {
    const json::Value doc = json::Value::parse(line);
    if (doc.find("id")->as_string() == "after") {
      EXPECT_TRUE(doc.find("ok")->as_bool()) << line;
    } else {
      EXPECT_FALSE(doc.find("ok")->as_bool()) << line;
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 1);
}

TEST(ServerTest, SeedsAboveTwoToThe53EchoDigitForDigit) {
  // 2^53 + 1 is the first integer a double cannot hold: it must reach the
  // compile and come back exactly, not as 2^53.
  const std::string seed = "9007199254740993";
  const std::string line = request_line(
      "big-seed", "{\"seed\":" + seed +
                      ",\"plan_droplet_routes\":false,\"annealing\":{"
                      "\"T0\":100,\"alpha\":0.5,"
                      "\"iterations_per_module\":5}}");
  CompileServer server;
  const std::vector<std::string> output = serve_all(server, {line});
  ASSERT_EQ(output.size(), 1u);
  EXPECT_NE(output[0].find("\"seed\":" + seed + ","), std::string::npos)
      << output[0];
  const json::Value doc = json::Value::parse(output[0]);
  ASSERT_TRUE(doc.find("ok")->as_bool()) << output[0];
  EXPECT_EQ(doc.find("result")->find("seed")->as_u64(), 9007199254740993ULL);
}

// --- options wire round-trip -----------------------------------------

TEST(ServerTest, PipelineOptionsJsonRoundTripsEveryWireField) {
  // Start from defaults and mutate only wire-surface fields; the
  // options fingerprint (which sees every compile-relevant field) then
  // proves emit -> parse loses nothing the wire can carry.
  PipelineOptions options;
  options.seed = 12345;
  options.placer = "two-stage";
  options.router = "negotiated";
  options.placer_context.canvas_width = 28;
  options.placer_context.canvas_height = 26;
  options.chip_width = 20;
  options.chip_height = 18;
  options.placer_context.defects = {Point{3, 4}, Point{5, 6}};
  options.placer_context.weights.gamma = 0.02;
  options.placer_context.weights.beta = 0.5;
  options.placer_context.annealing.initial_temperature = 1000.0;
  options.placer_context.annealing.cooling_rate = 0.8;
  options.placer_context.annealing.iterations_per_module = 60;
  options.placer_context.annealing.min_temperature = 0.25;
  options.feedback_rounds = 2;
  options.deadline_s = 1.5;
  options.plan_droplet_routes = false;
  options.simulate = true;
  options.fault_plan.faults.push_back(PlannedFault{Point{7, 8}, 25.0, -1});
  options.fault_plan.faults.push_back(PlannedFault{Point{2, 9}, 40.5, -1});
  options.recovery.deadline_s = 2.5;
  options.recovery.max_cycles = 3;
  options.evaluate_fault_tolerance = false;
  options.binding_policy = BindingPolicy::kSmallest;

  PipelineOptions parsed;
  const json::Value wire = pipeline_options_to_json(options);
  EXPECT_EQ(wire.find("engine"), nullptr);  // one annealing engine, no key
  parse_pipeline_options(wire, parsed);
  EXPECT_EQ(options_fingerprint(parsed), options_fingerprint(options));
  EXPECT_EQ(parsed.seed, options.seed);
  EXPECT_EQ(parsed.placer, options.placer);
  EXPECT_EQ(parsed.placer_context.defects.size(), 2u);
  EXPECT_EQ(parsed.binding_policy, options.binding_policy);
  ASSERT_EQ(parsed.fault_plan.faults.size(), 2u);
  EXPECT_EQ(parsed.fault_plan.faults[0].cell, (Point{7, 8}));
  EXPECT_EQ(parsed.fault_plan.faults[1].time_s, 40.5);
  EXPECT_EQ(parsed.recovery.deadline_s, 2.5);
  EXPECT_EQ(parsed.recovery.max_cycles, 3);

  // The dump itself parses as one JSON line (the batch handshake).
  const std::string line = pipeline_options_to_json(options).dump();
  PipelineOptions reparsed;
  parse_pipeline_options(json::Value::parse(line), reparsed);
  EXPECT_EQ(options_fingerprint(reparsed), options_fingerprint(options));
}

TEST(ServerTest, PipelineOptionsJsonCarriesTheFullSeedRange) {
  // The batch driver ships its base options to workers through this
  // pair, so a master seed must survive it exactly, up to 2^64 - 1.
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{9007199254740993ULL},
        std::uint64_t{18446744073709551615ULL}}) {
    PipelineOptions options;
    options.seed = seed;
    const std::string line = pipeline_options_to_json(options).dump();
    EXPECT_NE(line.find("\"seed\":" + std::to_string(seed) + ","),
              std::string::npos)
        << line;
    PipelineOptions parsed;
    parse_pipeline_options(json::Value::parse(line), parsed);
    EXPECT_EQ(parsed.seed, seed);
  }
}

TEST(ServerTest, FaultPlanRequestCarriesRecoveryTelemetry) {
  CompileServer server;

  // Compile clean first to learn where module 0 lands; the response must
  // not carry a recovery block.
  json::Value clean_doc;
  clean_doc.set("id", std::string("clean"));
  clean_doc.set("assay", assay_to_string(pcr_mixing_assay()));
  json::Value clean_options;
  clean_options.set("placer", std::string("greedy"));
  clean_options.set("simulate", true);
  clean_options.set("chip", json::Value(json::Value::Array{
                                json::Value(20), json::Value(20)}));
  clean_doc.set("options", std::move(clean_options));
  CompileRequest clean_request = server.parse_request(clean_doc.dump());
  clean_request.use_cache = false;
  const CompileResponse clean = server.service().compile(clean_request);
  ASSERT_TRUE(clean.ok) << clean.error;
  const json::Value clean_line =
      json::Value::parse(CompileServer::render_response(clean));
  EXPECT_EQ(clean_line.find("result")->find("recovery"), nullptr);

  // Same compile with a fault planned mid-run under module 0.
  const Rect fp = clean.result->placement.placement.module(0).footprint();
  const ScheduledModule& sm = clean.result->schedule.module(0);
  json::Value doc;
  doc.set("id", std::string("faulty"));
  doc.set("assay", assay_to_string(pcr_mixing_assay()));
  json::Value options;
  options.set("placer", std::string("greedy"));
  options.set("simulate", true);
  options.set("chip", json::Value(json::Value::Array{json::Value(20),
                                                     json::Value(20)}));
  json::Value::Array fault;
  fault.push_back(json::Value(0.5 * (sm.start_s + sm.end_s)));
  fault.push_back(json::Value(fp.x + fp.width / 2));
  fault.push_back(json::Value(fp.y + fp.height / 2));
  json::Value::Array plan;
  plan.push_back(json::Value(std::move(fault)));
  options.set("fault_plan", json::Value(std::move(plan)));
  doc.set("options", std::move(options));
  CompileRequest request = server.parse_request(doc.dump());
  request.use_cache = false;
  ASSERT_EQ(request.options.fault_plan.faults.size(), 1u);

  const CompileResponse response = server.service().compile(request);
  ASSERT_TRUE(response.ok) << response.error;
  const json::Value line =
      json::Value::parse(CompileServer::render_response(response));
  const json::Value* recovery = line.find("result")->find("recovery");
  ASSERT_NE(recovery, nullptr);
  EXPECT_EQ(recovery->find("faults")->as_number(), 1.0);
  EXPECT_TRUE(recovery->find("recovered")->as_bool());
  EXPECT_TRUE(recovery->find("completed")->as_bool());
  EXPECT_GT(recovery->find("time_lost_s")->as_number(), 0.0);
  EXPECT_FALSE(recovery->find("attempts")->as_array().empty());
  EXPECT_GE(recovery->find("cycles")->as_number(), 1.0);
}

/// Greedy PCR on a 20 x 20 chip, simulated, seed 7: the compile the
/// golden result lines below were rendered from.
PipelineOptions summary_options() {
  PipelineOptions options;
  options.placer = "greedy";
  options.simulate = true;
  options.chip_width = 20;
  options.chip_height = 20;
  options.seed = 7;
  return options;
}

TEST(ServerTest, ResultLinesMatchGoldenCaptures) {
  // The server's response line and the batch result line, without and
  // then with a fault planned under module 0, byte for byte as rendered
  // before both shared append_result_summary.
  const char* const golden[] = {
      R"json({"id":"golden","ok":true,"source":"miss","wall_s":0.5,"result":{"assay":"pcr-mixing-stage","seed":7,"area_cells":78,"cost":78,"fti":0.6410256410256411,"makespan_s":24,"transport_makespan_s":26.923076923076923,"routed":true,"rounds":0,"selected_round":0,"placement":"placement 24 24\nplace 0 6 0 0  # M1\nplace 1 0 0 0  # M2\nplace 2 0 0 0  # M3\nplace 3 3 0 0  # M4\nplace 4 0 0 0  # M5\nplace 5 3 0 0  # M6\nplace 6 0 0 0  # M7\nplace 7 7 0 0  # S(M1)\nplace 8 10 0 0  # S(M3)\nplace 9 0 0 0  # S(M5)\nend\n"}})json",
      R"json({"id":"item","index":3,"assay":"pcr-mixing-stage","seed":"7","fingerprint":"16757742581759998842","ok":true,"area_cells":78,"cost":78,"fti":0.6410256410256411,"makespan_s":24,"transport_makespan_s":26.923076923076923,"routed":true,"rounds":0,"selected_round":0,"placement":"placement 24 24\nplace 0 6 0 0  # M1\nplace 1 0 0 0  # M2\nplace 2 0 0 0  # M3\nplace 3 3 0 0  # M4\nplace 4 0 0 0  # M5\nplace 5 3 0 0  # M6\nplace 6 0 0 0  # M7\nplace 7 7 0 0  # S(M1)\nplace 8 10 0 0  # S(M3)\nplace 9 0 0 0  # S(M5)\nend\n"})json",
      R"json({"id":"golden","ok":true,"source":"miss","wall_s":0.5,"result":{"assay":"pcr-mixing-stage","seed":7,"area_cells":78,"cost":78,"fti":0.6410256410256411,"makespan_s":24,"transport_makespan_s":26.923076923076923,"routed":true,"rounds":0,"selected_round":0,"placement":"placement 24 24\nplace 0 6 0 0  # M1\nplace 1 0 0 0  # M2\nplace 2 0 0 0  # M3\nplace 3 3 0 0  # M4\nplace 4 0 0 0  # M5\nplace 5 3 0 0  # M6\nplace 6 0 0 0  # M7\nplace 7 7 0 0  # S(M1)\nplace 8 10 0 0  # S(M3)\nplace 9 0 0 0  # S(M5)\nend\n","recovery":{"faults":1,"cycles":1,"recovered":true,"completed":true,"time_lost_s":5,"resumed_from_s":5,"detail":"completed after 1 recovery cycle(s)","attempts":[{"action":"reconfigure","cycle":1,"success":true}]}}})json",
      R"json({"id":"item","index":3,"assay":"pcr-mixing-stage","seed":"7","fingerprint":"10251245379809406223","ok":true,"area_cells":78,"cost":78,"fti":0.6410256410256411,"makespan_s":24,"transport_makespan_s":26.923076923076923,"routed":true,"rounds":0,"selected_round":0,"placement":"placement 24 24\nplace 0 6 0 0  # M1\nplace 1 0 0 0  # M2\nplace 2 0 0 0  # M3\nplace 3 3 0 0  # M4\nplace 4 0 0 0  # M5\nplace 5 3 0 0  # M6\nplace 6 0 0 0  # M7\nplace 7 7 0 0  # S(M1)\nplace 8 10 0 0  # S(M3)\nplace 9 0 0 0  # S(M5)\nend\n","recovery_faults":1,"recovery_cycles":1,"recovery_recovered":true,"recovery_completed":true,"recovery_time_lost_s":5})json",
  };
  PipelineOptions options = summary_options();
  for (int faulty = 0; faulty < 2; ++faulty) {
    SCOPED_TRACE(faulty ? "with a fault plan" : "without a fault plan");
    if (faulty) {
      const PipelineResult clean =
          SynthesisPipeline(options).run(pcr_mixing_assay());
      const Rect fp = clean.placement.placement.module(0).footprint();
      const ScheduledModule& sm = clean.schedule.module(0);
      options.fault_plan.faults.push_back(
          PlannedFault{Point{fp.x + fp.width / 2, fp.y + fp.height / 2},
                       0.5 * (sm.start_s + sm.end_s), -1});
    }
    CompileResponse response;
    response.id = "golden";
    response.ok = true;
    response.source = CompileSource::kMiss;
    response.result = std::make_shared<const PipelineResult>(
        SynthesisPipeline(options).run(pcr_mixing_assay()));
    response.wall_seconds = 0.5;
    EXPECT_EQ(CompileServer::render_response(response), golden[2 * faulty]);
    const BatchItem item{"item", pcr_mixing_assay(), options};
    EXPECT_EQ(render_result_line(item, 3, *response.result),
              golden[2 * faulty + 1]);
  }
}

TEST(ServerTest, LoadedResultRendersLikeTheLiveOne) {
  // A cache file keeps no schedule, so a summary read off the schedule
  // reported makespan_s 0 for every result served from a loaded cache.
  const std::string path = testing::TempDir() + "dmfb_cache_render.txt";
  const AssayCase assay = pcr_mixing_assay();
  const PipelineOptions options = summary_options();
  CompileResponse live;
  live.id = "loaded";
  live.ok = true;
  live.result = std::make_shared<const PipelineResult>(
      SynthesisPipeline(options).run(assay));
  const std::uint64_t signature = schedule_signature(live.result->schedule);
  CompileCache cache;
  cache.store(assay_fingerprint(assay), options_fingerprint(options),
              signature, live.result, /*links=*/{});
  ASSERT_TRUE(cache.save(path));
  CompileCache loaded;
  ASSERT_EQ(loaded.load(path), 1u);
  std::remove(path.c_str());

  CompileResponse served = live;
  served.result = loaded
                      .lookup(assay_fingerprint(assay),
                              options_fingerprint(options), signature)
                      .exact;
  ASSERT_NE(served.result, nullptr);
  EXPECT_TRUE(served.result->schedule.modules().empty());
  const std::string live_line = CompileServer::render_response(live);
  const std::string served_line = CompileServer::render_response(served);
  EXPECT_GT(json::Value::parse(live_line)
                .find("result")
                ->find("makespan_s")
                ->as_number(),
            0.0);
  EXPECT_EQ(served_line, live_line);
}

// --- cache persistence ------------------------------------------------

TEST(CompileCachePersistTest, SaveLoadRoundTripsTheResponseSurface) {
  const std::string path =
      testing::TempDir() + "dmfb_cache_roundtrip.txt";
  const AssayCase assay = pcr_mixing_assay();
  PipelineOptions options = fast_options();
  options.seed = 7;
  const std::uint64_t assay_fp = assay_fingerprint(assay);
  const std::uint64_t options_fp = options_fingerprint(options);

  auto result = std::make_shared<PipelineResult>(
      SynthesisPipeline(options).run(assay));
  const std::uint64_t signature = schedule_signature(result->schedule);

  CompileCache cache;
  cache.store(assay_fp, options_fp, signature, result, /*links=*/{});
  ASSERT_TRUE(cache.save(path));

  CompileCache loaded;
  EXPECT_EQ(loaded.load(path), 1u);
  EXPECT_EQ(loaded.stats().entries, 1);
  const auto hit = loaded.lookup(assay_fp, options_fp, signature).exact;
  ASSERT_NE(hit, nullptr);

  // Every persisted field round-trips exactly (doubles by bit pattern).
  EXPECT_EQ(hit->assay_name, result->assay_name);
  EXPECT_EQ(hit->seed, result->seed);
  EXPECT_EQ(hit->ok, result->ok);
  EXPECT_EQ(hit->peak_concurrent_cells, result->peak_concurrent_cells);
  EXPECT_EQ(hit->placement.cost.area_cells,
            result->placement.cost.area_cells);
  EXPECT_EQ(hit->placement.cost.value, result->placement.cost.value);
  EXPECT_EQ(hit->fti.covered_cells, result->fti.covered_cells);
  EXPECT_EQ(hit->fti.total_cells, result->fti.total_cells);
  EXPECT_EQ(hit->fti.fti(), result->fti.fti());
  EXPECT_EQ(hit->transport_makespan_s, result->transport_makespan_s);
  EXPECT_EQ(hit->routes.success, result->routes.success);
  EXPECT_EQ(hit->routes.total_steps, result->routes.total_steps);
  EXPECT_EQ(hit->selected_round, result->selected_round);
  EXPECT_EQ(hit->feedback_history.size(), result->feedback_history.size());
  EXPECT_EQ(placement_to_string(hit->placement.placement),
            placement_to_string(result->placement.placement));
  EXPECT_EQ(hit->placement.placement.canvas_width(),
            result->placement.placement.canvas_width());

  // Loaded placements register as the layout's warm placement, so
  // cross-process warm starts work from disk: a different assay with
  // the same structure warm-hits.
  AssayCase variant = renamed_pcr();
  const auto warm =
      loaded.lookup(assay_fingerprint(variant), options_fp, signature);
  EXPECT_EQ(warm.exact, nullptr);
  ASSERT_NE(warm.warm_placement, nullptr);
  EXPECT_EQ(placement_to_string(*warm.warm_placement),
            placement_to_string(result->placement.placement));

  std::remove(path.c_str());
}

TEST(CompileCachePersistTest, CorruptOrMissingFilesLoadAsCold) {
  const std::string dir = testing::TempDir();

  CompileCache cache;
  EXPECT_EQ(cache.load(dir + "dmfb_cache_does_not_exist.txt"), 0u);

  // Garbage header: cold, not fatal.
  const std::string garbage = dir + "dmfb_cache_garbage.txt";
  {
    std::ofstream out(garbage, std::ios::trunc);
    out << "not a cache at all\nentry 1 2 3\n";
  }
  EXPECT_EQ(cache.load(garbage), 0u);

  // A valid entry followed by trailing garbage: the good prefix loads.
  const AssayCase assay = pcr_mixing_assay();
  PipelineOptions options = fast_options();
  options.seed = 11;
  auto result = std::make_shared<PipelineResult>(
      SynthesisPipeline(options).run(assay));
  CompileCache source;
  source.store(assay_fingerprint(assay), options_fingerprint(options),
               schedule_signature(result->schedule), result, {});
  const std::string torn = dir + "dmfb_cache_torn.txt";
  ASSERT_TRUE(source.save(torn));
  {
    std::ofstream out(torn, std::ios::app);
    out << "entry 9 9\nhalf a line without";
  }
  CompileCache tolerant;
  EXPECT_EQ(tolerant.load(torn), 1u);

  // The same file truncated mid-entry: whatever whole entries precede
  // the cut survive, the torn tail is dropped, nothing throws.
  std::ifstream in(torn, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string truncated = dir + "dmfb_cache_truncated.txt";
  {
    std::ofstream out(truncated, std::ios::trunc | std::ios::binary);
    out << bytes.substr(0, bytes.size() / 2);
  }
  CompileCache half;
  EXPECT_LE(half.load(truncated), 1u);

  std::remove(garbage.c_str());
  std::remove(torn.c_str());
  std::remove(truncated.c_str());
}

// --- the option table ------------------------------------------------

namespace ot = option_table;

/// Counts an aggregate's members: the largest N for which T{x1..xN}
/// compiles, where each x converts to any member type.
struct AnyMember {
  template <class T>
  operator T() const;
};
template <class T, std::size_t... I>
constexpr bool brace_initializable(std::index_sequence<I...>) {
  return requires { T{(void(I), AnyMember{})...}; };
}
template <class T, std::size_t N = 0>
constexpr std::size_t member_count() {
  if constexpr (brace_initializable<T>(std::make_index_sequence<N + 1>{})) {
    return member_count<T, N + 1>();
  } else {
    return N;
  }
}

/// One field of PipelineOptions as the table reaches it: the table's
/// path to its record, then the record's own field.
template <class Outer, class Inner>
struct Chain {
  template <class O>
  static auto& of(O& options) {
    return Inner::of(Outer::of(options));
  }
};
struct Whole {
  template <class O>
  static O& of(O& options) {
    return options;
  }
};

struct Leaf {
  ot::Role role;
  bool on_wire;
  std::string name;  ///< wire key, or the mangled path off the wire
};

template <ot::Role Scope, bool Wire, class Path, class T, class Visit>
void for_each_leaf(Visit& visit);

/// One field G of record T, reached from PipelineOptions through Path.
template <ot::Role Role, bool Wire, class Path, class T, class G, class Visit>
void visit_leaf(Visit& visit, const char* key) {
  using Type = std::remove_cvref_t<decltype(G::of(std::declval<T&>()))>;
  if constexpr (ot::Record<Type>) {
    for_each_leaf<Role, Wire, Chain<Path, G>, Type>(visit);
  } else {
    visit(Leaf{Role, Wire, Wire ? key : typeid(G).name()}, Chain<Path, G>{});
  }
}

/// Calls visit(leaf, path) for every field the table reaches, walking
/// records through their own tables (their leaves take the record's
/// role and wire presence along).
template <ot::Role Scope, bool Wire, class Path, class T, class Visit>
void for_each_leaf(Visit& visit) {
  ot::for_each_option(
      std::type_identity<T>{}, [&]<class E, class... F>(const E& entry, F...) {
        constexpr ot::Role role = std::max(Scope, E::role);
        constexpr bool wire = Wire && E::on_wire;
        (visit_leaf<role, wire, Path, T, F>(visit, entry.key), ...);
      });
}

template <class Visit>
void for_each_leaf(Visit visit) {
  for_each_leaf<ot::Role::kIdentity, true, Whole, PipelineOptions>(visit);
}

/// Changes `field` to another valid value of its type.
template <class T>
void change(T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    field = !field;
  } else if constexpr (std::is_enum_v<T>) {
    // Cycles within the first three values: every BindingPolicy, the
    // only enum on the wire, stays valid.
    field = static_cast<T>((static_cast<int>(field) + 1) % 3);
  } else if constexpr (std::is_integral_v<T>) {
    field = field > 0 ? field - 1 : field + 1;  // INT_MAX defaults occur
  } else if constexpr (std::is_floating_point_v<T>) {
    field = field * 0.5 + 0.25;  // keeps (0,1) values inside (0,1)
  } else if constexpr (std::is_same_v<T, std::string>) {
    field += "-changed";
  } else if constexpr (std::is_same_v<T, std::vector<Point>>) {
    field.push_back(Point{1, 2});
  } else if constexpr (std::is_same_v<T, std::map<ModuleKind, int>>) {
    field.emplace(ModuleKind::kMixer, 1);
  } else if constexpr (std::is_same_v<T, FaultInjectionPlan>) {
    field.faults.push_back(PlannedFault{Point{1, 2}, 3.5, -1});
  } else if constexpr (std::is_same_v<T, std::vector<RouteLink>>) {
    field.push_back(RouteLink{0, 1, 3});
  } else if constexpr (std::is_same_v<T, std::shared_ptr<const Placement>>) {
    field = std::make_shared<const Placement>();
  } else if constexpr (std::is_same_v<T, StageObserver>) {
    field = [](PipelineStage, double, const std::string&) {};
  } else if constexpr (std::is_same_v<T, PlacerContext>) {
    field.weights.beta += 1.0;
  } else if constexpr (std::is_same_v<T, SimOptions>) {
    field.verify_routing = !field.verify_routing;
  } else {
    static_assert(!sizeof(T), "teach change() this field type");
  }
}

TEST(OptionTableTest, EveryFieldOfEveryOptionStructHasExactlyOneEntry) {
  // Each member pointer on a table path names one member of its struct;
  // the distinct members per struct must be all of them. A field added
  // to PipelineOptions or to any struct the table walks into, and left
  // out of the table, fails here instead of silently missing the key.
  std::map<std::type_index, std::set<std::size_t>> members;
  const auto note = [&]<class C, class U>(U C::*member) {
    static const C probe{};
    members[typeid(C)].insert(static_cast<std::size_t>(
        reinterpret_cast<const char*>(&(probe.*member)) -
        reinterpret_cast<const char*>(&probe)));
  };
  std::vector<std::pair<const char*, std::size_t>> extents;
  static PipelineOptions options;
  for_each_leaf([&]<class G>(const Leaf&, G) {
    const auto& field = G::of(options);
    extents.emplace_back(reinterpret_cast<const char*>(&field),
                         sizeof(field));
  });
  const auto hops = [&]<auto... M>(ot::Field<M...>) { (note(M), ...); };
  ot::for_each_option(std::type_identity<PipelineOptions>{},
                      [&]<class E, class... F>(const E&, F...) {
                        (hops(F{}), ...);
                      });
  ot::for_each_option(std::type_identity<AnnealingSchedule>{},
                      [&]<class E, class... F>(const E&, F...) {
                        (hops(F{}), ...);
                      });

  const std::map<std::type_index, std::pair<const char*, std::size_t>>
      expected = {
          {typeid(PipelineOptions),
           {"PipelineOptions", member_count<PipelineOptions>()}},
          {typeid(SchedulerOptions),
           {"SchedulerOptions", member_count<SchedulerOptions>()}},
          {typeid(ResourceConstraints),
           {"ResourceConstraints", member_count<ResourceConstraints>()}},
          {typeid(ModuleSpec), {"ModuleSpec", member_count<ModuleSpec>()}},
          {typeid(PlacerContext),
           {"PlacerContext", member_count<PlacerContext>()}},
          {typeid(AnnealingSchedule),
           {"AnnealingSchedule", member_count<AnnealingSchedule>()}},
          {typeid(MoveOptions), {"MoveOptions", member_count<MoveOptions>()}},
          {typeid(CostWeights), {"CostWeights", member_count<CostWeights>()}},
          {typeid(FtiOptions), {"FtiOptions", member_count<FtiOptions>()}},
          {typeid(OptimalPlacerOptions),
           {"OptimalPlacerOptions", member_count<OptimalPlacerOptions>()}},
          {typeid(RoutePlannerOptions),
           {"RoutePlannerOptions", member_count<RoutePlannerOptions>()}},
          {typeid(SimOptions), {"SimOptions", member_count<SimOptions>()}},
          {typeid(RecoveryOptions),
           {"RecoveryOptions", member_count<RecoveryOptions>()}},
      };
  EXPECT_EQ(members.size(), expected.size())
      << "the table walks into a struct this test does not list";
  for (const auto& [type, want] : expected) {
    EXPECT_EQ(members[type].size(), want.second) << want.first;
  }
  // The fault_plan codecs name every member of these two.
  EXPECT_EQ(member_count<FaultInjectionPlan>(), 1u);
  EXPECT_EQ(member_count<PlannedFault>(), 3u);

  // No field is reached twice, whole or in part.
  std::sort(extents.begin(), extents.end());
  for (std::size_t i = 1; i < extents.size(); ++i) {
    EXPECT_LE(extents[i - 1].first + extents[i - 1].second, extents[i].first)
        << "table entries " << i - 1 << " and " << i << " overlap";
  }
}

TEST(OptionTableTest, EveryWireEntryRoundTripsThroughEmitAndParse) {
  const std::string defaults = pipeline_options_to_json({}).dump();
  int wire_fields = 0;
  for_each_leaf([&]<class G>(const Leaf& leaf, G) {
    if (!leaf.on_wire) return;
    ++wire_fields;
    PipelineOptions changed;
    change(G::of(changed));
    const std::string line = pipeline_options_to_json(changed).dump();
    EXPECT_NE(line, defaults) << leaf.name << " is not emitted";
    PipelineOptions parsed;
    parse_pipeline_options(json::Value::parse(line), parsed);
    EXPECT_EQ(pipeline_options_to_json(parsed).dump(), line) << leaf.name;
    EXPECT_EQ(options_fingerprint(parsed), options_fingerprint(changed))
        << leaf.name;
  });
  // canvas and chip carry two fields each, annealing four.
  EXPECT_EQ(wire_fields, 23);
}

TEST(OptionTableTest, RolesSayWhetherAFieldForksTheCacheKey) {
  PipelineOptions faulty;
  faulty.fault_plan.faults.push_back(PlannedFault{Point{3, 4}, 12.0, -1});
  for (const PipelineOptions& base : {PipelineOptions{}, faulty}) {
    const bool faults = !base.fault_plan.empty();
    const std::uint64_t fp = options_fingerprint(base);
    for_each_leaf([&]<class G>(const Leaf& leaf, G) {
      PipelineOptions changed = base;
      change(G::of(changed));
      const bool forks =
          leaf.role == ot::Role::kIdentity ||
          (leaf.role == ot::Role::kFaultIdentity && faults);
      EXPECT_EQ(options_fingerprint(changed) != fp, forks)
          << leaf.name << " (role " << static_cast<int>(leaf.role)
          << (faults ? ", with a fault plan)" : ", no fault plan)");
    });
  }
}

}  // namespace
}  // namespace dmfb
