// service_mix — dmfb_serve traffic replayed in-process through
// CompileServer::serve: 2 clients in a closed loop, 2 workers.
//
// Why this workload: the service path (request parsing, fingerprinting,
// the compile cache and response rendering) runs nowhere else.
//   - p50: 70% of requests are exact repeats, so item_ms_p50 reads an
//     exact hit. An exact hit costs about 0.2 ms, of which parse_request
//     is ~53%, compile (fingerprint plus cache lookup) ~27% and
//     render_response ~19%: item_ms_p50 is the home of `io` and `service`.
//   - p90: 15% are cold misses, the slowest class, so item_ms_p90 reads a
//     cold miss. That is the anneal loop without FTI pricing (beta = 0, a
//     short schedule): the layer ft_compile uses, used differently, so a
//     change to the FTI kernel that slows beta = 0 shows here.
//   - The other 15% are near-misses (label-perturbed assays on a cached
//     layout) that warm-start from the cached placement.
//
// Determinism under 2 workers: each request's cache outcome must not
// depend on how the workers interleave. So
//   - exact repeats target only the keys prefilled before the clock runs;
//   - each near-miss uses a layout (options fingerprint) that no other
//     request of its pass touches, prefilled with the unperturbed assay;
//     passes are separated by a barrier, so pass p's near-miss on a layout
//     always warm-starts from pass p-1's result there;
//   - each cold miss uses a fresh seed, hence a layout of its own.
// A session is 20 passes of 100 requests on a freshly prefilled server;
// every session replays the same requests, and every session must
// reproduce the first one's outcomes exactly.
//
// Known defect: seeds cross the wire as JSON doubles, so a seed above
// 2^53 compiles and echoes rounded (ROADMAP item 3). Two cold misses per
// pass carry such seeds; their echo check fails and they count as failed
// items, marked as the known defect rather than hidden.
#include <barrier>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "assay/random_assay.h"
#include "assay/scheduler.h"
#include "compile.h"
#include "io/assay_format.h"
#include "io/json.h"
#include "service/server.h"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kPassesPerSession = 20;
constexpr int kHitKeys = 8;        // prefilled exact-hit keys
constexpr int kHitsPerPass = 70;
constexpr int kWarmPerPass = 15;   // = warm layouts
constexpr int kColdPerPass = 15;
constexpr int kBigSeedColdPerPass = 2;
constexpr int kPass = kHitsPerPass + kWarmPerPass + kColdPerPass;
constexpr int kCanvas = 16;
constexpr int kProbesPerSession = 30;

enum class Kind { kHit, kWarm, kCold };

const char* expected_source(Kind kind) {
  switch (kind) {
    case Kind::kHit:
      return "exact-hit";
    case Kind::kWarm:
      return "warm-start";
    case Kind::kCold:
      return "miss";
  }
  return "?";
}

/// One wire request and what its response must show.
struct Request {
  Kind kind = Kind::kCold;
  int key = 0;            ///< hit key or warm layout (index into prefill)
  std::string line;       ///< the request line, without its id
  std::string seed_text;  ///< the seed exactly as sent
  bool big_seed = false;  ///< seed above 2^53 (the known defect)
  dmfb::AssayCase assay;  ///< for the placement check (warm and cold)
  dmfb::Point defect{};
};

/// A near-miss of `base`: same graph and binding, mix labels and name
/// tagged with `variant`. The canonical form sees labels, so it is a new
/// cache key; the schedule signature is unchanged, so it warm-starts.
dmfb::AssayCase perturbed(const dmfb::AssayCase& base, int variant) {
  const std::string tag = "-v" + std::to_string(variant);
  dmfb::SequencingGraph graph(base.graph.name());
  for (const auto& op : base.graph.operations()) {
    const bool rename = op.type == dmfb::OperationType::kMix;
    graph.add_operation(op.type, rename ? op.label + tag : op.label,
                        op.reagent);
  }
  for (const auto& op : base.graph.operations()) {
    for (const dmfb::OperationId succ : base.graph.successors(op.id)) {
      graph.add_dependency(op.id, succ);
    }
  }
  dmfb::AssayCase assay = base;
  assay.name = base.name + tag;
  assay.graph = std::move(graph);
  return assay;
}

/// The request line minus its id, which the client prepends per send.
/// The seed is written out digit for digit: rendering it through a JSON
/// double would round it on the client side already.
std::string request_body(const dmfb::AssayCase& assay,
                         const std::string& seed_text, dmfb::Point defect) {
  return ",\"assay\":" + dmfb::json::Value(dmfb::assay_to_string(assay)).dump() +
         ",\"options\":{\"seed\":" + seed_text +
         ",\"placer\":\"sa\",\"beta\":0,\"canvas\":[" +
         std::to_string(kCanvas) + "," + std::to_string(kCanvas) +
         "],\"defects\":[[" + std::to_string(defect.x) + "," +
         std::to_string(defect.y) +
         "]],\"annealing\":{\"T0\":1000,\"alpha\":0.8,"
         "\"iterations_per_module\":40}}}";
}

std::string with_id(std::size_t id, const std::string& body) {
  return "{\"id\":\"" + std::to_string(id) + "\"" + body;
}

/// The response from its "result" member on: what an exact hit must
/// repeat byte for byte (id, source and wall_s legitimately differ).
std::string result_payload(const std::string& response) {
  const std::size_t at = response.find(",\"result\":");
  return at == std::string::npos ? std::string() : response.substr(at);
}

/// The id a response line starts with ({"id":"<n>",...}).
std::size_t response_id(const std::string& line) {
  return static_cast<std::size_t>(std::stoull(line.substr(7)));
}

/// Text of the number following `"key":` in `text`.
std::string number_text(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\"" + key + "\":");
  if (at == std::string::npos) return {};
  const std::size_t from = at + key.size() + 3;
  const std::size_t to = text.find_first_of(",}", from);
  return text.substr(from, to - from);
}

/// Unbounded blocking queue of lines (the clients' side of the wire). The
/// harness keeps its own instead of the library's detail::BoundedQueue,
/// so a change to the program cannot change the load generator.
class LineQueue {
 public:
  void push(std::string line) {
    {
      std::lock_guard lock(mutex_);
      lines_.push_back(std::move(line));
    }
    ready_.notify_one();
  }
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }
  bool pop(std::string& line) {
    std::unique_lock lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || !lines_.empty(); });
    if (lines_.empty()) return false;
    line = std::move(lines_.front());
    lines_.pop_front();
    return true;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::string> lines_;
  bool closed_ = false;
};

class ServiceMix final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    const dmfb::ModuleLibrary library = dmfb::ModuleLibrary::standard();
    SeedStream rng(seed ^ 0x5E2F1CE000000004ULL);
    // Option seeds below 1e15 render exactly; big ones sit above 2^53.
    const auto small_seed = [&] { return rng.next() % 1000000000000000ULL; };
    std::uint64_t big_seed = (1ULL << 53) + 1;
    const auto small_assay = [&] {
      dmfb::RandomAssayParams params;
      params.mix_operations = rng.range(5, 9);
      return dmfb::random_assay(params, library, rng.next());
    };
    const auto make = [&](Kind kind, int key, dmfb::AssayCase assay,
                          std::string seed_text) {
      Request r;
      r.kind = kind;
      r.key = key;
      r.defect = dmfb::Point{rng.range(0, kCanvas - 1), rng.range(0, kCanvas - 1)};
      r.seed_text = std::move(seed_text);
      r.line = request_body(assay, r.seed_text, r.defect);
      r.assay = std::move(assay);
      return r;
    };

    // Prefill: the exact-hit keys, then one layout per near-miss slot.
    prefill_.clear();
    for (int k = 0; k < kHitKeys; ++k) {
      dmfb::AssayCase assay =
          k == 0 ? dmfb::pcr_mixing_assay() : small_assay();
      prefill_.push_back(make(Kind::kHit, k, std::move(assay),
                              std::to_string(small_seed())));
    }
    for (int w = 0; w < kWarmPerPass; ++w) {
      prefill_.push_back(make(Kind::kWarm, kHitKeys + w, small_assay(),
                              std::to_string(small_seed())));
    }

    session_.clear();
    for (int pass = 0; pass < kPassesPerSession; ++pass) {
      std::vector<Request> requests;
      for (int h = 0; h < kHitsPerPass; ++h) {
        Request r = prefill_[static_cast<std::size_t>(h % kHitKeys)];
        r.assay = {};  // hits are checked against their prefill payload
        requests.push_back(std::move(r));
      }
      for (int w = 0; w < kWarmPerPass; ++w) {
        const Request& layout = prefill_[static_cast<std::size_t>(kHitKeys + w)];
        Request r = layout;
        r.assay = perturbed(layout.assay, pass);
        r.line = request_body(r.assay, r.seed_text, r.defect);
        requests.push_back(std::move(r));
      }
      for (int c = 0; c < kColdPerPass; ++c) {
        const bool big = c < kBigSeedColdPerPass;
        std::string seed_text = std::to_string(big ? big_seed : small_seed());
        if (big) big_seed += 4;  // stays distinct after rounding to a double
        Request r = make(Kind::kCold, -1, small_assay(), std::move(seed_text));
        r.big_seed = big;
        requests.push_back(std::move(r));
      }
      rng.shuffle(requests);
      for (Request& r : requests) session_.push_back(std::move(r));
    }

    ready_ = prefilled_server();
  }

  Phase measure(double seconds, bool traced) override {
    Phase phase(session_.size());
    const auto start = Clock::now();
    for (std::size_t s = 0;
         s < kMinPasses || seconds_between(start, Clock::now()) < seconds;
         ++s) {
      std::unique_ptr<dmfb::CompileServer> server =
          ready_ ? std::move(ready_) : prefilled_server();
      const dmfb::CacheStats before = server->service().cache_stats();
      std::vector<Item> items(session_.size());
      for (std::size_t slot = 0; slot < items.size(); ++slot) {
        items[slot].slot = slot;
      }
      const double wall = traced ? traced_session(*server, items, phase)
                                 : served_session(*server, items, phase);
      phase.timed_wall_s += wall;
      phase.pass_walls.push_back(wall);
      // The probe runs between sessions, with the workers idle; a
      // session lasts about as long as kProbeInterval times this many.
      for (int i = 0; i < kProbesPerSession; ++i) phase.probe.sample();
      const dmfb::CacheStats after = server->service().cache_stats();
      items[0].counts["service.exact_hits"] =
          static_cast<double>(after.exact_hits - before.exact_hits);
      items[0].counts["service.warm_hits"] =
          static_cast<double>(after.warm_hits - before.warm_hits);
      items[0].counts["service.misses"] =
          static_cast<double>(after.misses - before.misses);
      for (Item& item : items) phase.record(std::move(item));
    }
    return phase;
  }

 private:
  std::unique_ptr<dmfb::CompileServer> prefilled_server() {
    dmfb::ServerOptions options;
    options.workers = kWorkers;
    auto server = std::make_unique<dmfb::CompileServer>(options);
    payloads_.assign(prefill_.size(), {});
    for (std::size_t i = 0; i < prefill_.size(); ++i) {
      const std::string response = dmfb::CompileServer::render_response(
          server->service().compile(
              server->parse_request(with_id(i, prefill_[i].line))));
      payloads_[i] = result_payload(response);
    }
    return server;
  }

  /// One session through CompileServer::serve; returns its wall time.
  /// Responses are checked after the clock stops.
  double served_session(dmfb::CompileServer& server, std::vector<Item>& items,
                        Phase& phase) {
    LineQueue wire;
    std::vector<LineQueue> inbox(kClients);
    std::vector<int> owner(session_.size(), -1);
    std::mutex owner_mutex;
    std::vector<std::string> responses(session_.size());

    const auto start = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for_each_request(c, [&](std::size_t slot) {
          {
            std::lock_guard lock(owner_mutex);
            owner[slot] = c;
          }
          const std::string line = with_id(slot, session_[slot].line);
          const auto sent = Clock::now();
          wire.push(line);
          inbox[static_cast<std::size_t>(c)].pop(responses[slot]);
          items[slot].wall_s = seconds_between(sent, Clock::now());
        });
      });
    }
    std::thread closer([&] {
      for (auto& client : clients) client.join();
      wire.close();
    });
    server.serve([&](std::string& line) { return wire.pop(line); },
                 [&](const std::string& response) {
                   const std::size_t slot = response_id(response);
                   int c = 0;
                   {
                     std::lock_guard lock(owner_mutex);
                     c = owner[slot];
                   }
                   inbox[static_cast<std::size_t>(c)].push(response);
                 });
    closer.join();
    const double wall = seconds_between(start, Clock::now());

    for (std::size_t slot = 0; slot < session_.size(); ++slot) {
      check(slot, responses[slot], items[slot]);
      // Client latency beyond the service's own time: the wire, the
      // request queue, parse and render.
      const std::string service_s = number_text(responses[slot], "wall_s");
      if (!service_s.empty()) {
        phase.extra_seconds["service.queue_wait"] +=
            items[slot].wall_s - std::stod(service_s);
      }
    }
    return wall;
  }

  /// One session with the clients calling the server's layers directly,
  /// each call a span; returns its wall time.
  double traced_session(dmfb::CompileServer& server, std::vector<Item>& items,
                        Phase& phase) {
    const auto epoch = Clock::now();
    std::vector<Tracer> tracers(kClients, Tracer(epoch));
    std::vector<std::string> responses(session_.size());
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Tracer& tracer = tracers[static_cast<std::size_t>(c)];
        for_each_request(c, [&](std::size_t slot) {
          const std::string line = with_id(slot, session_[slot].line);
          const auto start = Clock::now();
          const int item = tracer.open("item", -1, static_cast<long>(slot));

          const int parse = tracer.open("io.parse", item, item);
          dmfb::CompileRequest request = server.parse_request(line);
          tracer.close(parse);

          const int compile = tracer.open("service.compile", item, item);
          request.options.observer = tracer.stage_observer(compile, item);
          const dmfb::CompileResponse response =
              server.service().compile(request);
          tracer.close(compile);

          const int render = tracer.open("service.render", item, item);
          responses[slot] = dmfb::CompileServer::render_response(response);
          tracer.close(render);

          tracer.close(item);
          items[slot].wall_s = seconds_between(start, Clock::now());
        });
      });
    }
    for (auto& client : clients) client.join();
    const double wall = seconds_between(epoch, Clock::now());
    double hit_share = 0.0;
    for (const Tracer& tracer : tracers) {
      fold_spans(tracer, phase);
      hit_share += child_share(tracer, [this](long slot) {
                     return session_[static_cast<std::size_t>(slot)].kind ==
                            Kind::kHit;
                   }) /
                   kClients;
    }
    if (phase.notes.empty()) {
      phase.notes.push_back(
          "exact hits: io + service spans cover " +
          std::to_string(100.0 * hit_share) + "% of the item span");
    }
    for (std::size_t slot = 0; slot < session_.size(); ++slot) {
      check(slot, responses[slot], items[slot]);
    }
    return wall;
  }

  /// Runs `send(slot)` for this client's share of every pass: the clients
  /// take the pass's requests in order from a shared cursor, and a barrier
  /// ends each pass.
  template <class Send>
  void for_each_request(int client, Send send) {
    for (int pass = 0; pass < kPassesPerSession; ++pass) {
      for (;;) {
        const std::size_t next = cursor_.fetch_add(1);
        if (next >= kPass) break;
        send(static_cast<std::size_t>(pass) * kPass + next);
      }
      pass_barrier_.arrive_and_wait();
      if (client == 0) cursor_ = 0;
      pass_barrier_.arrive_and_wait();
    }
  }

  void check(std::size_t slot, const std::string& response, Item& item) {
    const Request& request = session_[slot];
    item.counts["io.request_bytes"] =
        static_cast<double>(with_id(slot, request.line).size());
    Digest digest;
    const std::string payload = result_payload(response);
    const std::string source_text = "\"source\":\"" +
                                    std::string(expected_source(request.kind)) +
                                    "\"";
    if (response.find("\"ok\":true") == std::string::npos) {
      item.problem = "request failed: " + response;
    } else if (response.find(source_text) == std::string::npos) {
      item.problem = std::string("expected a ") +
                     expected_source(request.kind) + " response";
    } else if (request.kind == Kind::kHit &&
               payload != payloads_[static_cast<std::size_t>(request.key)]) {
      item.problem = "exact hit differs from its prefill response";
    } else if (number_text(payload, "seed") != request.seed_text) {
      item.problem = "echoed seed " + number_text(payload, "seed") +
                     " differs from the sent " + request.seed_text;
      item.known_defect = request.big_seed;
    } else if (request.kind != Kind::kHit) {
      item.problem = check_wire_placement(request, payload);
    }
    item.ok = item.problem.empty();

    Quality& q = item.quality;
    // Quality is averaged over the cold misses: 300 distinct assays a
    // session. Exact hits repeat the prefill's results, and the warm
    // starts refine only 15 prefilled assays, too few to average.
    q.scored = request.kind == Kind::kCold;
    if (!payload.empty()) {
      const dmfb::json::Value result =
          dmfb::json::Value::parse(payload.substr(10, payload.size() - 11));
      q.area_cells = result.find("area_cells")->as_number();
      q.fti = result.find("fti")->as_number();
      q.transport_makespan_s = result.find("transport_makespan_s")->as_number();
      q.routed = result.find("routed")->as_bool();
      q.time_lost_s =
          q.transport_makespan_s - result.find("makespan_s")->as_number();
    }
    q.completed = response.find("\"ok\":true") != std::string::npos;
    digest.mix(payload).mix(static_cast<long long>(request.kind));
    if (response.find(source_text) != std::string::npos) digest.mix(1LL);
    item.digest = digest.value();
  }

  /// The placement a warm or cold response carries, applied to the
  /// request's own schedule: inside the canvas, overlap-free, off the
  /// request's defect.
  static std::string check_wire_placement(const Request& request,
                                          const std::string& payload) {
    const dmfb::json::Value result =
        dmfb::json::Value::parse(payload.substr(10, payload.size() - 11));
    const dmfb::json::Value* text = result.find("placement");
    if (!text) return "response carries no placement";
    const dmfb::Schedule schedule = dmfb::list_schedule(
        request.assay.graph, request.assay.binding,
        request.assay.scheduler_options);
    dmfb::Placement placement(schedule, kCanvas, kCanvas);
    dmfb::apply_placement_from_string(text->as_string(), placement);
    return check_placement(placement, {request.defect});
  }

  std::vector<Request> prefill_;
  std::vector<Request> session_;
  std::vector<std::string> payloads_;  ///< prefill result payloads
  std::unique_ptr<dmfb::CompileServer> ready_;
  std::atomic<std::size_t> cursor_{0};
  std::barrier<> pass_barrier_{kClients};
};

}  // namespace

std::unique_ptr<Workload> make_service_mix() {
  return std::make_unique<ServiceMix>();
}

}  // namespace perfbench
