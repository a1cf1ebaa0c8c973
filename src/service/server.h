// server.h — the synthesis service's wire layer: a JSON-line protocol
// over any line transport (stdin/stdout or a Unix socket; both live in
// tools/dmfb_serve.cpp), a bounded request queue, and a worker pool of
// CompileService calls.
//
// Protocol — one JSON object per line, one response line per request:
//
//   -> {"id":"r1","assay":"assay pcr\nop 0 mix M1\n...\nend",
//       "options":{"seed":7,"placer":"sa","router":"negotiated",
//                  "canvas":[24,24],"chip":[16,16],
//                  "defects":[[3,4]],"gamma":0.02,
//                  "feedback_rounds":2,"deadline_s":120.0},
//       "cache":true}
//   <- {"id":"r1","ok":true,"source":"miss","wall_s":0.41,
//       "result":{"assay":"pcr","seed":7,"area_cells":63,
//                 "cost":84.0,"fti":0.55,"routed":true,
//                 "makespan_s":24.0,"transport_makespan_s":25.3,
//                 "selected_round":1,"rounds":2,
//                 "placement":"placement 24 24\nplace 0 ...\nend\n"}}
//
// The `assay` field is the io/assay_format text (embedded verbatim, \n
// escaped per JSON), so the wire format reuses the repo's one assay
// parser. Malformed requests produce {"id":...,"ok":false,"error":...}
// lines (id "" when even the id could not be parsed). Two control lines
// bypass the queue: {"cmd":"stats"} answers with cache counters,
// {"cmd":"shutdown"} drains the queue and ends serve().
//
// Responses are written as workers finish, so they may interleave out of
// request order — clients correlate by id. Writes are serialized
// internally; `read_line`/`write_line` need not be thread-safe.
#pragma once

#include <functional>
#include <string>

#include "biochip/module_library.h"
#include "io/json.h"
#include "service/service.h"

namespace dmfb {

/// Applies a wire "options" JSON object onto `options`. The keys, their
/// fields and their valid ranges are the wire entries of
/// service/option_table.h; a "fault_plan" ([[t,x,y],...] mid-run
/// injections) makes the response carry a "recovery" telemetry block.
/// Unknown keys and out-of-range values throw std::invalid_argument — a
/// misspelled option that changed nothing would be the worst kind of
/// service bug to chase from the client side — and so do options whose
/// anneal work, (feedback_rounds + 1) x temperature steps x
/// iterations_per_module, exceeds 4e6. Shared by the compile server and
/// the batch driver's worker handshake (service/batch.h), so both speak
/// the same option dialect.
void parse_pipeline_options(const json::Value& value,
                            PipelineOptions& options);

/// Dual of parse_pipeline_options: emits every wire key of
/// service/option_table.h, in table order, so
/// `parse_pipeline_options(pipeline_options_to_json(o), fresh)`
/// reproduces every wire-reachable field of `o` exactly (pinned by
/// tests/test_service.cpp). Fields the table keeps off the wire are
/// neither emitted nor parsed; drivers that need them must set them on
/// both sides.
json::Value pipeline_options_to_json(const PipelineOptions& options);

/// Adds the result summary that both result lines carry (the server's
/// "result" object and a batch result line, service/batch.h) to `out`,
/// in wire order: area_cells, cost, fti, makespan_s,
/// transport_makespan_s, routed, rounds, selected_round, then placement
/// when it has modules. Reads only fields a cache file keeps, so a
/// result loaded by CompileCache::load renders like the live one.
void append_result_summary(const PipelineResult& result, json::Value& out);

struct ServerOptions {
  /// Compile workers (0 = hardware concurrency).
  int workers = 0;
  /// Bounded request queue: when full, the reader blocks instead of
  /// buffering unboundedly (backpressure through the transport).
  std::size_t queue_capacity = 64;
  ServiceOptions service;
};

class CompileServer {
 public:
  explicit CompileServer(ServerOptions options = {});

  /// Serves requests until `read_line` reports end of input (returns
  /// false) or a shutdown command arrives; pending requests drain before
  /// returning. `read_line` is called from the invoking thread only;
  /// `write_line` receives one complete response line (no trailing
  /// newline) and is serialized internally.
  void serve(const std::function<bool(std::string&)>& read_line,
             const std::function<void(const std::string&)>& write_line);

  /// The in-process service (tests and benches call compile() directly).
  CompileService& service() { return service_; }
  const ServerOptions& options() const { return options_; }

  /// Parses one request line into a CompileRequest. Throws
  /// json::JsonError / ParseError / std::invalid_argument on malformed
  /// input. Exposed for tests and for bench_service's traffic generator.
  CompileRequest parse_request(const std::string& line) const;

  /// Renders a response line (without trailing newline).
  static std::string render_response(const CompileResponse& response);

 private:
  ServerOptions options_;
  CompileService service_;
};

}  // namespace dmfb
