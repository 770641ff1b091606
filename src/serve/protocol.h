// Request/response document model for the swsim.serve/1 protocol.
//
// One frame (serve/codec.h) carries one JSON document. Requests name a
// type — the workload types (truthtable, yield, micromag) mirror the CLI
// commands, the three built-ins are answered by the server itself, and
// probe.subscribe turns the session into a live telemetry stream:
//
//   {"proto": "swsim.serve/1", "type": "truthtable", "id": 7,
//    "client": "sweeper", "priority": 1,
//    "gate": "maj", "lambda_nm": 55, "width_nm": 22}
//   {"type": "yield", "gate": "xor", "trials": 200,
//    "sigma_length_nm": 2.0, "sigma_amp": 0.05}
//   {"type": "micromag", "gate": "maj", "lambda_nm": 50, "cell_nm": 4,
//    "early_stop": true}
//   {"type": "probe.subscribe", "max_frames": 64, "duration_s": 30}
//   {"type": "hello"}  {"type": "healthz"}  {"type": "metrics"}
//
// probe.subscribe answers with a normal ack response, then pushes raw
// length-prefixed JSON frames ({"type":"probe.frame",...}) as the live
// lock-in windows complete, ending with {"type":"probe.end",...} — see
// docs/OBSERVABILITY.md §8 for the frame schema.
//
// Responses always carry the request id and a robust::Status — the serve
// error contract is the same taxonomy the engine uses, extended with the
// two client-retryable admission codes (kOverloaded, kDraining):
//
//   {"proto": "swsim.serve/1", "id": 7,
//    "status": {"code": "ok", "message": "", "context": ""},
//    "text": "<the exact bytes the CLI prints>",
//    "scalars": {"all_pass": 1, ...}}
//
// Rejections add "retry_after_s"; built-ins put their result under
// "payload". Parsing is strict where it guards the server (unknown type,
// wrong proto, non-positive trials are kInvalidConfig before any work
// runs) and lenient where defaults are meaningful (id, client, priority,
// gate geometry all have CLI-identical defaults).
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.h"
#include "robust/status.h"
#include "serve/workload.h"

namespace swsim::serve {

inline constexpr const char* kProtocol = "swsim.serve/1";

enum class RequestType {
  kHello,
  kHealthz,
  kMetrics,
  kTruthTable,
  kYield,
  kMicromag,
  kProbeSubscribe,
};

std::string to_string(RequestType type);

struct Request {
  RequestType type = RequestType::kHello;
  std::uint64_t id = 0;
  std::string client = "anon";
  int priority = 0;        // higher drains first; same band is round-robin
  // End-to-end budget in seconds, measured by the server from the moment
  // the request is parsed. 0 = no deadline. A request whose budget runs
  // out — in the queue or mid-solve — answers kDeadlineExceeded
  // (retryable) instead of its result, and the engine stops computing it.
  double deadline_s = 0.0;
  // Cross-process trace correlation ("" = not traced). A traced client
  // stamps an opaque id here; the server continues the trace under it —
  // flow events on both sides share obs::flow_hash(trace_id + "#" + id)
  // so `swsim trace merge` can join the two trace files — and copies it
  // into the request-log line.
  std::string trace_id;
  // The client-side flow/span id the server should bind its spans to;
  // 0 = derive it from trace_id (the flow_hash above). Lets a client that
  // runs several traced requests under one trace_id keep them distinct.
  std::uint64_t parent_span = 0;
  GateParams gate;         // truthtable payload
  YieldParams yield;       // yield payload
  MicromagParams micromag; // micromag payload (LLG truth table)
  // probe.subscribe payload: the stream ends after max_frames frames or
  // duration_s seconds, whichever comes first (0 = unbounded — the stream
  // then runs until the client disconnects or the server drains). probe
  // narrows the stream to one port name ("" = all probes).
  std::uint64_t probe_max_frames = 0;
  double probe_duration_s = 0.0;
  std::string probe_filter;

  // The flow id tying this request's spans together across processes.
  std::uint64_t flow_id() const;
};

// Validates and extracts a request. Returns kInvalidConfig (with a
// pointed message) on anything malformed; the caller turns that into a
// response rather than dropping the connection.
robust::Status parse_request(const obs::JsonValue& doc, Request* out);
robust::Status parse_request_text(const std::string& text, Request* out);
std::string serialize_request(const Request& r);

struct Response {
  std::uint64_t id = 0;
  robust::Status status;
  double retry_after_s = 0.0;  // > 0 only on kOverloaded / kDraining
  std::string text;            // CLI-identical rendering (workload types)
  std::string payload_json;    // built-in result, one JSON object ("" = none)
  // Scalar results, so scripted clients need not parse `text`. NaN = unset.
  double all_pass = kUnsetScalar;  // 1.0 / 0.0 when set
  double yield_value = kUnsetScalar;
  double mean_worst_margin = kUnsetScalar;
  double max_asymmetry = kUnsetScalar;
  double min_margin = kUnsetScalar;

  static constexpr double kUnsetScalar = -1.0e308;
  static bool set(double v) { return v != kUnsetScalar; }

  // Server-side phase breakdown, echoed as a "timing" object so every
  // client can attribute latency without server logs: seconds spent
  // waiting in the admission queue, inside the engine, rendering the
  // reply, and end-to-end inside the server; budget_consumed is
  // total_s / granted deadline (only when the request carried one).
  // Negative = unset (built-ins report total_s only).
  struct Timing {
    double queue_s = -1.0;
    double engine_s = -1.0;
    double render_s = -1.0;
    double total_s = -1.0;
    double budget_consumed = -1.0;
    bool any() const {
      return queue_s >= 0.0 || engine_s >= 0.0 || render_s >= 0.0 ||
             total_s >= 0.0 || budget_consumed >= 0.0;
    }
  };
  Timing timing;
};

std::string serialize_response(const Response& r);
robust::Status parse_response_text(const std::string& text, Response* out);

// Reverse of robust::to_string(StatusCode); kInternal for unknown names
// (a newer server's code still fails closed on an older client).
robust::StatusCode status_code_from_string(const std::string& name);

}  // namespace swsim::serve
