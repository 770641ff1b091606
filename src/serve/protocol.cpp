#include "serve/protocol.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "obs/trace.h"

namespace swsim::serve {

namespace {

robust::Status invalid(const std::string& message) {
  return robust::Status::error(robust::StatusCode::kInvalidConfig, message,
                               "serve request");
}

// Field accessors that fold "absent" and "wrong type" into one check.
const obs::JsonValue* member(const obs::JsonValue& doc,
                             const std::string& key) {
  return doc.find(key);
}

robust::Status read_number(const obs::JsonValue& doc, const std::string& key,
                           double* out, bool* present) {
  *present = false;
  const auto* v = member(doc, key);
  if (!v) return robust::Status::ok();
  if (!v->is_number()) return invalid("'" + key + "' must be a number");
  if (!std::isfinite(v->number())) {
    return invalid("'" + key + "' must be finite");
  }
  *out = v->number();
  *present = true;
  return robust::Status::ok();
}

// Integer fields travel as JSON numbers (doubles): anything above 2^53 has
// already lost integer precision.
constexpr double kMaxExactInteger = 9007199254740992.0;

// An integral number in [lo, hi], or absent. Every integer field goes
// through here: casting a double outside the target type's range is
// undefined behaviour, so the check must come before the cast.
robust::Status read_integer(const obs::JsonValue& doc, const std::string& key,
                            double lo, double hi, double* out,
                            bool* present) {
  if (auto s = read_number(doc, key, out, present); !s.is_ok() || !*present) {
    return s;
  }
  if (*out != std::floor(*out) || *out < lo || *out > hi) {
    return invalid("'" + key + "' must be an integer in [" +
                   obs::format_number(lo) + ", " + obs::format_number(hi) +
                   "]");
  }
  return robust::Status::ok();
}

robust::Status read_string(const obs::JsonValue& doc, const std::string& key,
                           std::string* out, bool* present) {
  *present = false;
  const auto* v = member(doc, key);
  if (!v) return robust::Status::ok();
  if (!v->is_string()) return invalid("'" + key + "' must be a string");
  *out = v->str();
  *present = true;
  return robust::Status::ok();
}

}  // namespace

std::string to_string(RequestType type) {
  switch (type) {
    case RequestType::kHello:
      return "hello";
    case RequestType::kHealthz:
      return "healthz";
    case RequestType::kMetrics:
      return "metrics";
    case RequestType::kTruthTable:
      return "truthtable";
    case RequestType::kYield:
      return "yield";
    case RequestType::kMicromag:
      return "micromag";
    case RequestType::kProbeSubscribe:
      return "probe.subscribe";
  }
  return "unknown";
}

std::uint64_t Request::flow_id() const {
  if (parent_span != 0) return parent_span;
  if (trace_id.empty()) return 0;
  return obs::flow_hash(trace_id + "#" + std::to_string(id));
}

robust::Status parse_request(const obs::JsonValue& doc, Request* out) {
  *out = Request{};
  if (!doc.is_object()) return invalid("request must be a JSON object");

  bool present = false;
  std::string proto;
  if (auto s = read_string(doc, "proto", &proto, &present); !s.is_ok()) {
    return s;
  }
  if (present && proto != kProtocol) {
    return invalid("protocol mismatch: server speaks " +
                   std::string(kProtocol) + ", request says '" + proto + "'");
  }

  std::string type;
  if (auto s = read_string(doc, "type", &type, &present); !s.is_ok()) {
    return s;
  }
  if (!present) return invalid("missing 'type'");
  if (type == "hello") {
    out->type = RequestType::kHello;
  } else if (type == "healthz") {
    out->type = RequestType::kHealthz;
  } else if (type == "metrics") {
    out->type = RequestType::kMetrics;
  } else if (type == "truthtable") {
    out->type = RequestType::kTruthTable;
  } else if (type == "yield") {
    out->type = RequestType::kYield;
  } else if (type == "micromag") {
    out->type = RequestType::kMicromag;
  } else if (type == "probe.subscribe") {
    out->type = RequestType::kProbeSubscribe;
  } else {
    return invalid(
        "unknown type '" + type +
        "' (want hello|healthz|metrics|truthtable|yield|micromag|"
        "probe.subscribe)");
  }

  double num = 0.0;
  if (auto s = read_integer(doc, "id", 0.0, kMaxExactInteger, &num, &present);
      !s.is_ok()) {
    return s;
  }
  if (present) out->id = static_cast<std::uint64_t>(num);
  if (auto s = read_string(doc, "client", &out->client, &present);
      !s.is_ok()) {
    return s;
  }
  if (present && out->client.empty()) {
    return invalid("'client' must be non-empty");
  }
  if (!present) out->client = "anon";
  if (auto s = read_integer(doc, "priority",
                            std::numeric_limits<int>::min(),
                            std::numeric_limits<int>::max(), &num, &present);
      !s.is_ok()) {
    return s;
  }
  if (present) out->priority = static_cast<int>(num);
  if (auto s = read_number(doc, "deadline_s", &num, &present); !s.is_ok()) {
    return s;
  }
  if (present) {
    if (num <= 0.0) return invalid("'deadline_s' must be > 0");
    out->deadline_s = num;
  }
  if (auto s = read_string(doc, "trace_id", &out->trace_id, &present);
      !s.is_ok()) {
    return s;
  }
  // parent_span travels as a hex string: 64-bit ids do not survive the
  // double-backed JSON number representation above 2^53.
  std::string span_hex;
  if (auto s = read_string(doc, "parent_span", &span_hex, &present);
      !s.is_ok()) {
    return s;
  }
  if (present) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(span_hex.c_str(), &end, 16);
    if (span_hex.empty() || end == nullptr || *end != '\0') {
      return invalid("'parent_span' must be a hex string");
    }
    out->parent_span = static_cast<std::uint64_t>(v);
  }

  if (out->type == RequestType::kProbeSubscribe) {
    if (auto s = read_integer(doc, "max_frames", 0.0, kMaxExactInteger, &num,
                              &present);
        !s.is_ok()) {
      return s;
    }
    if (present) out->probe_max_frames = static_cast<std::uint64_t>(num);
    if (auto s = read_number(doc, "duration_s", &num, &present); !s.is_ok()) {
      return s;
    }
    if (present) {
      if (num <= 0.0) return invalid("'duration_s' must be > 0");
      out->probe_duration_s = num;
    }
    if (auto s = read_string(doc, "probe", &out->probe_filter, &present);
        !s.is_ok()) {
      return s;
    }
    return robust::Status::ok();
  }

  if (out->type == RequestType::kMicromag) {
    // Own defaults (maj / 50 / 20 / 4) — deliberately NOT the shared
    // geometry block below, whose lambda default is the analytic gates' 55.
    if (auto s = read_string(doc, "gate", &out->micromag.kind, &present);
        !s.is_ok()) {
      return s;
    }
    if (auto s = read_number(doc, "lambda_nm", &num, &present); !s.is_ok()) {
      return s;
    }
    if (present) {
      if (num <= 0.0) return invalid("'lambda_nm' must be > 0");
      out->micromag.lambda_nm = num;
    }
    if (auto s = read_number(doc, "width_nm", &num, &present); !s.is_ok()) {
      return s;
    }
    if (present) {
      if (num <= 0.0) return invalid("'width_nm' must be > 0");
      out->micromag.width_nm = num;
    }
    if (auto s = read_number(doc, "cell_nm", &num, &present); !s.is_ok()) {
      return s;
    }
    if (present) {
      if (num <= 0.0) return invalid("'cell_nm' must be > 0");
      out->micromag.cell_nm = num;
    }
    if (const auto* v = member(doc, "early_stop")) {
      if (!v->is_bool()) return invalid("'early_stop' must be a boolean");
      out->micromag.early_stop = v->boolean();
    }
    return robust::Status::ok();
  }

  if (out->type != RequestType::kTruthTable &&
      out->type != RequestType::kYield) {
    return robust::Status::ok();
  }

  // Shared gate geometry (CLI-identical defaults).
  std::string gate;
  bool gate_present = false;
  if (auto s = read_string(doc, "gate", &gate, &gate_present); !s.is_ok()) {
    return s;
  }
  double lambda_nm = 55.0;
  if (auto s = read_number(doc, "lambda_nm", &num, &present); !s.is_ok()) {
    return s;
  }
  if (present) {
    if (num <= 0.0) return invalid("'lambda_nm' must be > 0");
    lambda_nm = num;
  }
  std::optional<double> width_nm;
  if (auto s = read_number(doc, "width_nm", &num, &present); !s.is_ok()) {
    return s;
  }
  if (present) {
    if (num <= 0.0) return invalid("'width_nm' must be > 0");
    width_nm = num;
  }

  if (out->type == RequestType::kTruthTable) {
    if (!gate_present) return invalid("truthtable: missing 'gate'");
    out->gate.kind = gate;
    out->gate.lambda_nm = lambda_nm;
    out->gate.width_nm = width_nm;
    return robust::Status::ok();
  }

  out->yield.kind = gate_present ? gate : "maj";
  out->yield.lambda_nm = lambda_nm;
  out->yield.width_nm = width_nm;
  if (auto s = read_number(doc, "sigma_length_nm", &num, &present);
      !s.is_ok()) {
    return s;
  }
  if (present) {
    if (num < 0.0) return invalid("'sigma_length_nm' must be >= 0");
    out->yield.sigma_length_nm = num;
  }
  if (auto s = read_number(doc, "sigma_amp", &num, &present); !s.is_ok()) {
    return s;
  }
  if (present) {
    if (num < 0.0) return invalid("'sigma_amp' must be >= 0");
    out->yield.sigma_amp = num;
  }
  if (auto s = read_integer(doc, "trials", 1.0, kMaxExactInteger, &num,
                            &present);
      !s.is_ok()) {
    return s;
  }
  if (present) out->yield.trials = static_cast<std::size_t>(num);
  return robust::Status::ok();
}

robust::Status parse_request_text(const std::string& text, Request* out) {
  try {
    return parse_request(obs::parse_json(text), out);
  } catch (const std::exception& e) {
    return invalid(std::string("malformed JSON: ") + e.what());
  }
}

std::string serialize_request(const Request& r) {
  obs::JsonWriter w;
  w.begin_object()
      .field("proto", kProtocol)
      .field("type", to_string(r.type))
      .field("id", r.id)
      .field("client", r.client)
      .field("priority", r.priority);
  if (r.deadline_s > 0.0) w.field("deadline_s", r.deadline_s);
  if (!r.trace_id.empty()) w.field("trace_id", r.trace_id);
  if (r.parent_span != 0) {
    char hex[20];
    std::snprintf(hex, sizeof hex, "%llx",
                  static_cast<unsigned long long>(r.parent_span));
    w.field("parent_span", hex);
  }
  if (r.type == RequestType::kTruthTable) {
    w.field("gate", r.gate.kind).field("lambda_nm", r.gate.lambda_nm);
    if (r.gate.width_nm) w.field("width_nm", *r.gate.width_nm);
  } else if (r.type == RequestType::kYield) {
    w.field("gate", r.yield.kind).field("lambda_nm", r.yield.lambda_nm);
    if (r.yield.width_nm) w.field("width_nm", *r.yield.width_nm);
    w.field("sigma_length_nm", r.yield.sigma_length_nm)
        .field("sigma_amp", r.yield.sigma_amp)
        .field("trials", r.yield.trials);
  } else if (r.type == RequestType::kMicromag) {
    w.field("gate", r.micromag.kind)
        .field("lambda_nm", r.micromag.lambda_nm)
        .field("width_nm", r.micromag.width_nm)
        .field("cell_nm", r.micromag.cell_nm);
    if (r.micromag.early_stop) w.field("early_stop", true);
  } else if (r.type == RequestType::kProbeSubscribe) {
    if (r.probe_max_frames > 0) w.field("max_frames", r.probe_max_frames);
    if (r.probe_duration_s > 0.0) w.field("duration_s", r.probe_duration_s);
    if (!r.probe_filter.empty()) w.field("probe", r.probe_filter);
  }
  return w.end_object().take();
}

std::string serialize_response(const Response& r) {
  obs::JsonWriter w;
  w.begin_object()
      .field("proto", kProtocol)
      .field("id", r.id)
      .key("status")
      .begin_object()
      .field("code", robust::to_string(r.status.code()))
      .field("message", r.status.message())
      .field("context", r.status.context())
      .end_object();
  if (r.retry_after_s > 0.0) w.field("retry_after_s", r.retry_after_s);
  if (!r.text.empty()) w.field("text", r.text);
  const std::pair<const char*, double> scalars[] = {
      {"all_pass", r.all_pass},
      {"yield", r.yield_value},
      {"mean_worst_margin", r.mean_worst_margin},
      {"max_asymmetry", r.max_asymmetry},
      {"min_margin", r.min_margin}};
  if (std::ranges::any_of(
          scalars, [](const auto& s) { return Response::set(s.second); })) {
    w.key("scalars").begin_object();
    for (const auto& [name, v] : scalars) {
      if (Response::set(v)) w.field(name, v);
    }
    w.end_object();
  }
  if (r.timing.any()) {
    const std::pair<const char*, double> phases[] = {
        {"queue_s", r.timing.queue_s},
        {"engine_s", r.timing.engine_s},
        {"render_s", r.timing.render_s},
        {"total_s", r.timing.total_s},
        {"budget_consumed", r.timing.budget_consumed}};
    w.key("timing").begin_object();
    for (const auto& [name, v] : phases) {
      if (v >= 0.0) w.field(name, v);
    }
    w.end_object();
  }
  if (!r.payload_json.empty()) w.key("payload").raw(r.payload_json);
  return w.end_object().take();
}

robust::Status parse_response_text(const std::string& text, Response* out) {
  *out = Response{};
  obs::JsonValue doc;
  try {
    doc = obs::parse_json(text);
  } catch (const std::exception& e) {
    return invalid(std::string("malformed response JSON: ") + e.what());
  }
  if (!doc.is_object()) return invalid("response must be a JSON object");
  double id = 0.0;
  bool present = false;
  if (auto s = read_integer(doc, "id", 0.0, kMaxExactInteger, &id, &present);
      !s.is_ok()) {
    return s;
  }
  if (present) out->id = static_cast<std::uint64_t>(id);
  const auto* status = doc.find("status");
  if (!status || !status->is_object()) {
    return invalid("response is missing 'status'");
  }
  const auto* code = status->find("code");
  if (!code || !code->is_string()) {
    return invalid("response status is missing 'code'");
  }
  const auto* message = status->find("message");
  const auto* context = status->find("context");
  const robust::StatusCode parsed_code = status_code_from_string(code->str());
  if (parsed_code == robust::StatusCode::kOk) {
    out->status = robust::Status::ok();
  } else {
    out->status = robust::Status::error(
        parsed_code, message && message->is_string() ? message->str() : "",
        context && context->is_string() ? context->str() : "");
  }
  if (const auto* retry = doc.find("retry_after_s");
      retry && retry->is_number()) {
    out->retry_after_s = retry->number();
  }
  if (const auto* t = doc.find("text"); t && t->is_string()) {
    out->text = t->str();
  }
  if (const auto* scalars = doc.find("scalars");
      scalars && scalars->is_object()) {
    const auto get = [scalars](const char* name, double* dst) {
      if (const auto* v = scalars->find(name); v && v->is_number()) {
        *dst = v->number();
      }
    };
    get("all_pass", &out->all_pass);
    get("yield", &out->yield_value);
    get("mean_worst_margin", &out->mean_worst_margin);
    get("max_asymmetry", &out->max_asymmetry);
    get("min_margin", &out->min_margin);
  }
  if (const auto* timing = doc.find("timing"); timing && timing->is_object()) {
    const auto get = [timing](const char* name, double* dst) {
      if (const auto* v = timing->find(name); v && v->is_number()) {
        *dst = v->number();
      }
    };
    get("queue_s", &out->timing.queue_s);
    get("engine_s", &out->timing.engine_s);
    get("render_s", &out->timing.render_s);
    get("total_s", &out->timing.total_s);
    get("budget_consumed", &out->timing.budget_consumed);
  }
  if (const auto* payload = doc.find("payload")) {
    out->payload_json = obs::JsonWriter().value(*payload).take();
  }
  return robust::Status::ok();
}

robust::StatusCode status_code_from_string(const std::string& name) {
  using robust::StatusCode;
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidConfig,
        StatusCode::kNumericalDivergence, StatusCode::kTimeout,
        StatusCode::kCancelled, StatusCode::kCacheCorrupt,
        StatusCode::kIoError, StatusCode::kQuarantined, StatusCode::kInternal,
        StatusCode::kOverloaded, StatusCode::kDraining,
        StatusCode::kDeadlineExceeded}) {
    if (robust::to_string(code) == name) return code;
  }
  return StatusCode::kInternal;
}

}  // namespace swsim::serve
