// swsim.serve/1 document model: request parse/serialize round trips,
// strict-vs-lenient validation, response scalars, and the status-code
// name mapping both ends rely on.
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <limits>

#include "obs/json.h"
#include "obs/trace.h"

namespace swsim::serve {
namespace {

TEST(ServeProtocol, RequestRoundTripPreservesEveryField) {
  Request r;
  r.type = RequestType::kTruthTable;
  r.id = 42;
  r.client = "sweeper";
  r.priority = 3;
  r.gate.kind = "xor";
  r.gate.lambda_nm = 60.0;
  r.gate.width_nm = 21.5;

  Request back;
  ASSERT_TRUE(parse_request_text(serialize_request(r), &back).is_ok());
  EXPECT_EQ(back.type, RequestType::kTruthTable);
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.client, "sweeper");
  EXPECT_EQ(back.priority, 3);
  EXPECT_EQ(back.gate.kind, "xor");
  EXPECT_DOUBLE_EQ(back.gate.lambda_nm, 60.0);
  ASSERT_TRUE(back.gate.width_nm.has_value());
  EXPECT_DOUBLE_EQ(*back.gate.width_nm, 21.5);
}

TEST(ServeProtocol, YieldRequestRoundTrip) {
  Request r;
  r.type = RequestType::kYield;
  r.yield.kind = "xor";
  r.yield.trials = 250;
  r.yield.sigma_length_nm = 1.5;
  r.yield.sigma_amp = 0.07;

  Request back;
  ASSERT_TRUE(parse_request_text(serialize_request(r), &back).is_ok());
  EXPECT_EQ(back.type, RequestType::kYield);
  EXPECT_EQ(back.yield.kind, "xor");
  EXPECT_EQ(back.yield.trials, 250u);
  EXPECT_DOUBLE_EQ(back.yield.sigma_length_nm, 1.5);
  EXPECT_DOUBLE_EQ(back.yield.sigma_amp, 0.07);
}

TEST(ServeProtocol, MicromagRequestRoundTripAndDefaults) {
  Request r;
  r.type = RequestType::kMicromag;
  r.micromag.kind = "xor";
  r.micromag.lambda_nm = 60.0;
  r.micromag.width_nm = 25.0;
  r.micromag.cell_nm = 5.0;
  r.micromag.early_stop = true;

  Request back;
  ASSERT_TRUE(parse_request_text(serialize_request(r), &back).is_ok());
  EXPECT_EQ(back.type, RequestType::kMicromag);
  EXPECT_EQ(back.micromag.kind, "xor");
  EXPECT_DOUBLE_EQ(back.micromag.lambda_nm, 60.0);
  EXPECT_DOUBLE_EQ(back.micromag.width_nm, 25.0);
  EXPECT_DOUBLE_EQ(back.micromag.cell_nm, 5.0);
  EXPECT_TRUE(back.micromag.early_stop);

  // A bare document gets the CLI's micromag defaults, early stop off.
  Request bare;
  ASSERT_TRUE(parse_request_text(R"({"type":"micromag"})", &bare).is_ok());
  EXPECT_EQ(bare.micromag.kind, "maj");
  EXPECT_DOUBLE_EQ(bare.micromag.lambda_nm, 50.0);
  EXPECT_DOUBLE_EQ(bare.micromag.width_nm, 20.0);
  EXPECT_DOUBLE_EQ(bare.micromag.cell_nm, 4.0);
  EXPECT_FALSE(bare.micromag.early_stop);
}

TEST(ServeProtocol, MicromagRequestValidatesFields) {
  Request r;
  EXPECT_FALSE(
      parse_request_text(R"({"type":"micromag","lambda_nm":-3})", &r).is_ok());
  EXPECT_FALSE(
      parse_request_text(R"({"type":"micromag","cell_nm":0})", &r).is_ok());
  const auto st =
      parse_request_text(R"({"type":"micromag","early_stop":"yes"})", &r);
  EXPECT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("boolean"), std::string::npos);
}

TEST(ServeProtocol, ProbeSubscribeRoundTripAndValidation) {
  Request r;
  r.type = RequestType::kProbeSubscribe;
  r.id = 9;
  r.probe_max_frames = 32;
  r.probe_duration_s = 1.5;
  r.probe_filter = "O1";

  Request back;
  ASSERT_TRUE(parse_request_text(serialize_request(r), &back).is_ok());
  EXPECT_EQ(back.type, RequestType::kProbeSubscribe);
  EXPECT_EQ(back.probe_max_frames, 32u);
  EXPECT_DOUBLE_EQ(back.probe_duration_s, 1.5);
  EXPECT_EQ(back.probe_filter, "O1");

  // Unset bounds mean "stream until the client goes away".
  Request bare;
  ASSERT_TRUE(
      parse_request_text(R"({"type":"probe.subscribe"})", &bare).is_ok());
  EXPECT_EQ(bare.probe_max_frames, 0u);
  EXPECT_DOUBLE_EQ(bare.probe_duration_s, 0.0);
  EXPECT_TRUE(bare.probe_filter.empty());

  EXPECT_FALSE(parse_request_text(
                   R"({"type":"probe.subscribe","max_frames":-1})", &r)
                   .is_ok());
  EXPECT_FALSE(parse_request_text(
                   R"({"type":"probe.subscribe","max_frames":2.5})", &r)
                   .is_ok());
  EXPECT_FALSE(parse_request_text(
                   R"({"type":"probe.subscribe","duration_s":0})", &r)
                   .is_ok());
}

TEST(ServeProtocol, LenientDefaultsMirrorTheCli) {
  // A minimal document gets the CLI's defaults, not an error.
  Request r;
  ASSERT_TRUE(
      parse_request_text(R"({"type":"truthtable","gate":"maj"})", &r).is_ok());
  EXPECT_EQ(r.id, 0u);
  EXPECT_EQ(r.client, "anon");
  EXPECT_EQ(r.priority, 0);
  EXPECT_DOUBLE_EQ(r.gate.lambda_nm, 55.0);
  EXPECT_FALSE(r.gate.width_nm.has_value());
}

TEST(ServeProtocol, StrictValidationRejectsBeforeAnyWorkRuns) {
  Request r;
  // Wrong protocol string.
  EXPECT_EQ(parse_request_text(
                R"({"proto":"swsim.serve/999","type":"hello"})", &r)
                .code(),
            robust::StatusCode::kInvalidConfig);
  // Unknown type.
  EXPECT_EQ(parse_request_text(R"({"type":"frobnicate"})", &r).code(),
            robust::StatusCode::kInvalidConfig);
  // Missing type entirely.
  EXPECT_EQ(parse_request_text(R"({"gate":"maj"})", &r).code(),
            robust::StatusCode::kInvalidConfig);
  // Non-positive trials.
  EXPECT_EQ(parse_request_text(
                R"({"type":"yield","gate":"maj","trials":0})", &r)
                .code(),
            robust::StatusCode::kInvalidConfig);
  // Wrong field type.
  EXPECT_EQ(parse_request_text(
                R"({"type":"truthtable","gate":42})", &r)
                .code(),
            robust::StatusCode::kInvalidConfig);
  // Not JSON at all.
  EXPECT_EQ(parse_request_text("not json", &r).code(),
            robust::StatusCode::kInvalidConfig);
  // Integer fields out of their type's range, or not integral: casting
  // such a double is undefined behaviour, so they are refused outright.
  for (const char* text :
       {R"({"type":"yield","gate":"maj","trials":1e30})",
        R"({"type":"yield","gate":"maj","trials":2.5})",
        R"({"type":"hello","priority":1e30})",
        R"({"type":"hello","priority":-3e9})",
        R"({"type":"probe.subscribe","max_frames":1e30})",
        R"({"type":"hello","id":1e30})",
        R"({"type":"hello","id":1.5})"}) {
    EXPECT_EQ(parse_request_text(text, &r).code(),
              robust::StatusCode::kInvalidConfig)
        << text;
  }
  // The limits themselves are fine: int for priority, 2^53 for the others.
  ASSERT_TRUE(
      parse_request_text(
          R"({"type":"hello","id":9007199254740992,"priority":-2147483648})",
          &r)
          .is_ok());
  EXPECT_EQ(r.id, 9007199254740992u);
  EXPECT_EQ(r.priority, std::numeric_limits<int>::min());
  Response reply;
  EXPECT_EQ(parse_response_text(R"({"id":1e30,"status":{"code":"ok"}})",
                                &reply)
                .code(),
            robust::StatusCode::kInvalidConfig);
}

TEST(ServeProtocol, ResponseRoundTripKeepsStatusAndScalars) {
  Response r;
  r.id = 7;
  r.status = robust::Status::error(robust::StatusCode::kDraining,
                                   "server is draining", "serve unix:/s");
  r.retry_after_s = 0.5;
  r.text = "two\nlines\n";
  r.all_pass = 1.0;
  r.min_margin = 0.25;

  Response back;
  ASSERT_TRUE(parse_response_text(serialize_response(r), &back).is_ok());
  EXPECT_EQ(back.id, 7u);
  EXPECT_EQ(back.status.code(), robust::StatusCode::kDraining);
  EXPECT_EQ(back.status.message(), "server is draining");
  EXPECT_DOUBLE_EQ(back.retry_after_s, 0.5);
  EXPECT_EQ(back.text, "two\nlines\n");
  ASSERT_TRUE(Response::set(back.all_pass));
  EXPECT_DOUBLE_EQ(back.all_pass, 1.0);
  ASSERT_TRUE(Response::set(back.min_margin));
  EXPECT_DOUBLE_EQ(back.min_margin, 0.25);
  EXPECT_FALSE(Response::set(back.yield_value));  // unset stays unset
}

TEST(ServeProtocol, AdmissionCodesAreRetryableOnTheWire) {
  // The client-side retry contract: a rejection parses back into a status
  // the robust taxonomy marks retryable.
  for (const auto code :
       {robust::StatusCode::kOverloaded, robust::StatusCode::kDraining}) {
    Response r;
    r.status = robust::Status::error(code, "busy", "serve");
    r.retry_after_s = 0.25;
    Response back;
    ASSERT_TRUE(parse_response_text(serialize_response(r), &back).is_ok());
    EXPECT_EQ(back.status.code(), code);
    EXPECT_TRUE(robust::is_retryable(back.status.code()));
    EXPECT_GT(back.retry_after_s, 0.0);
  }
}

TEST(ServeProtocol, StatusCodeNamesRoundTripAndFailClosed) {
  // Every named code maps back to itself; an unknown name (newer server,
  // older client) degrades to kInternal, never to kOk.
  for (const auto code :
       {robust::StatusCode::kOk, robust::StatusCode::kInvalidConfig,
        robust::StatusCode::kNumericalDivergence, robust::StatusCode::kTimeout,
        robust::StatusCode::kCancelled, robust::StatusCode::kCacheCorrupt,
        robust::StatusCode::kIoError, robust::StatusCode::kQuarantined,
        robust::StatusCode::kOverloaded, robust::StatusCode::kDraining,
        robust::StatusCode::kInternal}) {
    EXPECT_EQ(status_code_from_string(robust::to_string(code)), code);
  }
  EXPECT_EQ(status_code_from_string("quantum-flux"),
            robust::StatusCode::kInternal);
}

TEST(ServeProtocol, DumpJsonIsDeterministic) {
  // Two key orders, one rendering: JsonValue objects sort their keys, so
  // the writer gives byte-stable documents for comparisons and logs.
  const std::string a = R"({"zeta":1,"alpha":{"b":2,"a":[1,2,3]}})";
  const std::string b = R"({"alpha":{"a":[1,2,3],"b":2},"zeta":1})";
  const auto dump = [](const std::string& text) {
    return obs::JsonWriter().value(obs::parse_json(text)).take();
  };
  EXPECT_EQ(dump(a), dump(b));
  EXPECT_EQ(dump(a), b);
}

TEST(ServeProtocol, WireLayoutIsCompactWithFixedKeyOrder) {
  // Key order and separators are the wire contract; numbers are the
  // shortest spelling that parses back to the same double.
  Response r;
  r.id = 7;
  r.retry_after_s = 0.25;
  r.text = "MAJ3 row 1\n\"ok\"";
  r.all_pass = 1.0;
  r.min_margin = 0.05;
  r.timing.queue_s = 0.0001;
  r.timing.total_s = 100.0;
  r.payload_json = R"({"b":1})";
  EXPECT_EQ(serialize_response(r),
            R"({"proto":"swsim.serve/1","id":7,"status":{"code":"ok",)"
            R"("message":"","context":""},"retry_after_s":0.25,)"
            R"("text":"MAJ3 row 1\n\"ok\"","scalars":{"all_pass":1,)"
            R"("min_margin":0.05},"timing":{"queue_s":1e-04,"total_s":100},)"
            R"("payload":{"b":1}})");

  Request q;
  q.type = RequestType::kYield;
  q.id = 3;
  q.client = "t";
  q.deadline_s = 2.5e-07;
  q.yield.kind = "xor";
  q.yield.lambda_nm = 55.0;
  q.yield.sigma_length_nm = 1e-05;
  q.yield.sigma_amp = 0.05;
  q.yield.trials = 200;
  EXPECT_EQ(serialize_request(q),
            R"({"proto":"swsim.serve/1","type":"yield","id":3,"client":"t",)"
            R"("priority":0,"deadline_s":2.5e-07,"gate":"xor",)"
            R"("lambda_nm":55,"sigma_length_nm":1e-05,"sigma_amp":0.05,)"
            R"("trials":200})");
}

TEST(ServeProtocol, SerializedRequestIsValidJson) {
  Request r;
  r.type = RequestType::kHello;
  r.client = "with \"quotes\" and \n newline";
  EXPECT_NO_THROW(obs::parse_json(serialize_request(r)));
}

TEST(ServeProtocol, TraceContextRoundTrips) {
  Request r;
  r.type = RequestType::kHello;
  r.id = 9;
  r.trace_id = "cli-1234-99";
  // A parent span id whose value exceeds 2^53 — the hex-string wire form
  // exists precisely because a JSON double would mangle it.
  r.parent_span = 0xfeedfacecafebeefull;

  Request back;
  ASSERT_TRUE(parse_request_text(serialize_request(r), &back).is_ok());
  EXPECT_EQ(back.trace_id, "cli-1234-99");
  EXPECT_EQ(back.parent_span, 0xfeedfacecafebeefull);
  // An explicit parent span wins as the flow id.
  EXPECT_EQ(back.flow_id(), 0xfeedfacecafebeefull);

  // Without one, both ends derive the same id from trace_id + request id.
  r.parent_span = 0;
  ASSERT_TRUE(parse_request_text(serialize_request(r), &back).is_ok());
  EXPECT_EQ(back.flow_id(), obs::flow_hash("cli-1234-99#9"));
  EXPECT_NE(back.flow_id(), 0u);

  // No trace context at all: no flow, and the wire stays clean of the
  // optional keys.
  Request plain;
  plain.type = RequestType::kHello;
  EXPECT_EQ(plain.flow_id(), 0u);
  const std::string wire = serialize_request(plain);
  EXPECT_EQ(wire.find("trace_id"), std::string::npos);
  EXPECT_EQ(wire.find("parent_span"), std::string::npos);
}

TEST(ServeProtocol, ParentSpanMustBeAHexString) {
  Request r;
  EXPECT_EQ(parse_request_text(
                R"({"type":"hello","parent_span":12345})", &r)
                .code(),
            robust::StatusCode::kInvalidConfig);
  EXPECT_EQ(parse_request_text(
                R"({"type":"hello","parent_span":"xyzzy"})", &r)
                .code(),
            robust::StatusCode::kInvalidConfig);
}

TEST(ServeProtocol, TimingBlockRoundTripsAndOmitsUnsetPhases) {
  Response r;
  r.id = 3;
  r.status = robust::Status::ok();
  r.timing.queue_s = 0.001;
  r.timing.engine_s = 0.25;
  r.timing.render_s = 0.0005;
  r.timing.total_s = 0.2521;
  r.timing.budget_consumed = 0.42;

  Response back;
  ASSERT_TRUE(parse_response_text(serialize_response(r), &back).is_ok());
  ASSERT_TRUE(back.timing.any());
  EXPECT_DOUBLE_EQ(back.timing.queue_s, 0.001);
  EXPECT_DOUBLE_EQ(back.timing.engine_s, 0.25);
  EXPECT_DOUBLE_EQ(back.timing.render_s, 0.0005);
  EXPECT_DOUBLE_EQ(back.timing.total_s, 0.2521);
  EXPECT_DOUBLE_EQ(back.timing.budget_consumed, 0.42);

  // Partially measured (a shed request has no engine/render phase): the
  // unset fields stay unset through the round trip.
  Response shed;
  shed.timing.queue_s = 0.002;
  shed.timing.total_s = 0.003;
  ASSERT_TRUE(parse_response_text(serialize_response(shed), &back).is_ok());
  EXPECT_DOUBLE_EQ(back.timing.queue_s, 0.002);
  EXPECT_LT(back.timing.engine_s, 0.0);
  EXPECT_LT(back.timing.render_s, 0.0);
  EXPECT_LT(back.timing.budget_consumed, 0.0);

  // No timing at all: the key is absent from the wire.
  Response none;
  EXPECT_EQ(serialize_response(none).find("timing"), std::string::npos);
  ASSERT_TRUE(parse_response_text(serialize_response(none), &back).is_ok());
  EXPECT_FALSE(back.timing.any());
}

}  // namespace
}  // namespace swsim::serve
