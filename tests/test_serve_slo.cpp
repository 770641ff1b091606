// Serve-plane telemetry: SloTracker determinism and schema, the flight
// recorder ring, the timing block echoed on every response, and the
// healthz "slo" section of a live daemon.
#include "serve/slo.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "serve/client.h"
#include "serve/flight_recorder.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace swsim::serve {
namespace {

namespace fs = std::filesystem;

using robust::StatusCode;

SloTracker::Sample sample(const std::string& tenant, const std::string& kind,
                          StatusCode code, double total_s,
                          double engine_s = -1.0) {
  SloTracker::Sample s;
  s.tenant = tenant;
  s.kind = kind;
  s.code = code;
  s.total_s = total_s;
  s.engine_s = engine_s;
  return s;
}

TEST(SloTracker, CountsAndHistogramsFollowTheSamples) {
  SloTracker slo;
  slo.record(sample("a", "truthtable", StatusCode::kOk, 0.001, 0.0005));
  slo.record(sample("a", "truthtable", StatusCode::kOk, 0.002, 0.001));
  slo.record(sample("a", "truthtable", StatusCode::kOverloaded, 0.0001));
  slo.record(sample("a", "yield", StatusCode::kDeadlineExceeded, 0.05));
  slo.record(sample("b", "hello", StatusCode::kInvalidConfig, 0.0001));

  const auto snap = slo.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  const auto& tt = snap.at("a").at("truthtable");
  EXPECT_EQ(tt.requests, 3u);
  EXPECT_EQ(tt.ok, 2u);
  EXPECT_EQ(tt.shed_overload, 1u);
  EXPECT_EQ(tt.retryable, 1u);
  EXPECT_EQ(tt.total.count, 3u);
  EXPECT_EQ(tt.engine.count, 2u);  // the shed sample had no engine phase
  EXPECT_EQ(tt.total.sum_us, 1000u + 2000u + 100u);
  EXPECT_EQ(tt.total.max_us, 2000u);
  const auto& y = snap.at("a").at("yield");
  EXPECT_EQ(y.shed_deadline, 1u);
  EXPECT_EQ(snap.at("b").at("hello").failed, 1u);
  EXPECT_EQ(slo.total_requests(), 5u);
}

TEST(SloTracker, QuantileIsConservativeBucketUpperBound) {
  SloTracker slo;
  // 100 samples at 0.9 ms: every quantile reports the enclosing bucket's
  // upper bound, never less than the true value.
  for (int i = 0; i < 100; ++i) {
    slo.record(sample("t", "hello", StatusCode::kOk, 0.0009));
  }
  const auto hist = slo.snapshot().at("t").at("hello").total;
  EXPECT_GE(hist.quantile(0.5), 0.0009);
  EXPECT_GE(hist.quantile(0.99), 0.0009);
  EXPECT_LE(hist.quantile(0.99), 0.01);  // and not wildly above
}

TEST(SloTracker, JsonIsDeterministicUnderConcurrentRecording) {
  // The healthz contract: the snapshot depends only on the multiset of
  // samples, not on how session threads interleaved. Integer-microsecond
  // accumulation makes the sums commutative where double addition is not.
  std::vector<SloTracker::Sample> samples;
  for (int i = 0; i < 240; ++i) {
    const char* tenants[] = {"alpha", "beta", "gamma"};
    const char* kinds[] = {"truthtable", "yield"};
    const StatusCode codes[] = {StatusCode::kOk, StatusCode::kOk,
                                StatusCode::kOverloaded,
                                StatusCode::kDeadlineExceeded};
    auto s = sample(tenants[i % 3], kinds[i % 2], codes[i % 4],
                    0.0001 * (1 + i % 50), 0.00005 * (1 + i % 30));
    s.queue_s = 0.00001 * (i % 7);
    s.budget_consumed = (i % 5 == 0) ? 0.25 * (i % 6) : -1.0;
    samples.push_back(std::move(s));
  }

  SloTracker serial;
  for (const auto& s : samples) serial.record(s);

  SloTracker concurrent;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < samples.size(); i += 4) {
        concurrent.record(samples[i]);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(serial.json(), concurrent.json());
  EXPECT_EQ(serial.total_requests(), concurrent.total_requests());
}

TEST(SloTracker, TenantCardinalityIsBounded) {
  SloTracker slo(2);
  slo.record(sample("a", "hello", StatusCode::kOk, 0.001));
  slo.record(sample("b", "hello", StatusCode::kOk, 0.001));
  slo.record(sample("flood-1", "hello", StatusCode::kOk, 0.001));
  slo.record(sample("flood-2", "hello", StatusCode::kOk, 0.001));
  const auto snap = slo.snapshot();
  ASSERT_EQ(snap.size(), 3u);  // a, b, ~other
  EXPECT_EQ(snap.at("~other").at("hello").requests, 2u);
}

TEST(SloTracker, JsonParsesAndCarriesTheSchema) {
  SloTracker slo;
  auto s = sample("tenant-1", "truthtable", StatusCode::kOk, 0.002, 0.001);
  s.queue_s = 0.0001;
  s.render_s = 0.0005;
  s.budget_consumed = 0.4;
  slo.record(s);

  const auto doc = obs::parse_json(slo.json());
  EXPECT_EQ(doc.find("requests")->number(), 1.0);
  const auto* tenant = doc.find("tenants")->find("tenant-1");
  ASSERT_NE(tenant, nullptr);
  const auto* tt = tenant->find("truthtable");
  ASSERT_NE(tt, nullptr);
  for (const char* phase : {"queue", "engine", "render", "total"}) {
    const auto* h = tt->find(phase);
    ASSERT_NE(h, nullptr) << phase;
    EXPECT_EQ(h->find("count")->number(), 1.0) << phase;
    ASSERT_NE(h->find("p99_s"), nullptr) << phase;
  }
  const auto* budget = tt->find("budget");
  ASSERT_NE(budget, nullptr);
  EXPECT_EQ(budget->find("count")->number(), 1.0);
  EXPECT_NEAR(budget->find("mean_consumed")->number(), 0.4, 1e-6);
  EXPECT_EQ(budget->find("over")->number(), 0.0);
}

TEST(FlightRecorder, RingKeepsTheMostRecentEntries) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.record("{\"n\":" + std::to_string(i) + "}");
  }
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.size(), 4u);
  std::ostringstream os;
  rec.dump(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"flight_recorder\":\"begin\",\"dropped\":6"),
            std::string::npos);
  EXPECT_NE(out.find("\"flight_recorder\":\"end\",\"entries\":4"),
            std::string::npos);
  EXPECT_EQ(out.find("{\"n\":5}"), std::string::npos);  // dropped
  // Oldest-first order of the survivors.
  EXPECT_LT(out.find("{\"n\":6}"), out.find("{\"n\":9}"));
}

TEST(FlightRecorder, LongLinesAreTruncatedNotDropped) {
  FlightRecorder rec(2);
  rec.record(std::string(2 * FlightRecorder::kSlotBytes, 'x'));
  EXPECT_EQ(rec.size(), 1u);
  std::ostringstream os;
  rec.dump(os);
  // The entry survives, capped at the slot size.
  const std::string out = os.str();
  const auto first_x = out.find('x');
  ASSERT_NE(first_x, std::string::npos);
  std::size_t run = 0;
  while (first_x + run < out.size() && out[first_x + run] == 'x') ++run;
  EXPECT_LT(run, FlightRecorder::kSlotBytes);
}

// ---------------------------------------------------------------------------
// Live-daemon half: timing echo, healthz slo, request-log trace ids and
// the SIGQUIT-path dump, all against an in-process server on a Unix
// socket.

ServerConfig test_config(const std::string& name) {
  ServerConfig cfg;
  const fs::path dir = fs::path(::testing::TempDir()) / "swsim_slo_test";
  fs::create_directories(dir);
  cfg.socket_path = (dir / (name + ".sock")).string();
  fs::remove(cfg.socket_path);
  cfg.dispatchers = 2;
  cfg.engine.jobs = 2;
  return cfg;
}

Request truth_table_request(const std::string& client,
                            const std::string& trace_id = "") {
  Request r;
  r.type = RequestType::kTruthTable;
  r.client = client;
  r.gate.kind = "maj";
  r.trace_id = trace_id;
  return r;
}

TEST(ServeSlo, ResponsesEchoTheTimingBreakdown) {
  ServerConfig cfg = test_config("timing");
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect_unix(cfg.socket_path).is_ok());

  Request req = truth_table_request("timer");
  req.deadline_s = 30.0;
  Response resp;
  ASSERT_TRUE(client.call(req, &resp).is_ok());
  ASSERT_TRUE(resp.status.is_ok());
  ASSERT_TRUE(resp.timing.any());
  EXPECT_GE(resp.timing.queue_s, 0.0);
  EXPECT_GE(resp.timing.engine_s, 0.0);
  EXPECT_GE(resp.timing.render_s, 0.0);
  // The session-observed total covers queue + dispatch work.
  EXPECT_GE(resp.timing.total_s, resp.timing.engine_s);
  // A request that carried a deadline reports its budget consumption.
  EXPECT_GE(resp.timing.budget_consumed, 0.0);
  EXPECT_LT(resp.timing.budget_consumed, 1.0);
  server.shutdown();
}

TEST(ServeSlo, HealthzReportsPerTenantSloSections) {
  ServerConfig cfg = test_config("healthz");
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect_unix(cfg.socket_path).is_ok());

  Response resp;
  ASSERT_TRUE(client.call(truth_table_request("tenant-a"), &resp).is_ok());
  ASSERT_TRUE(client.call(truth_table_request("tenant-b"), &resp).is_ok());

  Request healthz;
  healthz.type = RequestType::kHealthz;
  ASSERT_TRUE(client.call(healthz, &resp).is_ok());
  ASSERT_TRUE(resp.status.is_ok());
  const auto doc = obs::parse_json(resp.payload_json);
  const auto* slo = doc.find("slo");
  ASSERT_NE(slo, nullptr);
  EXPECT_GE(slo->find("requests")->number(), 2.0);
  const auto* tenants = slo->find("tenants");
  ASSERT_NE(tenants, nullptr);
  for (const char* tenant : {"tenant-a", "tenant-b"}) {
    const auto* t = tenants->find(tenant);
    ASSERT_NE(t, nullptr) << tenant;
    const auto* tt = t->find("truthtable");
    ASSERT_NE(tt, nullptr) << tenant;
    EXPECT_GE(tt->find("requests")->number(), 1.0);
    EXPECT_GE(tt->find("ok")->number(), 1.0);
    ASSERT_NE(tt->find("total"), nullptr);
    EXPECT_GE(tt->find("total")->find("count")->number(), 1.0);
  }
  server.shutdown();
}

TEST(ServeSlo, RequestLogCarriesTraceIdsAndTheFlightRecorderDump) {
  ServerConfig cfg = test_config("reqlog");
  const fs::path log_path =
      fs::path(::testing::TempDir()) / "swsim_slo_test" / "requests.jsonl";
  fs::remove(log_path);
  cfg.request_log = log_path.string();
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect_unix(cfg.socket_path).is_ok());

  Response resp;
  ASSERT_TRUE(
      client.call(truth_table_request("traced", "trace-xyz"), &resp).is_ok());
  ASSERT_TRUE(resp.status.is_ok());
  // The SIGQUIT path minus the signal: dump the ring into the request log.
  server.dump_flight_recorder();
  server.shutdown();

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string log = buffer.str();
  EXPECT_NE(log.find("\"trace_id\":\"trace-xyz\""), std::string::npos);
  EXPECT_NE(log.find("\"flight_recorder\":\"begin\""), std::string::npos);
  EXPECT_NE(log.find("\"flight_recorder\":\"end\""), std::string::npos);
}

}  // namespace
}  // namespace swsim::serve
