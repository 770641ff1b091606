// End-to-end daemon tests: an in-process Server on a Unix socket, real
// Client connections, and the three contracts the serve layer exists for —
// wire-level determinism (served bytes == CLI bytes), a shared warm cache
// across clients, and the graceful drain protocol.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/validator.h"
#include "engine/batch_runner.h"
#include "mag/kernels/sweep.h"
#include "obs/json.h"
#include "serve/client.h"
#include "serve/codec.h"
#include "serve/protocol.h"
#include "serve/workload.h"

namespace swsim::serve {
namespace {

namespace fs = std::filesystem;

ServerConfig test_config(const std::string& name) {
  ServerConfig cfg;
  const fs::path dir = fs::path(::testing::TempDir()) / "swsim_serve_test";
  fs::create_directories(dir);
  cfg.socket_path = (dir / (name + ".sock")).string();
  fs::remove(cfg.socket_path);
  cfg.dispatchers = 2;
  cfg.engine.jobs = 2;
  return cfg;
}

Request truth_table_request(const std::string& kind, std::uint64_t id = 0,
                            const std::string& client = "anon") {
  Request r;
  r.type = RequestType::kTruthTable;
  r.id = id;
  r.client = client;
  r.gate.kind = kind;
  return r;
}

// The reference bytes: what `swsim truthtable <kind>` prints, computed
// through the same shared workload spec the CLI uses.
std::string local_truth_table_bytes(const std::string& kind) {
  engine::EngineConfig cfg;
  cfg.jobs = 2;
  engine::BatchRunner runner(cfg);
  GateParams p;
  p.kind = kind;
  const auto spec = make_truth_table_spec(p);
  EXPECT_TRUE(spec.has_value());
  const auto outcome =
      runner.run_truth_table_checked(spec->factory, spec->key, {}, "local");
  EXPECT_TRUE(outcome.ok());
  return core::format_report(outcome.report);
}

TEST(ServeServer, HelloEchoesTheBuildFingerprint) {
  auto cfg = test_config("hello");
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect_unix(cfg.socket_path).is_ok());
  Request req;
  req.type = RequestType::kHello;
  req.id = 11;
  Response resp;
  ASSERT_TRUE(client.call(req, &resp).is_ok());
  EXPECT_EQ(resp.id, 11u);
  EXPECT_TRUE(resp.status.is_ok());

  const auto payload = obs::parse_json(resp.payload_json);
  ASSERT_TRUE(payload.is_object());
  EXPECT_EQ(payload.find("protocol")->str(), kProtocol);
  ASSERT_NE(payload.find("git_sha"), nullptr);
  ASSERT_NE(payload.find("compiler"), nullptr);
  ASSERT_NE(payload.find("kernel_isa"), nullptr);
  EXPECT_EQ(payload.find("kernel_isa")->str(),
            mag::kernels::sweep_variant().name);
  EXPECT_EQ(payload.find("endpoint")->str(), server.endpoint());

  client.close();
  server.shutdown();
}

TEST(ServeServer, TruthTableMatchesCliBytesExactly) {
  auto cfg = test_config("bytes");
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect_unix(cfg.socket_path).is_ok());
  Response resp;
  ASSERT_TRUE(client.call(truth_table_request("maj", 1), &resp).is_ok());
  ASSERT_TRUE(resp.status.is_ok()) << resp.status.str();

  EXPECT_EQ(resp.text, local_truth_table_bytes("maj"));
  ASSERT_TRUE(Response::set(resp.all_pass));
  EXPECT_DOUBLE_EQ(resp.all_pass, 1.0);
  EXPECT_TRUE(Response::set(resp.min_margin));

  server.shutdown();
}

TEST(ServeServer, EightConcurrentClientsGetIdenticalBytes) {
  auto cfg = test_config("concurrent");
  cfg.dispatchers = 4;
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  constexpr int kClients = 8;
  std::vector<std::string> texts(kClients);
  std::vector<robust::Status> statuses(kClients, robust::Status::ok());
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client;
      const auto connected = client.connect_unix(cfg.socket_path);
      if (!connected.is_ok()) {
        statuses[i] = connected;
        return;
      }
      Response resp;
      const auto called = client.call(
          truth_table_request("xor", static_cast<std::uint64_t>(i),
                              "tenant" + std::to_string(i)),
          &resp);
      statuses[i] = called.is_ok() ? resp.status : called;
      texts[i] = resp.text;
    });
  }
  for (auto& t : threads) t.join();

  const std::string expected = local_truth_table_bytes("xor");
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(statuses[i].is_ok()) << "client " << i << ": "
                                     << statuses[i].str();
    EXPECT_EQ(texts[i], expected) << "client " << i;
  }
  server.shutdown();
}

// Reads healthz through an open client and returns the parsed payload.
obs::JsonValue healthz(Client& client) {
  Request req;
  req.type = RequestType::kHealthz;
  Response resp;
  EXPECT_TRUE(client.call(req, &resp).is_ok());
  EXPECT_TRUE(resp.status.is_ok());
  return obs::parse_json(resp.payload_json);
}

TEST(ServeServer, WarmCacheAnswersRepeatWithoutResolving) {
  auto cfg = test_config("warmcache");
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  Client first;
  ASSERT_TRUE(first.connect_unix(cfg.socket_path).is_ok());
  Response cold;
  ASSERT_TRUE(first.call(truth_table_request("maj", 1, "alice"), &cold)
                  .is_ok());
  ASSERT_TRUE(cold.status.is_ok());

  const auto after_cold = healthz(first);
  const double jobs_cold =
      after_cold.find("engine")->find("jobs_executed")->number();
  const double hits_cold = after_cold.find("cache")->find("hits")->number();
  EXPECT_GT(jobs_cold, 0.0);

  // A *different* client repeats the request: byte-identical answer, cache
  // hits rise, jobs_executed does not — the solve was never re-run.
  Client second;
  ASSERT_TRUE(second.connect_unix(cfg.socket_path).is_ok());
  Response warm;
  ASSERT_TRUE(second.call(truth_table_request("maj", 2, "bob"), &warm)
                  .is_ok());
  ASSERT_TRUE(warm.status.is_ok());
  EXPECT_EQ(warm.text, cold.text);

  const auto after_warm = healthz(first);
  EXPECT_EQ(after_warm.find("engine")->find("jobs_executed")->number(),
            jobs_cold);
  EXPECT_GT(after_warm.find("cache")->find("hits")->number(), hits_cold);

  server.shutdown();
}

TEST(ServeServer, UnknownGateAnswersInvalidConfigNotDisconnect) {
  auto cfg = test_config("badgate");
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect_unix(cfg.socket_path).is_ok());
  Response resp;
  ASSERT_TRUE(client.call(truth_table_request("warpdrive", 9), &resp).is_ok());
  EXPECT_EQ(resp.status.code(), robust::StatusCode::kInvalidConfig);
  EXPECT_EQ(resp.id, 9u);

  // The session survives a rejected request.
  Response again;
  ASSERT_TRUE(client.call(truth_table_request("maj", 10), &again).is_ok());
  EXPECT_TRUE(again.status.is_ok());
  server.shutdown();
}

TEST(ServeServer, MalformedFrameAnswersInvalidConfigAndKeepsSession) {
  auto cfg = test_config("badframe");
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect_unix(cfg.socket_path).is_ok());
  std::string error;
  ASSERT_TRUE(write_frame(client.fd(), "this is not json", &error));
  std::string payload;
  ASSERT_EQ(read_frame(client.fd(), &payload, &error), ReadResult::kFrame);
  Response resp;
  ASSERT_TRUE(parse_response_text(payload, &resp).is_ok());
  EXPECT_EQ(resp.status.code(), robust::StatusCode::kInvalidConfig);

  // Still connected: a well-formed request goes through.
  Response ok;
  ASSERT_TRUE(client.call(truth_table_request("maj"), &ok).is_ok());
  EXPECT_TRUE(ok.status.is_ok());
  server.shutdown();
}

TEST(ServeServer, DrainCompletesAdmittedRejectsNewKeepsBuiltins) {
  auto cfg = test_config("drain");
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect_unix(cfg.socket_path).is_ok());
  // Pay for one request first so the drain-time healthz has history.
  Response before;
  ASSERT_TRUE(client.call(truth_table_request("maj", 1), &before).is_ok());
  ASSERT_TRUE(before.status.is_ok());

  server.begin_drain();

  // A new workload request on the existing connection: retryable
  // kDraining with a retry hint, not a dropped connection.
  Response rejected;
  ASSERT_TRUE(client.call(truth_table_request("maj", 2), &rejected).is_ok());
  EXPECT_EQ(rejected.status.code(), robust::StatusCode::kDraining);
  EXPECT_TRUE(robust::is_retryable(rejected.status.code()));
  EXPECT_GT(rejected.retry_after_s, 0.0);

  // Built-ins keep answering so an orchestrator can watch the drain.
  const auto health = healthz(client);
  EXPECT_EQ(health.find("status")->str(), "draining");
  EXPECT_GE(health.find("requests")->find("rejected_draining")->number(),
            1.0);

  client.close();
  server.shutdown();
  // The endpoint is gone after shutdown.
  Client late;
  EXPECT_FALSE(late.connect_unix(cfg.socket_path).is_ok());
}

TEST(ServeServer, RequestLogRecordsEveryRequest) {
  auto cfg = test_config("reqlog");
  const fs::path log =
      fs::path(::testing::TempDir()) / "swsim_serve_test" / "requests.jsonl";
  fs::remove(log);
  cfg.request_log = log.string();
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect_unix(cfg.socket_path).is_ok());
  Response resp;
  ASSERT_TRUE(client.call(truth_table_request("maj", 5, "logged"), &resp)
                  .is_ok());
  healthz(client);
  client.close();
  server.shutdown();

  // One JSONL line per request, each a valid document naming the client.
  std::ifstream in(log);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  bool saw_truthtable = false;
  while (std::getline(in, line)) {
    ++lines;
    const auto doc = obs::parse_json(line);
    ASSERT_TRUE(doc.is_object());
    if (doc.find("type")->str() == "truthtable") {
      saw_truthtable = true;
      EXPECT_EQ(doc.find("client")->str(), "logged");
      EXPECT_EQ(doc.find("code")->str(), "ok");
    }
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_TRUE(saw_truthtable);
}

Request yield_request(std::size_t trials, std::uint64_t id = 0,
                      double deadline_s = 0.0,
                      const std::string& client = "anon") {
  Request r;
  r.type = RequestType::kYield;
  r.id = id;
  r.client = client;
  r.yield.kind = "maj";
  r.yield.trials = trials;
  r.deadline_s = deadline_s;
  return r;
}

TEST(ServeServer, QueuedDeadlineIsShedWithoutEngineWork) {
  auto cfg = test_config("dlqueue");
  cfg.dispatchers = 1;  // one lane, so a slow request blocks the queue
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  // Occupy the only dispatcher with a ~1 s yield sweep.
  std::thread blocker([&] {
    Client c;
    ASSERT_TRUE(c.connect_unix(cfg.socket_path).is_ok());
    Response r;
    ASSERT_TRUE(c.call(yield_request(50000, 1), &r).is_ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // A deadline far shorter than the blocker: by the time the dispatcher
  // frees up, this request's budget is gone — it must be answered
  // kDeadlineExceeded without the engine touching it.
  Client client;
  ASSERT_TRUE(client.connect_unix(cfg.socket_path).is_ok());
  Request doomed = truth_table_request("maj", 2);
  doomed.deadline_s = 0.05;
  Response shed;
  ASSERT_TRUE(client.call(doomed, &shed).is_ok());
  blocker.join();
  EXPECT_EQ(shed.status.code(), robust::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(robust::is_retryable(shed.status.code()));
  EXPECT_GT(shed.retry_after_s, 0.0);

  // The shed request never reached the engine: solving the same gate now
  // executes fresh jobs (a cache hit here would mean it HAD been solved).
  const auto before = healthz(client);
  const double jobs_before =
      before.find("engine")->find("jobs_executed")->number();
  EXPECT_GE(before.find("requests")->find("rejected_deadline")->number(), 1.0);
  Response solved;
  ASSERT_TRUE(client.call(truth_table_request("maj", 3), &solved).is_ok());
  EXPECT_TRUE(solved.status.is_ok());
  const auto after = healthz(client);
  EXPECT_GT(after.find("engine")->find("jobs_executed")->number(),
            jobs_before);
  // Deadline sheds are tracked apart from failures.
  EXPECT_EQ(after.find("requests")->find("failed")->number(),
            before.find("requests")->find("failed")->number());
  server.shutdown();
}

TEST(ServeServer, MidSolveDeadlineTripsToDeadlineExceeded) {
  auto cfg = test_config("dlsolve");
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  // A ~1 s sweep with a 0.2 s budget: the engine must abandon it mid-run
  // and the client gets the structured, retryable deadline status.
  Client client;
  ASSERT_TRUE(client.connect_unix(cfg.socket_path).is_ok());
  Response resp;
  ASSERT_TRUE(client.call(yield_request(50000, 7, 0.2), &resp).is_ok());
  EXPECT_EQ(resp.status.code(), robust::StatusCode::kDeadlineExceeded)
      << resp.status.str();
  EXPECT_GT(resp.retry_after_s, 0.0);

  // The daemon is healthy afterwards: a request with room to breathe runs.
  Response ok;
  ASSERT_TRUE(client.call(truth_table_request("maj", 8), &ok).is_ok());
  EXPECT_TRUE(ok.status.is_ok()) << ok.status.str();
  server.shutdown();
}

TEST(ServeServer, IdleSessionIsTimedOutAndReclaimed) {
  auto cfg = test_config("idle");
  cfg.idle_timeout_s = 0.1;
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  Client silent;
  ASSERT_TRUE(silent.connect_unix(cfg.socket_path).is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // The server hung up on the silent session...
  std::string payload, error;
  EXPECT_EQ(read_frame(silent.fd(), &payload, &error, IoDeadlines{1.0, 1.0}),
            ReadResult::kEof);

  // ...and accounted for it; only the fresh healthz session is live.
  Client fresh;
  ASSERT_TRUE(fresh.connect_unix(cfg.socket_path).is_ok());
  const auto health = healthz(fresh);
  EXPECT_GE(health.find("sessions_timed_out")->number(), 1.0);
  EXPECT_EQ(health.find("sessions")->number(), 1.0);
  server.shutdown();
}

TEST(ServeServer, HealthzExposesQueueAgeTunablesAndRecovery) {
  auto cfg = test_config("healthfields");
  cfg.queue_capacity = 17;
  cfg.retry_after_s = 0.75;
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect_unix(cfg.socket_path).is_ok());
  const auto health = healthz(client);
  ASSERT_NE(health.find("queue"), nullptr);
  ASSERT_NE(health.find("queue")->find("oldest_wait_s"), nullptr);
  EXPECT_EQ(health.find("queue")->find("oldest_wait_s")->number(), 0.0);
  const auto* tun = health.find("tunables");
  ASSERT_NE(tun, nullptr);
  EXPECT_EQ(tun->find("queue_capacity")->number(), 17.0);
  EXPECT_DOUBLE_EQ(tun->find("retry_after_s")->number(), 0.75);
  const auto* rec = health.find("recovery");
  ASSERT_NE(rec, nullptr);  // no spill dir: present, all zeros
  EXPECT_EQ(rec->find("scanned")->number(), 0.0);
  EXPECT_EQ(health.find("requests")->find("rejected_deadline")->number(),
            0.0);
  server.shutdown();
}

TEST(ServeServer, ReloadAppliesTunablesFileAndKeepsOldOnParseFailure) {
  auto cfg = test_config("reload");
  const fs::path tunables =
      fs::path(::testing::TempDir()) / "swsim_serve_test" / "tunables.conf";
  {
    std::ofstream out(tunables);
    out << "queue_capacity = 5\n# comment\nretry_after_s = 0.25\n";
  }
  cfg.tunables_file = tunables.string();
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect_unix(cfg.socket_path).is_ok());
  auto health = healthz(client);
  EXPECT_EQ(health.find("tunables")->find("queue_capacity")->number(), 5.0);

  // SIGHUP semantics: rewrite + reload → new values live without restart.
  {
    std::ofstream out(tunables);
    out << "queue_capacity = 9\nretry_after_s = 1.5\nidle_timeout_s = 60\n";
  }
  server.reload();
  health = healthz(client);
  EXPECT_EQ(health.find("tunables")->find("queue_capacity")->number(), 9.0);
  EXPECT_DOUBLE_EQ(health.find("tunables")->find("retry_after_s")->number(),
                   1.5);

  // A broken file must not take the daemon down or change anything (its
  // valid first line included) — also when strtod reads a number that no
  // setting can hold.
  for (const char* broken :
       {"queue_capacity = not-a-number\n", "queue_capacity = nan\n",
        "queue_capacity = 1e30\n", "retry_after_s = 1.5\nretry_after_s = nan\n",
        "retry_after_s = inf\n"}) {
    {
      std::ofstream out(tunables);
      out << "queue_capacity = 3\n" << broken;
    }
    server.reload();
    health = healthz(client);
    EXPECT_EQ(health.find("tunables")->find("queue_capacity")->number(), 9.0)
        << broken;
    const auto* retry = health.find("tunables")->find("retry_after_s");
    ASSERT_TRUE(retry->is_number()) << broken;
    EXPECT_DOUBLE_EQ(retry->number(), 1.5) << broken;
  }
  server.shutdown();
}

TEST(ServeServer, StartRefusesABrokenTunablesFile) {
  auto cfg = test_config("badtunables");
  const fs::path tunables =
      fs::path(::testing::TempDir()) / "swsim_serve_test" / "bad.conf";
  cfg.tunables_file = tunables.string();
  // An unknown key, and values strtod accepts that are not settings: a
  // NaN, an infinity, an overflow, a capacity past any size_t and a
  // fractional one.
  for (const char* broken :
       {"bogus_knob = 1", "queue_capacity = nan", "queue_capacity = inf",
        "queue_capacity = 1e30", "queue_capacity = 2.5",
        "retry_after_s = nan", "retry_after_s = 1e400",
        "idle_timeout_s = -inf", "max_deadline_s = nan"}) {
    {
      std::ofstream out(tunables);
      out << "# operator edits\n" << broken << '\n';
    }
    Server server(cfg);
    const robust::Status status = server.start();
    EXPECT_EQ(status.code(), robust::StatusCode::kInvalidConfig) << broken;
    // The refusal names the file and line.
    EXPECT_NE(status.message().find("bad.conf:2:"), std::string::npos)
        << status.message();
  }
}

TEST(ServeServer, StartupRecoveryQuarantinesCorruptSpillEntries) {
  auto cfg = test_config("recovery");
  const fs::path spill =
      fs::path(::testing::TempDir()) / "swsim_serve_test" / "spill_recovery";
  fs::remove_all(spill);
  fs::create_directories(spill);
  {
    std::ofstream out(spill / "00ff.swc", std::ios::binary);
    out << "definitely not a spill file";
  }
  {
    std::ofstream out(spill / "1234.swc.tmp.777", std::ios::binary);
    out << "partial write from a crashed daemon";
  }
  cfg.engine.spill_dir = spill.string();
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  const auto rec = server.recovery_report();
  EXPECT_EQ(rec.scanned, 1u);
  EXPECT_EQ(rec.healthy, 0u);
  EXPECT_EQ(rec.quarantined, 1u);
  EXPECT_EQ(rec.removed_tmp, 1u);
  // The corrupt entry moved aside (inspectable), the tmp litter is gone.
  EXPECT_TRUE(fs::exists(spill / "quarantine" / "00ff.swc"));
  EXPECT_FALSE(fs::exists(spill / "00ff.swc"));
  EXPECT_FALSE(fs::exists(spill / "1234.swc.tmp.777"));

  // And healthz agrees.
  Client client;
  ASSERT_TRUE(client.connect_unix(cfg.socket_path).is_ok());
  const auto health = healthz(client);
  EXPECT_EQ(health.find("recovery")->find("quarantined")->number(), 1.0);
  EXPECT_EQ(health.find("recovery")->find("removed_tmp")->number(), 1.0);
  server.shutdown();
}

TEST(ServeServer, ClientRetriesRideOutADeadlineAndReportStats) {
  auto cfg = test_config("retries");
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  // Deadline generous, server healthy: one attempt, success.
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.deadline_s = 30.0;
  Response resp;
  RetryStats stats;
  const auto status = call_with_retries(cfg.socket_path, 0,
                                        truth_table_request("maj", 1), policy,
                                        &resp, &stats);
  EXPECT_TRUE(status.is_ok()) << status.str();
  EXPECT_TRUE(resp.status.is_ok());
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.retries, 0);
  server.shutdown();

  // Endpoint gone: retries burn the budget, then the deadline reports.
  RetryPolicy doomed;
  doomed.max_attempts = 50;
  doomed.deadline_s = 0.3;
  doomed.base_backoff_s = 0.02;
  Response none;
  RetryStats burned;
  const auto failed = call_with_retries(cfg.socket_path, 0,
                                        truth_table_request("maj", 2), doomed,
                                        &none, &burned);
  EXPECT_EQ(failed.code(), robust::StatusCode::kDeadlineExceeded);
  EXPECT_GT(burned.attempts, 1);
  EXPECT_EQ(burned.last_error.code(), robust::StatusCode::kIoError);
}

TEST(ServeServer, StartRefusesAmbiguousEndpoints) {
  ServerConfig cfg;  // neither socket nor port
  Server none(cfg);
  EXPECT_EQ(none.start().code(), robust::StatusCode::kInvalidConfig);

  auto both_cfg = test_config("both");
  both_cfg.tcp_port = 39999;
  Server both(both_cfg);
  EXPECT_EQ(both.start().code(), robust::StatusCode::kInvalidConfig);

  ServerConfig wide;  // 70000 must not wrap to port 4464 as a uint16_t
  wide.tcp_port = 70000;
  Server wrapped(wide);
  EXPECT_EQ(wrapped.start().code(), robust::StatusCode::kInvalidConfig);
}

}  // namespace
}  // namespace swsim::serve
