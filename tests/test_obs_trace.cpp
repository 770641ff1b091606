// Tracing: disarmed spans record nothing, armed spans export well-formed
// Chrome trace_event JSON, and scope nesting survives multi-threaded
// recording (each thread's spans nest by time containment on its own tid).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"

namespace swsim::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceSession::global().stop();
    TraceSession::global().clear();
  }
  void TearDown() override {
    TraceSession::global().stop();
    TraceSession::global().clear();
  }
};

TEST_F(TraceTest, DisarmedSpansRecordNothing) {
  {
    Span a("outer");
    Span b("inner", "cat");
  }
  record_complete("late", "cat", 0.0);
  EXPECT_EQ(TraceSession::global().event_count(), 0u);
}

TEST_F(TraceTest, ArmedSpanBecomesCompleteEvent) {
  TraceSession::global().start();
  { Span a("solve", "engine"); }
  TraceSession::global().stop();
  ASSERT_EQ(TraceSession::global().event_count(), 1u);

  const JsonValue root = parse_json(TraceSession::global().chrome_json());
  const auto* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Exactly one X event named "solve" (any M thread-name events aside).
  std::size_t complete = 0;
  for (const auto& e : events->array()) {
    if (e.find("ph")->str() != "X") continue;
    ++complete;
    EXPECT_EQ(e.find("name")->str(), "solve");
    EXPECT_EQ(e.find("cat")->str(), "engine");
    EXPECT_GE(e.find("ts")->number(), 0.0);
    EXPECT_GE(e.find("dur")->number(), 0.0);
  }
  EXPECT_EQ(complete, 1u);
}

TEST_F(TraceTest, SpansStartedBeforeStopAreKept) {
  TraceSession::global().start();
  {
    Span a("outlives-stop");
    TraceSession::global().stop();
  }  // the span was armed at construction; closing it must still record
  EXPECT_EQ(TraceSession::global().event_count(), 1u);
}

struct EventRec {
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  double tid = -1.0;
};

std::vector<EventRec> complete_events(const std::string& json) {
  std::vector<EventRec> out;
  const JsonValue root = parse_json(json);
  for (const auto& e : root.find("traceEvents")->array()) {
    if (e.find("ph")->str() != "X") continue;
    out.push_back({e.find("name")->str(), e.find("ts")->number(),
                   e.find("dur")->number(), e.find("tid")->number()});
  }
  return out;
}

TEST_F(TraceTest, NestingSurvivesAcrossThreads) {
  constexpr int kThreads = 4;
  TraceSession::global().start();
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([w] {
      set_thread_name("t" + std::to_string(w));
      Span outer("outer-" + std::to_string(w));
      Span inner("inner-" + std::to_string(w));
    });
  }
  for (auto& t : workers) t.join();
  TraceSession::global().stop();

  const auto events = complete_events(TraceSession::global().chrome_json());
  ASSERT_EQ(events.size(), 2u * kThreads);

  // Group by tid: each thread buffer must hold exactly its own pair, with
  // the inner span contained in the outer's [ts, ts+dur) window — that is
  // what makes the viewer render them as nested.
  std::map<double, std::vector<EventRec>> by_tid;
  for (const auto& e : events) by_tid[e.tid].push_back(e);
  ASSERT_EQ(by_tid.size(), static_cast<std::size_t>(kThreads));
  for (auto& [tid, list] : by_tid) {
    ASSERT_EQ(list.size(), 2u);
    const auto outer = std::find_if(list.begin(), list.end(), [](auto& e) {
      return e.name.rfind("outer", 0) == 0;
    });
    const auto inner = std::find_if(list.begin(), list.end(), [](auto& e) {
      return e.name.rfind("inner", 0) == 0;
    });
    ASSERT_NE(outer, list.end());
    ASSERT_NE(inner, list.end());
    // Same worker: suffixes match.
    EXPECT_EQ(outer->name.substr(6), inner->name.substr(6));
    EXPECT_GE(inner->ts, outer->ts);
    EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur + 1e-6);
  }

  // Thread names exported as metadata events.
  const JsonValue root = parse_json(TraceSession::global().chrome_json());
  std::size_t named = 0;
  for (const auto& e : root.find("traceEvents")->array()) {
    if (e.find("ph")->str() != "M") continue;
    EXPECT_EQ(e.find("name")->str(), "thread_name");
    const auto* args = e.find("args");
    ASSERT_NE(args, nullptr);
    const auto* name = args->find("name");
    ASSERT_NE(name, nullptr);
    if (name->str().rfind("t", 0) == 0) ++named;
  }
  EXPECT_EQ(named, static_cast<std::size_t>(kThreads));
}

TEST_F(TraceTest, RecordCompleteBackfillsAnInterval) {
  TraceSession::global().start();
  const double t0 = 1.0;
  record_complete("block", "mag", t0);
  TraceSession::global().stop();
  const auto events = complete_events(TraceSession::global().chrome_json());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "block");
  EXPECT_DOUBLE_EQ(events[0].ts, t0);
  EXPECT_GE(events[0].dur, 0.0);
}

TEST_F(TraceTest, ClearDropsEventsButKeepsThreadRegistration) {
  TraceSession::global().start();
  { Span a("before-clear"); }
  TraceSession::global().clear();
  EXPECT_EQ(TraceSession::global().event_count(), 0u);
  { Span a("after-clear"); }
  TraceSession::global().stop();
  EXPECT_EQ(TraceSession::global().event_count(), 1u);
}

TEST_F(TraceTest, SpanNamesAreJsonEscaped) {
  TraceSession::global().start();
  { Span a(std::string("quote \" backslash \\ newline \n end"), "core"); }
  TraceSession::global().stop();
  const auto events = complete_events(TraceSession::global().chrome_json());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "quote \" backslash \\ newline \n end");
}

TEST_F(TraceTest, FlowEventsExportHexIdsAndPhases) {
  TraceSession::global().start();
  const std::uint64_t id = flow_hash("trace-1#7");
  {
    Span a("client.request");
    record_flow("client.request", "client", id, 's');
  }
  {
    Span b("serve.request");
    record_flow("serve.request", "serve", id, 't');
  }
  record_flow("serve.done", "serve", id, 'f');
  TraceSession::global().stop();

  const JsonValue root = parse_json(TraceSession::global().chrome_json());
  std::vector<std::string> phases;
  std::vector<std::string> ids;
  for (const auto& e : root.find("traceEvents")->array()) {
    const std::string& ph = e.find("ph")->str();
    if (ph != "s" && ph != "t" && ph != "f") continue;
    phases.push_back(ph);
    // The arrow id is a hex string, not a JSON number: 64-bit ids would
    // lose precision as doubles.
    const auto* idv = e.find("id");
    ASSERT_NE(idv, nullptr);
    ASSERT_TRUE(idv->is_string());
    ids.push_back(idv->str());
    if (ph == "f") {
      ASSERT_NE(e.find("bp"), nullptr);
      EXPECT_EQ(e.find("bp")->str(), "e");
    } else {
      EXPECT_EQ(e.find("bp"), nullptr);
    }
  }
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(ids[0], ids[1]);
  EXPECT_EQ(ids[1], ids[2]);
  char expect[19];
  std::snprintf(expect, sizeof expect, "0x%llx",
                static_cast<unsigned long long>(id));
  EXPECT_EQ(ids[0], expect);
}

TEST_F(TraceTest, DisarmedOrZeroIdFlowsRecordNothing) {
  record_flow("never", "x", 123, 's');  // disarmed
  TraceSession::global().start();
  record_flow("no-flow", "x", 0, 's');  // id 0 means "no flow"
  TraceSession::global().stop();
  EXPECT_EQ(TraceSession::global().event_count(), 0u);
}

TEST_F(TraceTest, ScopedFlowSetsAndRestoresTheThreadFlow) {
  EXPECT_EQ(current_flow_id(), 0u);
  {
    ScopedFlow outer(11);
    EXPECT_EQ(current_flow_id(), 11u);
    {
      ScopedFlow inner(22);
      EXPECT_EQ(current_flow_id(), 22u);
    }
    EXPECT_EQ(current_flow_id(), 11u);
  }
  EXPECT_EQ(current_flow_id(), 0u);
  // And the flow is per-thread, not global.
  {
    ScopedFlow outer(33);
    std::uint64_t seen = 99;
    std::thread([&] { seen = current_flow_id(); }).join();
    EXPECT_EQ(seen, 0u);
  }
}

TEST_F(TraceTest, ExportCarriesAWallAnchorForCrossProcessMerge) {
  TraceSession::global().start();
  { Span a("anchored"); }
  TraceSession::global().stop();
  const JsonValue root = parse_json(TraceSession::global().chrome_json());
  const auto* other = root.find("otherData");
  ASSERT_NE(other, nullptr);
  const auto* anchor = other->find("wall_anchor_us");
  ASSERT_NE(anchor, nullptr);
  ASSERT_TRUE(anchor->is_number());
  // Epoch microseconds at trace ts 0: after 2020, before the heat death.
  EXPECT_GT(anchor->number(), 1.5e15);
}

TEST_F(TraceTest, FlowHashIsDeterministicAndNeverZero) {
  EXPECT_EQ(flow_hash("trace-a#1"), flow_hash("trace-a#1"));
  EXPECT_NE(flow_hash("trace-a#1"), flow_hash("trace-a#2"));
  EXPECT_NE(flow_hash(""), 0u);
}

// --- cross-process merge --------------------------------------------------

// A synthetic single-event dump as --trace-out writes it: monotonic ts,
// pid 0, and the wall anchor that lets merge rebase across processes.
std::string dump_json(double anchor_us, double ts_us, const char* event) {
  return std::string("{\"traceEvents\":[{\"name\":\"") + event +
         "\",\"ph\":\"X\",\"ts\":" + std::to_string(ts_us) +
         ",\"dur\":5,\"pid\":0,\"tid\":1}],\"otherData\":{"
         "\"wall_anchor_us\":" +
         std::to_string(anchor_us) + "}}";
}

TEST(TraceMerge, ThreeDumpsRebaseOntoTheEarliestAnchor) {
  // Three processes started 1 ms apart; the middle file started first, so
  // its anchor wins and its events keep their timestamps.
  const JsonValue cli = parse_json(dump_json(2'000'000'000'000.0, 10.0, "a"));
  const JsonValue daemon =
      parse_json(dump_json(1'999'999'999'000.0, 10.0, "b"));
  const JsonValue worker =
      parse_json(dump_json(2'000'000'001'000.0, 10.0, "c"));

  TraceMergeStats stats;
  const std::string merged = merge_trace_dumps(
      {{"cli.json", &cli}, {"daemon.json", &daemon}, {"worker.json", &worker}},
      &stats);
  EXPECT_EQ(stats.files, 3u);
  EXPECT_EQ(stats.events, 3u);

  const JsonValue root = parse_json(merged);
  const auto* other = root.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_DOUBLE_EQ(other->find("wall_anchor_us")->number(),
                   1'999'999'999'000.0);
  EXPECT_EQ(other->find("merged_from")->number(), 3.0);

  // One pid per input file (1..3, input order), each with a process_name
  // metadata event, and every trace event rebased by its file's offset
  // from the earliest anchor.
  const auto& events = root.find("traceEvents")->array();
  ASSERT_EQ(events.size(), 6u);  // 3 metadata + 3 trace events
  double rebased[4] = {0, 0, 0, 0};
  std::map<long long, std::string> names;
  for (const auto& e : events) {
    const long long pid = static_cast<long long>(e.find("pid")->number());
    ASSERT_GE(pid, 1);
    ASSERT_LE(pid, 3);
    if (e.find("name")->str() == "process_name") {
      names[pid] = e.find("args")->find("name")->str();
    } else {
      rebased[pid] = e.find("ts")->number();
    }
  }
  EXPECT_EQ(names[1], "cli.json");
  EXPECT_EQ(names[2], "daemon.json");
  EXPECT_EQ(names[3], "worker.json");
  EXPECT_DOUBLE_EQ(rebased[1], 1010.0);  // anchor 1000 us after the earliest
  EXPECT_DOUBLE_EQ(rebased[2], 10.0);    // the earliest anchor: unshifted
  EXPECT_DOUBLE_EQ(rebased[3], 2010.0);
}

TEST(TraceMerge, SixteenDigitAnchorsAndRebasedTimestampsStayExact) {
  // Real epoch-microsecond anchors have 16 digits, and process-relative
  // timestamps carry sub-microsecond fractions: a 15-digit rendering
  // would move the merged anchor and round the rebased ts values.
  const double early = 1'760'000'000'123'456.0;
  const JsonValue late_doc = parse_json(
      R"({"traceEvents":[{"name":"a","ph":"X","ts":123456.78901234568,)"
      R"("dur":5,"pid":0,"tid":1}],)"
      R"("otherData":{"wall_anchor_us":1760000000123459}})");
  const JsonValue early_doc = parse_json(
      R"({"traceEvents":[{"name":"b","ph":"X","ts":0.30000000000000004,)"
      R"("dur":5,"pid":0,"tid":1}],)"
      R"("otherData":{"wall_anchor_us":1760000000123456}})");
  const double late_ts =
      late_doc.find("traceEvents")->array()[0].find("ts")->number();
  const double early_ts =
      early_doc.find("traceEvents")->array()[0].find("ts")->number();

  const JsonValue root = parse_json(merge_trace_dumps(
      {{"late.json", &late_doc}, {"early.json", &early_doc}}));
  EXPECT_EQ(root.find("otherData")->find("wall_anchor_us")->number(), early);
  std::map<long long, double> rebased;
  for (const auto& e : root.find("traceEvents")->array()) {
    if (e.find("ph")->str() != "X") continue;
    rebased[static_cast<long long>(e.find("pid")->number())] =
        e.find("ts")->number();
  }
  ASSERT_EQ(rebased.size(), 2u);
  EXPECT_EQ(rebased[1], late_ts + 3.0);  // anchor 3 us after the earliest
  EXPECT_EQ(rebased[2], early_ts);
}

TEST(TraceMerge, SingleDumpIsRebasedAndLabelled) {
  const JsonValue only = parse_json(dump_json(2e12, 42.0, "solo"));
  TraceMergeStats stats;
  const JsonValue root =
      parse_json(merge_trace_dumps({{"/tmp/run/solo.json", &only}}, &stats));
  EXPECT_EQ(stats.events, 1u);
  EXPECT_EQ(root.find("otherData")->find("merged_from")->number(), 1.0);
  // Labels are reduced to file names for the Perfetto process list.
  bool labelled = false;
  for (const auto& e : root.find("traceEvents")->array()) {
    if (e.find("name")->str() == "process_name") {
      labelled = true;
      EXPECT_EQ(e.find("args")->find("name")->str(), "solo.json");
    }
  }
  EXPECT_TRUE(labelled);
}

TEST(TraceMerge, StructuralProblemsNameTheOffendingInput) {
  const JsonValue good = parse_json(dump_json(2e12, 1.0, "ok"));
  const JsonValue no_anchor =
      parse_json("{\"traceEvents\":[],\"otherData\":{}}");
  const JsonValue no_events = parse_json("{\"otherData\":{}}");

  const auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };

  std::string msg = message_of([&] {
    merge_trace_dumps({{"good.json", &good}, {"stale.json", &no_anchor}});
  });
  EXPECT_NE(msg.find("stale.json"), std::string::npos) << msg;
  EXPECT_NE(msg.find("wall_anchor_us"), std::string::npos) << msg;

  msg = message_of([&] { merge_trace_dumps({{"empty.json", &no_events}}); });
  EXPECT_NE(msg.find("empty.json"), std::string::npos) << msg;

  EXPECT_THROW(merge_trace_dumps({}), std::runtime_error);
}

}  // namespace
}  // namespace swsim::obs
