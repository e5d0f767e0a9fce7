#include "tsss/obs/trace.h"

#include <string>

#include <gtest/gtest.h>

#include "tsss/core/engine.h"
#include "tsss/obs/query_ledger.h"

namespace tsss::obs {
namespace {

TEST(ObsTraceTest, NoTraceInstalledByDefault) {
  EXPECT_EQ(CurrentQueryTrace(), nullptr);
  // Spans and annotations are harmless no-ops with tracing off.
  TraceSpan span("noop");
  span.Annotate("key", 1);
  span.Close();
}

TEST(ObsTraceTest, ScopedInstallAndNestedRestore) {
  QueryTrace outer;
  QueryTrace inner;
  EXPECT_EQ(CurrentQueryTrace(), nullptr);
  {
    ScopedQueryTrace install_outer(&outer);
    EXPECT_EQ(CurrentQueryTrace(), &outer);
    {
      ScopedQueryTrace install_inner(&inner);
      EXPECT_EQ(CurrentQueryTrace(), &inner);
    }
    EXPECT_EQ(CurrentQueryTrace(), &outer);
  }
  EXPECT_EQ(CurrentQueryTrace(), nullptr);
}

TEST(ObsTraceTest, SpansNestWithParentsAndDepths) {
  QueryTrace trace;
  {
    ScopedQueryTrace install(&trace);
    TraceSpan root("query");
    {
      TraceSpan child("filter");
      { TraceSpan grandchild("load_node"); }
    }
    TraceSpan sibling("verify");
  }

  const auto& events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  // Events are recorded in open order.
  EXPECT_EQ(events[0].name, "query");
  EXPECT_EQ(events[0].parent, TraceEvent::kNoParent);
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].name, "filter");
  EXPECT_EQ(events[1].parent, 0u);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "load_node");
  EXPECT_EQ(events[2].parent, 1u);
  EXPECT_EQ(events[2].depth, 2);
  EXPECT_EQ(events[3].name, "verify");
  EXPECT_EQ(events[3].parent, 0u);
  EXPECT_EQ(events[3].depth, 1);
  for (const TraceEvent& event : events) {
    EXPECT_TRUE(event.closed) << event.name;
  }
  // Start times never run backwards within the trace.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_us, events[i - 1].start_us);
  }
  // A child's duration fits inside its parent's.
  EXPECT_LE(events[1].start_us + events[1].dur_us,
            events[0].start_us + events[0].dur_us);
}

TEST(ObsTraceTest, EarlyCloseMakesDisjointPhases) {
  QueryTrace trace;
  {
    ScopedQueryTrace install(&trace);
    TraceSpan query("query");
    TraceSpan phase1("phase1");
    phase1.Close();
    TraceSpan phase2("phase2");  // sibling of phase1, not a child
    phase2.Close();
  }
  const auto& events = trace.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].name, "phase1");
  EXPECT_EQ(events[2].name, "phase2");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].depth, 1);
  EXPECT_EQ(events[2].parent, 0u);
  // Double close (explicit Close then destructor) left the durations alone.
  EXPECT_TRUE(events[1].closed);
  EXPECT_TRUE(events[2].closed);
}

TEST(ObsTraceTest, ClosingParentUnwindsOpenChildren) {
  QueryTrace trace;
  const std::size_t parent = trace.OpenSpan("parent");
  const std::size_t child = trace.OpenSpan("child");
  trace.CloseSpan(parent);  // child still open: unwound and closed too
  EXPECT_TRUE(trace.events()[child].closed);
  EXPECT_TRUE(trace.events()[parent].closed);
  // Closing again is a no-op.
  trace.CloseSpan(parent);
  trace.CloseSpan(999);  // out of range: ignored
}

TEST(ObsTraceTest, AnnotateAttachesArgs) {
  QueryTrace trace;
  {
    ScopedQueryTrace install(&trace);
    TraceSpan span("query");
    span.Annotate("candidates", 42);
    span.Annotate("matches", 7);
  }
  const auto& events = trace.events();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].first, "candidates");
  EXPECT_EQ(events[0].args[0].second, 42u);
  EXPECT_EQ(events[0].args[1].first, "matches");
  EXPECT_EQ(events[0].args[1].second, 7u);
}

TEST(ObsTraceTest, ChromeJsonFormat) {
  QueryTrace trace;
  {
    ScopedQueryTrace install(&trace);
    TraceSpan span("range_query");
    span.Annotate("leaf_hits", 5);
    { TraceSpan inner("index \"filter\""); }  // name needing escaping
  }
  const std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"range_query\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"leaf_hits\":5}"), std::string::npos);
  EXPECT_NE(json.find("index \\\"filter\\\""), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

TEST(ObsTraceTest, StillOpenSpansGetDurationAsOfNow) {
  QueryTrace trace;
  trace.OpenSpan("open_forever");
  const std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("\"name\":\"open_forever\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST(ObsTelemetryTest, TicksAreNoopsWhenUninstalled) {
  EXPECT_EQ(CurrentQueryLedger(), nullptr);
  TickIndexPageRead(/*miss=*/true);
  TickDataPageReads(2);
  TickNodeVisit(0);
  TickMbrDistanceEvals(3);
  TickLeafCandidates();
  EXPECT_EQ(CurrentQueryLedger(), nullptr);
}

TEST(ObsTelemetryTest, ScopedInstallCollectsTicks) {
  QueryLedger ledger;
  {
    ScopedQueryLedger install(&ledger);
    ASSERT_EQ(CurrentQueryLedger(), &ledger);
    TickIndexPageRead(/*miss=*/false);
    TickIndexPageRead(/*miss=*/true);
    TickDataPageReads(3);
    TickNodeVisit(2);
    TickNodeVisit(0);
    TickMbrDistanceEvals(4);
    TickLeafCandidates(2);
    {
      // Scopes nest: the inner ledger wins, the outer one is restored.
      QueryLedger inner;
      ScopedQueryLedger install_inner(&inner);
      TickLeafCandidates();
      EXPECT_EQ(inner.leaf_candidates, 1u);
    }
    ASSERT_EQ(CurrentQueryLedger(), &ledger);
  }
  EXPECT_EQ(CurrentQueryLedger(), nullptr);
  EXPECT_EQ(ledger.index_page_reads, 2u);
  EXPECT_EQ(ledger.index_page_misses, 1u);
  EXPECT_EQ(ledger.data_page_reads, 3u);
  EXPECT_EQ(ledger.nodes_visited(), 2u);
  EXPECT_EQ(ledger.nodes_per_level[0], 1u);
  EXPECT_EQ(ledger.nodes_per_level[2], 1u);
  EXPECT_EQ(ledger.mbr_distance_evals, 4u);
  EXPECT_EQ(ledger.leaf_candidates, 2u);

  QueryLedger sum = ledger;
  sum += ledger;
  EXPECT_EQ(sum.index_page_reads, 4u);
  EXPECT_EQ(sum.nodes_per_level[2], 2u);
  EXPECT_EQ(sum.leaf_candidates, 4u);
}

TEST(ObsTelemetryTest, DeepLevelsFoldIntoLastSlot) {
  QueryLedger ledger;
  ScopedQueryLedger install(&ledger);
  TickNodeVisit(QueryLedger::kMaxLevels + 5);
  EXPECT_EQ(ledger.nodes_per_level[QueryLedger::kMaxLevels - 1], 1u);
}

TEST(ObsTelemetryTest, AnnotateSpanAlwaysEmitsPruneCounters) {
  // ep_prunes/bs_prunes must appear in the trace even at zero: their absence
  // would be indistinguishable from uninstrumented code.
  QueryTrace trace;
  {
    ScopedQueryTrace install(&trace);
    TraceSpan span("query");
    core::AnnotateSpan(&span, core::QueryStats{});  // all zeros
  }
  const auto& args = trace.events()[0].args;
  bool saw_ep = false;
  bool saw_bs = false;
  for (const auto& [key, value] : args) {
    if (key == "ep_prunes") saw_ep = true;
    if (key == "bs_prunes") saw_bs = true;
  }
  EXPECT_TRUE(saw_ep);
  EXPECT_TRUE(saw_bs);
}

TEST(ObsTelemetryTest, AnnotateSpanEmitsNonZeroCounters) {
  QueryTrace trace;
  {
    ScopedQueryTrace install(&trace);
    TraceSpan span("query");
    core::QueryStats stats;
    stats.nodes_per_level[0] = 2;
    stats.nodes_per_level[1] = 1;
    stats.leaf_candidates = 9;
    core::AnnotateSpan(&span, stats);
  }
  const auto& args = trace.events()[0].args;
  auto find = [&args](const std::string& key) -> const std::uint64_t* {
    for (const auto& [k, v] : args) {
      if (k == key) return &v;
    }
    return nullptr;
  };
  ASSERT_NE(find("nodes_visited"), nullptr);
  EXPECT_EQ(*find("nodes_visited"), 3u);
  ASSERT_NE(find("nodes_level_0"), nullptr);
  EXPECT_EQ(*find("nodes_level_0"), 2u);
  ASSERT_NE(find("nodes_level_1"), nullptr);
  ASSERT_NE(find("leaf_candidates"), nullptr);
  EXPECT_EQ(*find("leaf_candidates"), 9u);
  EXPECT_EQ(find("nodes_level_2"), nullptr);  // zero level stays out
}

}  // namespace
}  // namespace tsss::obs
