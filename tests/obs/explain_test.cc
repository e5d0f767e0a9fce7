// Golden-output tests for the explain renderers: a hand-filled report whose
// prune waterfall sums exactly, rendered to the documented JSON schema
// byte-for-byte and to the human table line-by-line.

#include "tsss/obs/explain.h"

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "tsss/obs/trace.h"

namespace tsss::obs {
namespace {

/// A fully-populated report over a 3-level tree. Waterfall identity:
/// 40 tested == 10 EP + 5 BS + 0 exact + 5 descents + 20 accepted.
ExplainReport GoldenReport() {
  ExplainReport r;
  r.kind = "range";
  r.eps = 0.5;
  r.k = 0;
  r.prune_strategy = "spheres";
  r.elapsed_us = 1234;

  r.plan = "index";
  r.plan_leaf_pages = 4;
  r.plan_index_cost = 416;
  r.plan_scan_cost = 64;
  r.windows_scanned = 0;

  r.tree_height = 3;
  r.tree_nodes = 13;
  r.nodes_visited = 6;
  r.levels = {{0, 4, 9}, {1, 1, 3}, {2, 1, 1}};

  r.entries_tested = 40;
  r.ep_prunes = 10;
  r.bs_prunes = 5;
  r.exact_prunes = 0;
  r.descents = 5;
  r.accepted_leaf_entries = 20;
  r.mbr_distance_evals = 20;

  r.indexed_windows = 64;
  r.leaf_candidates = 20;
  r.candidates = 24;
  r.postfiltered = 20;
  r.matches = 4;

  r.index_page_reads = 6;
  r.index_page_hits = 2;
  r.index_page_misses = 4;
  r.data_page_reads = 3;
  r.seq_scan_pages = 100;

  r.cost.cpu_us = 700;
  r.cost.pages_hit = 2;
  r.cost.pages_miss = 4;
  r.cost.data_pages = 3;
  r.cost.bytes_touched = 36864;
  r.cost.candidates_verified = 24;

  r.phases = {{"range_query", 0, 1200}, {"index_walk", 1, 800}};
  return r;
}

TEST(ExplainRenderTest, AccountedChecksTheWaterfallIdentity) {
  ExplainReport r = GoldenReport();
  EXPECT_TRUE(explain_accounted(r));
  r.ep_prunes += 1;
  EXPECT_FALSE(explain_accounted(r));
  // An empty report accounts trivially (0 == 0).
  EXPECT_TRUE(explain_accounted(ExplainReport{}));
}

TEST(ExplainRenderTest, JsonGolden) {
  const std::string json = RenderExplainJson(GoldenReport());
  const std::string expected =
      "{\"schema_version\":1,\"report\":\"explain\","
      "\"query\":{\"kind\":\"range\",\"eps\":0.5,\"k\":0,"
      "\"prune\":\"spheres\",\"elapsed_us\":1234},"
      "\"plan\":{\"chosen\":\"index\",\"leaf_pages\":4,\"index_cost\":416,"
      "\"scan_cost\":64,\"windows_scanned\":0},"
      "\"totals\":{\"tree_height\":3,\"tree_nodes\":13,\"nodes_visited\":6,"
      "\"entries_tested\":40,\"ep_prunes\":10,\"bs_prunes\":5,"
      "\"exact_prunes\":0,\"descents\":5,\"accepted_leaf_entries\":20,"
      "\"mbr_distance_evals\":20,\"indexed_windows\":64,"
      "\"leaf_candidates\":20,\"candidates\":24,\"postfiltered\":20,"
      "\"matches\":4},"
      "\"levels\":[{\"level\":0,\"visited\":4,\"total\":9},"
      "{\"level\":1,\"visited\":1,\"total\":3},"
      "{\"level\":2,\"visited\":1,\"total\":1}],"
      "\"io\":{\"index_page_reads\":6,\"index_page_hits\":2,"
      "\"index_page_misses\":4,\"data_page_reads\":3},"
      "\"baseline\":{\"seq_scan_pages\":100,\"query_pages\":9},"
      "\"cost\":{\"cpu_us\":700,\"pages_hit\":2,\"pages_miss\":4,"
      "\"data_pages\":3,\"bytes_touched\":36864,"
      "\"candidates_verified\":24},"
      "\"phases\":[{\"name\":\"range_query\",\"depth\":0,\"dur_us\":1200},"
      "{\"name\":\"index_walk\",\"depth\":1,\"dur_us\":800}]}\n";
  EXPECT_EQ(json, expected);
}

TEST(ExplainRenderTest, TextGolden) {
  const std::string text = RenderExplainText(GoldenReport());
  // Header and elapsed line.
  EXPECT_NE(text.find("EXPLAIN range query (eps=0.5, prune=spheres)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("elapsed: 1234 us"), std::string::npos) << text;
  // The plan section names the path and both estimates.
  EXPECT_NE(text.find("plan: index\n"), std::string::npos) << text;
  char plan_row[96];
  std::snprintf(plan_row, sizeof(plan_row), "  %-26s %10llu\n",
                "index estimate (windows)", 416ull);
  EXPECT_NE(text.find(plan_row), std::string::npos) << text;
  std::snprintf(plan_row, sizeof(plan_row), "  %-26s %10llu\n",
                "scan estimate (windows)", 64ull);
  EXPECT_NE(text.find(plan_row), std::string::npos) << text;
  // Index walk rendered root-first with level tags.
  const std::size_t root_pos = text.find("level 2 (root)");
  const std::size_t leaves_pos = text.find("level 0 (leaves)");
  ASSERT_NE(root_pos, std::string::npos) << text;
  ASSERT_NE(leaves_pos, std::string::npos) << text;
  EXPECT_LT(root_pos, leaves_pos);
  // Waterfall rows carry percentages of the tested universe; build the
  // expected rows with the renderer's own column formats so the goldens
  // don't depend on hand-counted spaces.
  auto row = [](const char* label, std::uint64_t value, double pct) {
    char buf[112];
    std::snprintf(buf, sizeof(buf), "  %-26s %10llu  %6.1f%%", label,
                  static_cast<unsigned long long>(value), pct);
    return std::string(buf);
  };
  EXPECT_NE(text.find(row("entries tested", 40, 100.0)), std::string::npos)
      << text;
  EXPECT_NE(text.find(row("EP pruned", 10, 25.0)), std::string::npos) << text;
  EXPECT_NE(text.find(row("BS pruned", 5, 12.5)), std::string::npos) << text;
  EXPECT_NE(text.find(row("accepted (leaf entries)", 20, 50.0)),
            std::string::npos)
      << text;
  // I/O split and scan attribution (9 pages vs a 100-page scan).
  char io_row[112];
  std::snprintf(io_row, sizeof(io_row),
                "  %-26s %10llu  (hits %llu, misses %llu)",
                "index page reads", 6ull, 2ull, 4ull);
  EXPECT_NE(text.find(io_row), std::string::npos) << text;
  EXPECT_NE(text.find("(11.11x vs scan)"), std::string::npos) << text;
  // Cost attribution section.
  char cost_row[112];
  std::snprintf(cost_row, sizeof(cost_row),
                "  %-26s %10llu  (hit %llu, miss %llu)", "index pages", 6ull,
                2ull, 4ull);
  EXPECT_NE(text.find("\ncost\n"), std::string::npos) << text;
  EXPECT_NE(text.find(cost_row), std::string::npos) << text;
  char cpu_row[96];
  std::snprintf(cpu_row, sizeof(cpu_row), "  %-26s %10llu\n",
                "thread CPU (us)", 700ull);
  EXPECT_NE(text.find(cpu_row), std::string::npos) << text;
  // Phases are indented by depth.
  EXPECT_NE(text.find("\n  range_query"), std::string::npos) << text;
  EXPECT_NE(text.find("\n    index_walk"), std::string::npos) << text;
}

TEST(ExplainRenderTest, TextHandlesEmptyUniverse) {
  ExplainReport r;
  r.kind = "knn";
  r.k = 5;
  r.prune_strategy = "eep";
  const std::string text = RenderExplainText(r);
  // A zero-entry universe renders "-" percentages, not NaNs.
  EXPECT_NE(text.find("EXPLAIN knn query (eps=0, k=5, prune=eep)"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_NE(text.find("-"), std::string::npos);
  // k-NN has no range plan, so the plan section is left out.
  EXPECT_EQ(text.find("plan:"), std::string::npos) << text;
}

TEST(ExplainRenderTest, FillExplainPhasesCopiesTraceSpans) {
  QueryTrace trace;
  const std::size_t outer = trace.OpenSpan("outer");
  const std::size_t inner = trace.OpenSpan("inner");
  trace.CloseSpan(inner);
  trace.CloseSpan(outer);

  ExplainReport r;
  FillExplainPhases(trace, &r);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_EQ(r.phases[0].name, "outer");
  EXPECT_EQ(r.phases[0].depth, 0);
  EXPECT_EQ(r.phases[1].name, "inner");
  EXPECT_EQ(r.phases[1].depth, 1);

  // Refilling replaces, not appends.
  FillExplainPhases(trace, &r);
  EXPECT_EQ(r.phases.size(), 2u);
}

TEST(ExplainRenderTest, JsonEscapesStrings) {
  ExplainReport r;
  r.kind = "ra\"nge";
  r.prune_strategy = "ee\\p";
  const std::string json = RenderExplainJson(r);
  EXPECT_NE(json.find("\"kind\":\"ra\\\"nge\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"prune\":\"ee\\\\p\""), std::string::npos) << json;
}

}  // namespace
}  // namespace tsss::obs
