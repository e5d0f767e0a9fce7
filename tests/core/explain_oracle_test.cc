// Oracle tests for SearchEngine::ExplainLast(): the explain report must be a
// faithful view of the query's own ledger — on a single box-leaf root the
// ISSUE identity EP + BS + exact + accepted == entries tested holds with no
// descents, and on a multi-level tree every visited non-root node costs
// exactly one descent (descents == nodes_visited - 1). The JSON rendering
// must carry the same totals byte-for-byte.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tsss/core/engine.h"
#include "tsss/geom/penetration.h"
#include "tsss/obs/explain.h"
#include "tsss/seq/stock_generator.h"

namespace tsss::core {
namespace {

/// Box-leaf engine (sub-trail length 1): every window is an individually
/// penetration-tested box entry. `max_entries` shapes the tree: 32 keeps the
/// 20 windows in a single root leaf, 4 forces a multi-level tree on 64.
std::unique_ptr<SearchEngine> MakeBoxLeafEngine(std::size_t max_entries,
                                                std::size_t num_windows) {
  EngineConfig config;
  config.window = 16;
  config.reduced_dim = 4;
  config.subtrail_len = 1;
  config.tree.max_entries = max_entries;
  config.tree.leaf_max_entries = max_entries;
  // The identities below are about the index walk, so keep the planner off it.
  config.range_plan = RangePlan::kIndex;
  auto engine = SearchEngine::Create(config);
  EXPECT_TRUE(engine.ok());
  seq::StockMarketConfig market;
  market.num_companies = 1;
  market.values_per_company = config.window + num_windows - 1;
  market.seed = 11;
  for (const seq::TimeSeries& series : seq::GenerateStockMarket(market)) {
    EXPECT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
  }
  return std::move(engine).value();
}

geom::Vec ScaleShiftedQuery(const SearchEngine& engine, std::size_t window) {
  auto values = engine.ReadWindow(window);
  EXPECT_TRUE(values.ok());
  geom::Vec q = *values;
  for (double& x : q) x = 1.5 * x + 2.0;
  return q;
}

/// Asserts that the report's totals are the ledger's, field by field, and
/// that the derived prune and post-filter counts add up to the ledger's.
void ExpectReportMatchesTelemetry(const obs::ExplainReport& r,
                                  const QueryStats& stats) {
  EXPECT_EQ(r.nodes_visited, stats.nodes_visited());
  EXPECT_EQ(r.entries_tested, stats.penetration.tests);
  EXPECT_EQ(r.ep_prunes + r.bs_prunes + r.exact_prunes,
            stats.penetration.tests - stats.penetration.visits);
  EXPECT_EQ(r.bs_prunes, stats.penetration.outer_rejects);
  EXPECT_EQ(r.mbr_distance_evals, stats.mbr_distance_evals);
  EXPECT_EQ(r.leaf_candidates, stats.leaf_candidates);
  EXPECT_EQ(r.postfiltered, stats.candidates - stats.matches);
  EXPECT_EQ(r.candidates, stats.candidates);
  EXPECT_EQ(r.matches, stats.matches);
  EXPECT_EQ(r.index_page_reads, stats.index_page_reads);
  EXPECT_EQ(r.index_page_misses, stats.index_page_misses);
  EXPECT_EQ(r.data_page_reads, stats.data_page_reads);
}

TEST(ExplainOracleTest, NotFoundBeforeFirstQuery) {
  auto engine = MakeBoxLeafEngine(32, 20);
  auto report = engine->ExplainLast();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST(ExplainOracleTest, SingleLeafRootSatisfiesTheIssueIdentity) {
  auto engine = MakeBoxLeafEngine(32, 20);
  const std::uint64_t windows = engine->num_indexed_windows();
  ASSERT_EQ(windows, 20u);

  for (const geom::PruneStrategy strategy :
       {geom::PruneStrategy::kEepOnly, geom::PruneStrategy::kBoundingSpheres,
        geom::PruneStrategy::kExactDistance}) {
    engine->set_prune_strategy(strategy);
    for (const double eps : {0.0, 0.1, 1.0, 10.0}) {
      QueryStats stats;
      auto matches = engine->RangeQuery(ScaleShiftedQuery(*engine, 4), eps,
                                        TransformCost{}, &stats);
      ASSERT_TRUE(matches.ok());
      auto report = engine->ExplainLast();
      ASSERT_TRUE(report.ok());
      const obs::ExplainReport& r = *report;

      ExpectReportMatchesTelemetry(r, stats);
      EXPECT_TRUE(explain_accounted(r));

      // The root is the only node and a leaf: nothing to descend into, so
      // the identity collapses to the ISSUE's form:
      //   EP + BS + exact + accepted == entries tested.
      EXPECT_EQ(r.tree_height, 1u);
      EXPECT_EQ(r.descents, 0u);
      EXPECT_EQ(r.accepted_leaf_entries, r.leaf_candidates);
      EXPECT_EQ(r.ep_prunes + r.bs_prunes + r.exact_prunes +
                    r.accepted_leaf_entries,
                r.entries_tested);
      EXPECT_EQ(r.entries_tested, windows);
      EXPECT_EQ(r.indexed_windows, windows);
      ASSERT_EQ(r.levels.size(), 1u);
      EXPECT_EQ(r.levels[0].visited, 1u);
      EXPECT_EQ(r.levels[0].total, 1u);
      EXPECT_EQ(r.kind, "range");
      EXPECT_GT(r.seq_scan_pages, 0u);
    }
  }
}

TEST(ExplainOracleTest, MultiLevelTreeAccountsEveryDescent) {
  auto engine = MakeBoxLeafEngine(4, 64);
  ASSERT_EQ(engine->num_indexed_windows(), 64u);
  ASSERT_GE(engine->tree().height(), 3u);

  for (std::size_t i = 0; i < 8; ++i) {
    QueryStats stats;
    auto matches = engine->RangeQuery(ScaleShiftedQuery(*engine, i * 8), 0.5,
                                      TransformCost{}, &stats);
    ASSERT_TRUE(matches.ok());
    auto report = engine->ExplainLast();
    ASSERT_TRUE(report.ok());
    const obs::ExplainReport& r = *report;

    ExpectReportMatchesTelemetry(r, stats);
    EXPECT_TRUE(explain_accounted(r)) << "query " << i;

    // Box-leaf mode: every visited node except the root was entered through
    // exactly one accepted internal entry.
    EXPECT_EQ(r.descents, r.nodes_visited - 1) << "query " << i;
    EXPECT_EQ(r.accepted_leaf_entries, r.leaf_candidates) << "query " << i;

    // The per-level rows tile the totals.
    EXPECT_EQ(r.tree_height, engine->tree().height());
    ASSERT_EQ(r.levels.size(), r.tree_height);
    std::uint64_t visited_sum = 0;
    std::uint64_t total_sum = 0;
    for (const obs::ExplainLevelRow& level : r.levels) {
      visited_sum += level.visited;
      total_sum += level.total;
    }
    EXPECT_EQ(visited_sum, r.nodes_visited);
    EXPECT_EQ(total_sum, r.tree_nodes);
    // The root level has one node and was visited.
    EXPECT_EQ(r.levels.back().total, 1u);
    EXPECT_EQ(r.levels.back().visited, 1u);
  }
}

TEST(ExplainOracleTest, AbandonedWalkAndScanKeepTheIdentities) {
  auto engine = MakeBoxLeafEngine(4, 64);
  ASSERT_GE(engine->tree().height(), 3u);
  const geom::Vec query = ScaleShiftedQuery(*engine, 12);
  auto want = engine->RangeQuery(query, 2.0);
  ASSERT_TRUE(want.ok());

  // A wide eps admits most leaves, so the planner abandons the walk at
  // its leaf frontier and scans.
  engine->set_range_plan(RangePlan::kAuto);
  QueryStats stats;
  auto matches = engine->RangeQuery(query, 2.0, TransformCost{}, &stats);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), want->size());
  auto report = engine->ExplainLast();
  ASSERT_TRUE(report.ok());
  const obs::ExplainReport& r = *report;
  ASSERT_EQ(r.plan, "scan");
  EXPECT_EQ(stats.plan.scan, 1u);
  EXPECT_EQ(stats.plan.index, 0u);
  EXPECT_LT(r.plan_scan_cost, r.plan_index_cost);
  ExpectReportMatchesTelemetry(r, stats);

  // Only the internal levels were tested: every accept is a descent, the
  // last level's descents lead to leaves that were never loaded.
  EXPECT_TRUE(explain_accounted(r));
  EXPECT_EQ(r.levels[0].visited, 0u);
  EXPECT_EQ(r.accepted_leaf_entries, 0u);
  EXPECT_EQ(r.descents, r.nodes_visited - 1 + r.plan_leaf_pages);

  // The scan estimated every window, read every data page once, and its
  // funnel adds up.
  EXPECT_EQ(r.windows_scanned, engine->num_indexed_windows());
  EXPECT_EQ(r.plan_scan_cost, engine->num_indexed_windows());
  EXPECT_EQ(r.data_page_reads, r.seq_scan_pages);
  EXPECT_EQ(r.candidates, r.postfiltered + r.matches);
  EXPECT_GE(r.candidates, r.matches);
  EXPECT_LE(r.candidates, r.windows_scanned);

  const std::string json = obs::RenderExplainJson(r);
  EXPECT_NE(json.find("\"chosen\":\"scan\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"windows_scanned\":64"), std::string::npos) << json;
}

TEST(ExplainOracleTest, JsonTotalsMatchTelemetryExactly) {
  auto engine = MakeBoxLeafEngine(4, 64);
  QueryStats stats;
  auto matches = engine->RangeQuery(ScaleShiftedQuery(*engine, 12), 0.5,
                                    TransformCost{}, &stats);
  ASSERT_TRUE(matches.ok());
  auto report = engine->ExplainLast();
  ASSERT_TRUE(report.ok());
  const std::string json = obs::RenderExplainJson(*report);

  const obs::ExplainReport& r = *report;
  auto expect_field = [&json](const char* key, std::uint64_t value) {
    const std::string needle =
        std::string("\"") + key + "\":" + std::to_string(value);
    EXPECT_NE(json.find(needle), std::string::npos)
        << "missing " << needle << " in " << json;
  };
  expect_field("nodes_visited", stats.nodes_visited());
  expect_field("entries_tested", stats.penetration.tests);
  expect_field("ep_prunes", r.ep_prunes);
  expect_field("bs_prunes", r.bs_prunes);
  expect_field("exact_prunes", r.exact_prunes);
  expect_field("mbr_distance_evals", stats.mbr_distance_evals);
  expect_field("leaf_candidates", stats.leaf_candidates);
  expect_field("postfiltered", stats.candidates - stats.matches);
  expect_field("candidates", stats.candidates);
  expect_field("matches", stats.matches);
  expect_field("seq_scan_pages",
               engine->dataset().store().TotalPages());
}

TEST(ExplainOracleTest, KnnWaterfallIsTriviallyAccounted) {
  auto engine = MakeBoxLeafEngine(32, 20);
  QueryStats stats;
  auto matches =
      engine->Knn(ScaleShiftedQuery(*engine, 0), 5, TransformCost{}, &stats);
  ASSERT_TRUE(matches.ok());
  auto report = engine->ExplainLast();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->kind, "knn");
  EXPECT_EQ(report->k, 5u);
  // The best-first k-NN walk collects no penetration waterfall; the report
  // must say so consistently rather than invent numbers.
  EXPECT_EQ(report->entries_tested, 0u);
  EXPECT_EQ(report->descents, 0u);
  EXPECT_EQ(report->accepted_leaf_entries, 0u);
  EXPECT_TRUE(explain_accounted(*report));
  EXPECT_EQ(report->matches, 5u);
}

TEST(ExplainOracleTest, LastQueryWins) {
  auto engine = MakeBoxLeafEngine(32, 20);
  QueryStats stats;
  ASSERT_TRUE(engine
                  ->RangeQuery(ScaleShiftedQuery(*engine, 0), 0.5,
                               TransformCost{}, &stats)
                  .ok());
  ASSERT_TRUE(
      engine->Knn(ScaleShiftedQuery(*engine, 4), 3, TransformCost{}, &stats)
          .ok());
  auto report = engine->ExplainLast();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->kind, "knn");

  ASSERT_TRUE(engine
                  ->RangeQuery(ScaleShiftedQuery(*engine, 8), 0.5,
                               TransformCost{}, &stats)
                  .ok());
  report = engine->ExplainLast();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->kind, "range");
  EXPECT_DOUBLE_EQ(report->eps, 0.5);
}

}  // namespace
}  // namespace tsss::core
