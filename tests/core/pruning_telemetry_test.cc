// Oracle test for the per-query pruning telemetry (the prune split that
// ExplainFromStats derives from a query's ledger): on a tree whose root is a
// single box leaf (sub-trail length 1, few windows), every indexed window is
// individually penetration-tested, so the telemetry must account for each
// one exactly: ep_prunes + bs_prunes + exact_prunes + leaf_candidates ==
// entries_tested == num_indexed_windows. Disabling the bounding-spheres
// heuristic must shift prunes between the bs and ep buckets without changing
// the total or the surviving candidate set (the sphere tests are
// conservative short-circuits of the same exact slab decision - the paper's
// Section 7 observation).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "tsss/core/engine.h"
#include "tsss/geom/penetration.h"
#include "tsss/obs/explain.h"
#include "tsss/seq/stock_generator.h"

namespace tsss::core {
namespace {

std::unique_ptr<SearchEngine> MakeBoxLeafEngine() {
  EngineConfig config;
  config.window = 16;
  config.reduced_dim = 4;
  config.subtrail_len = 1;  // one box per window: every window gets its own test
  config.tree.max_entries = 32;
  // The telemetry under test is the index walk's, so keep the planner off it.
  config.range_plan = RangePlan::kIndex;
  auto engine = SearchEngine::Create(config);
  EXPECT_TRUE(engine.ok());
  seq::StockMarketConfig market;
  market.num_companies = 1;
  market.values_per_company = config.window + 19;  // 20 windows, one leaf node
  market.seed = 11;
  for (const seq::TimeSeries& series : seq::GenerateStockMarket(market)) {
    EXPECT_TRUE((*engine)->AddSeries(series.name, series.values).ok());
  }
  return std::move(engine).value();
}

std::vector<geom::Vec> ScaleShiftedQueries(const SearchEngine& engine) {
  std::vector<geom::Vec> queries;
  for (std::size_t i = 0; i < 5; ++i) {
    auto window = engine.ReadWindow(i * 4);
    EXPECT_TRUE(window.ok());
    geom::Vec q = *window;
    for (double& x : q) x = 1.5 * x + 2.0;
    queries.push_back(std::move(q));
  }
  return queries;
}

/// The prune split and funnel derived from one range query's ledger.
obs::ExplainReport Derive(const SearchEngine& engine, double eps,
                          const QueryStats& stats) {
  auto report = engine.ExplainFromStats("range", eps, 0, 0, stats);
  EXPECT_TRUE(report.ok());
  return report.ok() ? *report : obs::ExplainReport{};
}

TEST(PruningTelemetryOracleTest, EveryWindowIsAccountedFor) {
  auto engine = MakeBoxLeafEngine();
  const std::uint64_t windows = engine->num_indexed_windows();
  ASSERT_EQ(windows, 20u);

  for (const geom::PruneStrategy strategy :
       {geom::PruneStrategy::kEepOnly, geom::PruneStrategy::kBoundingSpheres,
        geom::PruneStrategy::kExactDistance}) {
    engine->set_prune_strategy(strategy);
    for (const auto& query : ScaleShiftedQueries(*engine)) {
      for (const double eps : {0.0, 0.1, 1.0, 10.0}) {
        QueryStats stats;
        auto matches = engine->RangeQuery(query, eps, TransformCost{}, &stats);
        ASSERT_TRUE(matches.ok());
        const obs::ExplainReport t = Derive(*engine, eps, stats);

        // The root is the only node and it is a leaf (level 0).
        EXPECT_EQ(t.nodes_visited, 1u);
        EXPECT_EQ(stats.nodes_per_level[0], 1u);

        // Every window was individually penetration-tested...
        ASSERT_EQ(t.entries_tested, windows);
        // ...and every test ended in exactly one disposition.
        EXPECT_EQ(t.ep_prunes + t.bs_prunes + t.exact_prunes +
                      t.leaf_candidates,
                  windows)
            << "strategy " << static_cast<int>(strategy) << " eps " << eps;

        // Disposition buckets match the strategy that ran.
        if (strategy == geom::PruneStrategy::kEepOnly) {
          EXPECT_EQ(t.bs_prunes, 0u);
          EXPECT_EQ(t.exact_prunes, 0u);
        }
        if (strategy == geom::PruneStrategy::kBoundingSpheres) {
          EXPECT_EQ(t.exact_prunes, 0u);
        }

        // Accepted box entries each got one exact line-box distance.
        EXPECT_EQ(t.mbr_distance_evals, t.leaf_candidates);
      }
    }
  }
}

TEST(PruningTelemetryOracleTest, SphereAblationShiftsPrunesNotTotals) {
  auto engine = MakeBoxLeafEngine();
  const auto queries = ScaleShiftedQueries(*engine);
  const double eps = 0.5;

  for (std::size_t i = 0; i < queries.size(); ++i) {
    engine->set_prune_strategy(geom::PruneStrategy::kEepOnly);
    QueryStats eep;
    auto eep_matches = engine->RangeQuery(queries[i], eps, TransformCost{}, &eep);
    ASSERT_TRUE(eep_matches.ok());

    engine->set_prune_strategy(geom::PruneStrategy::kBoundingSpheres);
    QueryStats spheres;
    auto sphere_matches =
        engine->RangeQuery(queries[i], eps, TransformCost{}, &spheres);
    ASSERT_TRUE(sphere_matches.ok());

    // The sphere tests only short-circuit the exact slab decision, so the
    // surviving candidate set - and hence the answer - is identical...
    EXPECT_EQ(spheres.leaf_candidates, eep.leaf_candidates);
    EXPECT_EQ(sphere_matches->size(), eep_matches->size());
    // ...and so is the total prune count; the spheres merely relabel some
    // EP prunes as outer-sphere rejections (the paper predicts few, because
    // R-tree boxes are long and thin and the outer sphere over-covers).
    const obs::ExplainReport eep_split = Derive(*engine, eps, eep);
    const obs::ExplainReport sphere_split = Derive(*engine, eps, spheres);
    EXPECT_EQ(sphere_split.ep_prunes + sphere_split.bs_prunes,
              eep_split.ep_prunes);
    EXPECT_EQ(eep_split.bs_prunes, 0u);
  }
}

TEST(PruningTelemetryOracleTest, QueryWithoutStatsOrTraceIsExplainable) {
  auto engine = MakeBoxLeafEngine();
  const auto queries = ScaleShiftedQueries(*engine);
  // No stats pointer and no installed trace: the ledger is always on, so the
  // query is still snapshotted and its waterfall accounts for every window.
  auto matches = engine->RangeQuery(queries[0], 1.0);
  ASSERT_TRUE(matches.ok());
  auto report = engine->ExplainLast();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(obs::explain_accounted(*report));
  EXPECT_EQ(report->entries_tested, engine->num_indexed_windows());
  EXPECT_EQ(report->matches, matches->size());
  EXPECT_EQ(report->candidates, report->postfiltered + report->matches);
}

TEST(PruningTelemetryOracleTest, PostFilterCountMatchesCandidatesMinusMatches) {
  auto engine = MakeBoxLeafEngine();
  const auto queries = ScaleShiftedQueries(*engine);
  for (const auto& query : queries) {
    QueryStats stats;
    auto matches = engine->RangeQuery(query, 0.5, TransformCost{}, &stats);
    ASSERT_TRUE(matches.ok());
    EXPECT_EQ(Derive(*engine, 0.5, stats).postfiltered,
              stats.candidates - stats.matches);
    EXPECT_EQ(stats.matches, matches->size());
  }
}

}  // namespace
}  // namespace tsss::core
