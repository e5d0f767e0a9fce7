// Oracle coverage for the range planner: every RangePlan (scan, index and
// the per-query choice between them) must return exactly what the paper's
// sequential scan (core::SequentialScanner) returns - the same windows in
// the same order, with bit-identical distances and transforms - at every
// eps of bench::EpsSweep, on corpora built to break a sliding-sum scan.

#include "tsss/core/fast_scan.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "tsss/common/rng.h"
#include "tsss/core/engine.h"
#include "tsss/core/seq_scan.h"
#include "tsss/seq/stock_generator.h"
#include "tsss/seq/window.h"
#include "tsss/shard/sharded_engine.h"

namespace tsss::core {
namespace {

using geom::Vec;

constexpr RangePlan kPlans[] = {RangePlan::kScan, RangePlan::kIndex,
                                RangePlan::kAuto};

const char* PlanName(RangePlan plan) {
  switch (plan) {
    case RangePlan::kAuto:
      return "auto";
    case RangePlan::kIndex:
      return "index";
    case RangePlan::kScan:
      return "scan";
  }
  return "?";
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Answers equal to the oracle's, element by element and bit for bit.
void ExpectBitIdentical(const std::vector<Match>& got,
                        const std::vector<Match>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].record, want[i].record) << where << " #" << i;
    EXPECT_EQ(got[i].series, want[i].series) << where << " #" << i;
    EXPECT_EQ(got[i].offset, want[i].offset) << where << " #" << i;
    EXPECT_TRUE(SameBits(got[i].distance, want[i].distance))
        << where << " #" << i << ": " << got[i].distance << " vs "
        << want[i].distance;
    EXPECT_TRUE(SameBits(got[i].transform.scale, want[i].transform.scale))
        << where << " #" << i;
    EXPECT_TRUE(SameBits(got[i].transform.offset, want[i].transform.offset))
        << where << " #" << i;
  }
}

EngineConfig SmallConfig(std::size_t window = 16) {
  EngineConfig config;
  config.window = window;
  config.reduced_dim = 4;
  config.tree.max_entries = 8;
  // Small leaves make a deep enough tree that the planner keeps the index
  // at small eps even on these small corpora.
  config.tree.leaf_max_entries = 8;
  config.buffer_pool_pages = 256;
  config.cold_cache_per_query = false;
  return config;
}

std::vector<seq::TimeSeries> Market(std::size_t companies, std::size_t length,
                                    std::uint64_t seed = 31) {
  seq::StockMarketConfig config;
  config.num_companies = companies;
  config.values_per_company = length;
  config.seed = seed;
  return seq::GenerateStockMarket(config);
}

/// Runs every query at every eps under every plan and checks the answers
/// against the oracle. Returns how many kAuto queries took the scan.
std::uint64_t ExpectPlansMatchOracle(SearchEngine* engine,
                                     const std::vector<Vec>& queries,
                                     const TransformCost& cost = {}) {
  const SequentialScanner oracle(&engine->dataset(), engine->config().window,
                                 engine->config().stride);
  std::uint64_t auto_scans = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const double eps : bench::EpsSweep()) {
      auto want = oracle.RangeQuery(queries[q], eps, cost);
      EXPECT_TRUE(want.ok());
      if (!want.ok()) continue;
      for (const RangePlan plan : kPlans) {
        engine->set_range_plan(plan);
        QueryStats stats;
        auto got = engine->RangeQuery(queries[q], eps, cost, &stats);
        const std::string where = std::string(PlanName(plan)) + " query " +
                                  std::to_string(q) + " eps " +
                                  std::to_string(eps);
        if (!got.ok()) {
          ADD_FAILURE() << where << ": " << got.status().ToString();
          continue;
        }
        ExpectBitIdentical(*got, *want, where);
        EXPECT_EQ(stats.plan.index + stats.plan.scan, 1u) << where;
        EXPECT_GE(stats.candidates, stats.matches) << where;
        if (stats.plan.scan == 1) {
          EXPECT_EQ(stats.windows_scanned, engine->num_indexed_windows())
              << where;
          EXPECT_EQ(stats.data_page_reads,
                    engine->dataset().store().TotalPages())
              << where;
        }
        if (plan == RangePlan::kScan) {
          EXPECT_EQ(stats.plan.scan, 1u) << where;
        } else if (plan == RangePlan::kIndex) {
          EXPECT_EQ(stats.plan.index, 1u) << where;
        } else {
          auto_scans += stats.plan.scan;
        }
      }
    }
  }
  return auto_scans;
}

/// bench::MakeQueries-style queries (scale-shifted data windows with 1%
/// noise) plus one exact scale-shift copy of a window.
std::vector<Vec> Queries(const std::vector<seq::TimeSeries>& corpus,
                         std::size_t window, std::size_t count) {
  std::vector<Vec> queries = bench::MakeQueries(corpus, count, window, 17);
  const std::vector<double>& values = corpus.front().values;
  Vec exact(values.begin() + 3, values.begin() + 3 + static_cast<long>(window));
  for (double& x : exact) x = 2.5 * x - 40.0;
  queries.push_back(exact);
  return queries;
}

TEST(FastScanOracleTest, AllPlansMatchTheScannerAtEveryEps) {
  const auto corpus = Market(12, 220);
  auto engine = SearchEngine::Create(SmallConfig());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BulkBuild(corpus).ok());
  const std::uint64_t scans =
      ExpectPlansMatchOracle(engine->get(), Queries(corpus, 16, 6));
  // The sweep is wide enough that the planner takes both paths.
  EXPECT_GT(scans, 0u);
  EXPECT_LT(scans, 7u * bench::EpsSweep().size());
}

TEST(FastScanOracleTest, AdversarialCorpus) {
  const std::size_t n = 16;
  std::vector<seq::TimeSeries> corpus;
  Rng rng(5);
  // Huge offsets: a random walk around 1e9, and one around -1e9.
  for (const double base : {1e9, -1e9}) {
    seq::TimeSeries s;
    s.name = "offset";
    double x = base;
    for (int i = 0; i < 120; ++i) {
      x += rng.Uniform(-1.0, 1.0);
      s.values.push_back(x);
    }
    corpus.push_back(s);
  }
  // Steep ramps, one with a kink.
  seq::TimeSeries ramp{"ramp", {}};
  for (int i = 0; i < 120; ++i) ramp.values.push_back(1e4 * i);
  corpus.push_back(ramp);
  seq::TimeSeries kink{"kink", {}};
  for (int i = 0; i < 120; ++i) kink.values.push_back(i < 60 ? 3e3 * i : 1.8e5 - 5e2 * i);
  corpus.push_back(kink);
  // Constant windows: flat stretches between bursts.
  seq::TimeSeries flat{"flat", {}};
  for (int i = 0; i < 120; ++i) {
    flat.values.push_back((i / 30) % 2 == 0 ? 42.0 : 42.0 + rng.Uniform(-3, 3));
  }
  corpus.push_back(flat);
  // A plain market series to plant the query in.
  const auto market = Market(1, 120, 77);
  corpus.push_back(market.front());
  // Exact scale-shift copies of the planted window.
  const Vec planted(market.front().values.begin() + 20,
                    market.front().values.begin() + 20 + n);
  for (const auto& [a, b] : {std::pair{3.0, 1e6}, std::pair{-0.25, 7.0},
                             std::pair{1e-3, -1e9}}) {
    seq::TimeSeries copy{"copy", {}};
    for (int i = 0; i < 10; ++i) copy.values.push_back(rng.Uniform(0, 100));
    for (const double x : planted) copy.values.push_back(a * x + b);
    for (int i = 0; i < 10; ++i) copy.values.push_back(rng.Uniform(0, 100));
    corpus.push_back(copy);
  }

  auto engine = SearchEngine::Create(SmallConfig(n));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BulkBuild(corpus).ok());

  std::vector<Vec> queries;
  queries.push_back(planted);
  Vec offset_query = planted;
  for (double& x : offset_query) x += 1e9;
  queries.push_back(offset_query);
  queries.push_back(Vec(n, 5.0));  // constant query: ||T_se(q)|| = 0
  // A ramp query matches every ramp window with distance exactly 0, though
  // rounding leaves their reduced points a little off the query line: at
  // eps = 0 only the index filter's rounding slack keeps them.
  Vec ramp_query(n);
  for (std::size_t i = 0; i < n; ++i) ramp_query[i] = static_cast<double>(i);
  queries.push_back(ramp_query);
  ExpectPlansMatchOracle(engine->get(), queries);
  for (const RangePlan plan : kPlans) {
    (*engine)->set_range_plan(plan);
    auto exact = (*engine)->RangeQuery(ramp_query, 0.0);
    ASSERT_TRUE(exact.ok());
    EXPECT_GE(exact->size(), 100u) << PlanName(plan);
  }
}

// eps set to exactly the oracle's distance of a window puts that window on
// the filters' boundary: the scan's estimate may land on either side of
// eps^2 and the window's PLD on either side of eps, and only the scan's
// error band and the index filter's rounding slack keep it. The identity
// reducer makes the PLD equal the distance in exact arithmetic, so there
// the index filter sits on the boundary too.
class EpsOnAWindowsDistance
    : public ::testing::TestWithParam<reduce::ReducerKind> {};

TEST_P(EpsOnAWindowsDistance, EveryPlanKeepsTheBoundaryWindow) {
  auto corpus = Market(10, 200);
  for (std::size_t i = 0; i < 3; ++i) {
    for (double& x : corpus[i].values) x += 1e6 * static_cast<double>(i + 1);
  }
  EngineConfig config = SmallConfig();
  config.reducer = GetParam();
  if (GetParam() == reduce::ReducerKind::kIdentity) config.reduced_dim = 16;
  auto engine = SearchEngine::Create(config);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BulkBuild(corpus).ok());
  const SequentialScanner oracle(&(*engine)->dataset(), 16);
  for (const Vec& query : Queries(corpus, 16, 4)) {
    auto nearest = oracle.Knn(query, 40);
    ASSERT_TRUE(nearest.ok());
    for (const Match& m : *nearest) {
      auto want = oracle.RangeQuery(query, m.distance);
      ASSERT_TRUE(want.ok());
      for (const RangePlan plan : kPlans) {
        (*engine)->set_range_plan(plan);
        auto got = (*engine)->RangeQuery(query, m.distance);
        ASSERT_TRUE(got.ok());
        ExpectBitIdentical(*got, *want,
                           std::string(PlanName(plan)) +
                               " eps = distance of record " +
                               std::to_string(m.record));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FastScanOracleTest, EpsOnAWindowsDistance,
                         ::testing::Values(reduce::ReducerKind::kDft,
                                           reduce::ReducerKind::kIdentity));

TEST(FastScanOracleTest, StrideThree) {
  const auto corpus = Market(8, 200);
  EngineConfig config = SmallConfig();
  config.stride = 3;
  auto engine = SearchEngine::Create(config);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BulkBuild(corpus).ok());
  ExpectPlansMatchOracle(engine->get(), Queries(corpus, 16, 4));
}

TEST(FastScanOracleTest, SubTrailMode) {
  const auto corpus = Market(8, 200);
  EngineConfig config = SmallConfig();
  config.subtrail_len = 4;
  auto engine = SearchEngine::Create(config);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BulkBuild(corpus).ok());
  ExpectPlansMatchOracle(engine->get(), Queries(corpus, 16, 4));
}

TEST(FastScanOracleTest, AppendedSeries) {
  const auto corpus = Market(6, 150);
  auto engine = SearchEngine::Create(SmallConfig());
  ASSERT_TRUE(engine.ok());
  storage::SeriesId last = 0;
  for (const seq::TimeSeries& s : corpus) {
    auto id = (*engine)->AddSeries(s.name, s.values);
    ASSERT_TRUE(id.ok());
    last = *id;
  }
  const auto more = Market(1, 40, 99);
  ASSERT_TRUE((*engine)->Append(last, more.front().values).ok());
  ExpectPlansMatchOracle(engine->get(), Queries(corpus, 16, 4));
}

TEST(FastScanOracleTest, PositiveScaleCost) {
  const auto corpus = Market(8, 200);
  auto engine = SearchEngine::Create(SmallConfig());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BulkBuild(corpus).ok());
  std::vector<Vec> queries = Queries(corpus, 16, 4);
  Vec flipped = queries.front();
  for (double& x : flipped) x = -x;  // matches need a negative scale
  queries.push_back(flipped);
  ExpectPlansMatchOracle(engine->get(), queries, TransformCost::PositiveScale());
}

TEST(FastScanOracleTest, ShardedEngineMatchesTheScanner) {
  const auto corpus = Market(12, 220);
  auto single = SearchEngine::Create(SmallConfig());
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE((*single)->BulkBuild(corpus).ok());
  const SequentialScanner oracle(&(*single)->dataset(), 16);
  const std::vector<Vec> queries = Queries(corpus, 16, 4);
  for (const RangePlan plan : kPlans) {
    shard::ShardedEngineConfig config;
    config.engine = SmallConfig();
    config.engine.range_plan = plan;
    config.num_shards = 3;
    auto sharded = shard::ShardedEngine::Create(config);
    ASSERT_TRUE(sharded.ok());
    ASSERT_TRUE((*sharded)->BulkBuild(corpus).ok());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (const double eps : bench::EpsSweep()) {
        auto want = oracle.RangeQuery(queries[q], eps);
        ASSERT_TRUE(want.ok());
        QueryStats stats;
        auto got = (*sharded)->RangeQuery(queries[q], eps, {}, &stats);
        ASSERT_TRUE(got.ok());
        ExpectBitIdentical(*got, *want,
                           std::string(PlanName(plan)) + " sharded query " +
                               std::to_string(q) + " eps " +
                               std::to_string(eps));
        EXPECT_EQ(stats.plan.index + stats.plan.scan, 3u);
      }
    }
  }
}

TEST(FastScanOracleTest, ScanPlanRefusesAnIndexWithRemovedWindows) {
  const auto corpus = Market(4, 120);
  auto engine = SearchEngine::Create(SmallConfig());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BulkBuild(corpus).ok());
  const Vec query(corpus[1].values.begin() + 10,
                  corpus[1].values.begin() + 26);
  const index::RecordId removed = seq::MakeRecordId(1, 10);
  ASSERT_TRUE((*engine)->RemoveWindow(removed).ok());

  (*engine)->set_range_plan(RangePlan::kScan);
  auto refused = (*engine)->RangeQuery(query, 10.0);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // The planner never picks the scan here, so no removed window comes back.
  (*engine)->set_range_plan(RangePlan::kAuto);
  QueryStats stats;
  auto got = (*engine)->RangeQuery(query, 10.0, {}, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(stats.plan.index, 1u);
  for (const Match& m : *got) EXPECT_NE(m.record, removed);
}

// Many threads query one engine under kAuto with a spread of eps, so scans
// and index walks run concurrently over the same dataset and buffer pool.
// Every answer is checked against answers computed single-threaded first.
// The CI TSan job runs this test.
TEST(FastScanStressTest, ConcurrentMixedPlansMatchTheOracle) {
  const auto corpus = Market(12, 220);
  EngineConfig config = SmallConfig();
  config.buffer_pool_pages = 32;  // small: index walks also evict
  auto engine = SearchEngine::Create(config);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BulkBuild(corpus).ok());
  const std::vector<Vec> queries = Queries(corpus, 16, 6);
  const std::vector<double> sweep = bench::EpsSweep();

  (*engine)->set_range_plan(RangePlan::kIndex);
  std::vector<std::vector<Match>> want;
  for (const Vec& q : queries) {
    for (const double eps : sweep) {
      auto got = (*engine)->RangeQuery(q, eps);
      ASSERT_TRUE(got.ok());
      want.push_back(*got);
    }
  }
  (*engine)->set_range_plan(RangePlan::kAuto);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 3;
  std::vector<std::uint64_t> mismatches(kThreads, 0);
  std::vector<std::uint64_t> scans(kThreads, 0);
  std::vector<std::uint64_t> walks(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < want.size(); ++i) {
          const std::size_t k = (i + t * 7 + round) % want.size();
          QueryStats stats;
          auto got = (*engine)->RangeQuery(queries[k / sweep.size()],
                                           sweep[k % sweep.size()], {}, &stats);
          if (!got.ok() || got->size() != want[k].size()) {
            ++mismatches[t];
            continue;
          }
          for (std::size_t j = 0; j < got->size(); ++j) {
            if ((*got)[j].record != want[k][j].record ||
                !SameBits((*got)[j].distance, want[k][j].distance)) {
              ++mismatches[t];
              break;
            }
          }
          scans[t] += stats.plan.scan;
          walks[t] += stats.plan.index;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::uint64_t total_scans = 0;
  std::uint64_t total_walks = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    total_scans += scans[t];
    total_walks += walks[t];
  }
  EXPECT_GT(total_scans, 0u);
  EXPECT_GT(total_walks, 0u);
}

}  // namespace
}  // namespace tsss::core
