// Regression coverage for the verify-loop ExecControl polls (and the
// per-series poll of the range scan plan).
//
// The candidate-verification loops in SearchEngine::RangeQuery, Knn, and
// LongRangeQuery read data pages after the index walk has finished, so a
// deadline that only fires inside RTree::LoadNode would go unnoticed for
// the whole verify phase. Each loop therefore calls PollExecControl()
// before every page read (tsss_lint's deadline-poll check enforces this).
//
// Strategy: run the query once to completion under an ExecControl and
// record the total poll count N. The index walk polls once per node load
// and the verify loop once per candidate, in that order, so with at least
// one candidate the Nth (final) poll happens inside the verify loop.
// Re-running with a check budget of N-1 must therefore trip
// DeadlineExceeded at exactly that verify-loop poll. If the poll were
// removed, the re-run would observe fewer than N polls and succeed —
// failing the test.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "tsss/common/exec_control.h"
#include "tsss/core/engine.h"
#include "tsss/seq/stock_generator.h"

namespace tsss::core {
namespace {

using geom::Vec;

EngineConfig SmallEngineConfig() {
  EngineConfig config;
  config.window = 16;
  config.reduced_dim = 4;
  config.tree.max_entries = 8;
  config.buffer_pool_pages = 128;
  // The polls under test are the index path's; the scan plan has its own
  // test (ScanPlanPollsDeadline).
  config.range_plan = RangePlan::kIndex;
  return config;
}

std::vector<seq::TimeSeries> SmallMarket(std::size_t companies = 20,
                                         std::size_t length = 120,
                                         std::uint64_t seed = 99) {
  seq::StockMarketConfig config;
  config.num_companies = companies;
  config.values_per_company = length;
  config.seed = seed;
  return seq::GenerateStockMarket(config);
}

class DeadlinePollTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto engine = SearchEngine::Create(SmallEngineConfig());
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(*engine);
    market_ = SmallMarket();
    for (const auto& series : market_) {
      ASSERT_TRUE(engine_->AddSeries(series.name, series.values).ok());
    }
  }

  // An indexed window, so every query below has at least one candidate.
  Vec SelfQuery() const {
    return Vec(market_[3].values.begin() + 20, market_[3].values.begin() + 36);
  }

  std::unique_ptr<SearchEngine> engine_;
  std::vector<seq::TimeSeries> market_;
};

TEST_F(DeadlinePollTest, RangeQueryVerifyLoopPollsDeadline) {
  const Vec query = SelfQuery();

  ExecControl baseline;
  std::uint64_t total_polls = 0;
  QueryStats stats;
  {
    ScopedExecControl scoped(&baseline);
    auto matches = engine_->RangeQuery(query, 0.5, {}, &stats);
    ASSERT_TRUE(matches.ok());
    ASSERT_FALSE(matches->empty());
    total_polls = baseline.checks();
  }
  // The verify loop must have contributed polls beyond the per-node-load
  // ones; otherwise the budget below would trip during the index walk and
  // prove nothing about the verify loop.
  ASSERT_GE(stats.candidates, 1u);
  ASSERT_GT(total_polls, stats.index_page_reads);

  ExecControl budgeted;
  budgeted.set_check_budget(total_polls - 1);
  ScopedExecControl scoped(&budgeted);
  auto matches = engine_->RangeQuery(query, 0.5);
  ASSERT_FALSE(matches.ok());
  EXPECT_EQ(matches.status().code(), StatusCode::kDeadlineExceeded);
}

// The scan plan reads no index nodes, so its only polls are its own, one
// per series; the last of them happens inside the scan.
TEST_F(DeadlinePollTest, ScanPlanPollsDeadline) {
  engine_->set_range_plan(RangePlan::kScan);
  const Vec query = SelfQuery();

  ExecControl baseline;
  std::uint64_t total_polls = 0;
  QueryStats stats;
  {
    ScopedExecControl scoped(&baseline);
    auto matches = engine_->RangeQuery(query, 0.5, {}, &stats);
    ASSERT_TRUE(matches.ok());
    ASSERT_FALSE(matches->empty());
    total_polls = baseline.checks();
  }
  ASSERT_EQ(stats.plan.scan, 1u);
  ASSERT_EQ(stats.index_page_reads, 0u);
  ASSERT_EQ(total_polls, market_.size());

  ExecControl budgeted;
  budgeted.set_check_budget(total_polls - 1);
  ScopedExecControl scoped(&budgeted);
  auto matches = engine_->RangeQuery(query, 0.5);
  ASSERT_FALSE(matches.ok());
  EXPECT_EQ(matches.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(DeadlinePollTest, KnnVerifyLoopPollsDeadline) {
  const Vec query = SelfQuery();

  ExecControl baseline;
  std::uint64_t total_polls = 0;
  QueryStats stats;
  {
    ScopedExecControl scoped(&baseline);
    auto matches = engine_->Knn(query, 5, {}, &stats);
    ASSERT_TRUE(matches.ok());
    ASSERT_EQ(matches->size(), 5u);
    total_polls = baseline.checks();
  }
  ASSERT_GE(stats.candidates, 1u);
  ASSERT_GT(total_polls, stats.index_page_reads);

  ExecControl budgeted;
  budgeted.set_check_budget(total_polls - 1);
  ScopedExecControl scoped(&budgeted);
  auto matches = engine_->Knn(query, 5);
  ASSERT_FALSE(matches.ok());
  EXPECT_EQ(matches.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(DeadlinePollTest, LongRangeQueryVerifyLoopPollsDeadline) {
  // Two disjoint pieces (window 16, |Q| = 32), verified against the full
  // query by LongRangeQuery's own verify loop.
  const Vec query(market_[3].values.begin() + 20,
                  market_[3].values.begin() + 52);

  ExecControl baseline;
  std::uint64_t total_polls = 0;
  QueryStats stats;
  {
    ScopedExecControl scoped(&baseline);
    auto matches = engine_->LongRangeQuery(query, 0.5, {}, &stats);
    ASSERT_TRUE(matches.ok());
    ASSERT_FALSE(matches->empty());
    total_polls = baseline.checks();
  }
  ASSERT_GE(stats.candidates, 1u);
  ASSERT_GT(total_polls, stats.index_page_reads);

  ExecControl budgeted;
  budgeted.set_check_budget(total_polls - 1);
  ScopedExecControl scoped(&budgeted);
  auto matches = engine_->LongRangeQuery(query, 0.5);
  ASSERT_FALSE(matches.ok());
  EXPECT_EQ(matches.status().code(), StatusCode::kDeadlineExceeded);
}

// Sanity on the budget hook itself: budget 0 disables, budget 1 trips on
// the second poll.
TEST(ExecControlBudgetTest, CheckBudgetTripsAfterNPolls) {
  ExecControl control;
  EXPECT_TRUE(control.Check().ok());
  EXPECT_EQ(control.checks(), 1u);

  control.set_check_budget(1);
  ExecControl fresh;
  fresh.set_check_budget(2);
  EXPECT_TRUE(fresh.Check().ok());
  EXPECT_TRUE(fresh.Check().ok());
  EXPECT_EQ(fresh.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(fresh.checks(), 3u);
}

}  // namespace
}  // namespace tsss::core
