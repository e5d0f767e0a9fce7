// Ablation A5: scalability in database size. The paper's requirement 1
// (Section 3) motivates the index with "the size of the time sequence
// database is very large in real applications"; this bench grows the market
// from 50 to TSSS_COMPANIES companies and tracks how both methods scale.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tsss;
  const bench::BenchEnv env = bench::GetBenchEnv();
  const double eps = 0.25;

  bench::JsonReport report("scaling", env);
  report.meta().Set("eps", eps);

  std::printf("# Ablation A5: scaling with database size (eps = %.2f)\n", eps);
  std::printf("\n%-10s %10s %12s %12s %12s %14s %14s\n", "companies", "values",
              "windows", "scan_ms", "tree_ms", "scan_pages", "tree_pages");

  std::vector<std::size_t> sizes;
  for (std::size_t c = 50; c < env.companies; c *= 2) sizes.push_back(c);
  sizes.push_back(env.companies);

  for (const std::size_t companies : sizes) {
    bench::BenchEnv sub = env;
    sub.companies = companies;
    const auto market = bench::MakeMarket(sub);

    core::EngineConfig config;
    // This benchmark measures the index, so keep the range planner off the scan.
    config.range_plan = core::RangePlan::kIndex;
    auto engine = bench::BuildEngine(config, market);
    const auto queries = bench::MakeQueries(market, env.queries, config.window);
    core::SequentialScanner scanner(&engine->dataset(), config.window);

    const std::size_t scan_queries = std::min<std::size_t>(queries.size(), 8);
    const bench::Timer scan_timer;
    for (std::size_t q = 0; q < scan_queries; ++q) {
      if (!scanner.RangeQuery(queries[q], eps).ok()) return 1;
    }
    const double scan_ms =
        1e3 * scan_timer.Seconds() / static_cast<double>(scan_queries);

    std::uint64_t pages = 0;
    const bench::Timer tree_timer;
    for (const auto& query : queries) {
      core::QueryStats stats;
      if (!engine->RangeQuery(query, eps, core::TransformCost{}, &stats).ok()) {
        return 1;
      }
      pages += stats.total_page_reads();
    }
    const double tree_ms =
        1e3 * tree_timer.Seconds() / static_cast<double>(queries.size());

    std::printf("%-10zu %10zu %12zu %12.3f %12.3f %14zu %14.1f\n", companies,
                companies * sub.values, engine->num_indexed_windows(), scan_ms,
                tree_ms, engine->dataset().store().TotalPages(),
                static_cast<double>(pages) / static_cast<double>(queries.size()));
    report.AddRow()
        .Set("companies", companies)
        .Set("values", static_cast<std::uint64_t>(companies * sub.values))
        .Set("windows", engine->num_indexed_windows())
        .Set("scan_ms", scan_ms)
        .Set("tree_ms", tree_ms)
        .Set("scan_pages", engine->dataset().store().TotalPages())
        .Set("tree_pages", static_cast<double>(pages) /
                               static_cast<double>(queries.size()));
  }
  std::printf("\n# expected: scan CPU and pages grow linearly with the data.\n"
              "# With data-drawn queries the answer set also grows linearly,\n"
              "# so tree CPU keeps a constant-factor advantage; for fixed-size\n"
              "# answers (small eps) the tree's growth is sublinear.\n");
  report.MaybeWrite(argc, argv);
  return 0;
}
