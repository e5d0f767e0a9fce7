// Ablation A9: sub-trail MBR indexing (the ST-index of Faloutsos et al. [2],
// which the paper builds on) vs one-point-per-window indexing.
//
// A trail of L consecutive windows becomes one leaf box, shrinking the index
// ~L-fold; a trail hit makes all L windows candidates. Small L = big index,
// precise candidates; large L = tiny index, more verification. This bench
// sweeps L and reports the index size, page reads (split into index/data),
// and CPU per query - the trade-off curve the original ST-index navigated.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tsss;
  const bench::BenchEnv env = bench::GetBenchEnv();
  const auto market = bench::MakeMarket(env);
  const double eps = 0.25;

  bench::JsonReport report("ablation_subtrail", env);
  report.meta().Set("eps", eps);

  std::printf("# Ablation A9: sub-trail length sweep (eps = %.2f)\n", eps);
  std::printf("# dataset: %zu companies x %zu values; window 128, DFT->6\n\n",
              env.companies, env.values);
  std::printf("%-8s %10s %10s %12s %12s %12s %12s %12s\n", "trail", "entries",
              "nodes", "cpu_ms", "index_pages", "data_pages", "candidates",
              "matches");

  for (const std::size_t trail : {0u, 5u, 10u, 25u, 50u, 100u}) {
    core::EngineConfig config;
    // This benchmark measures the index, so keep the range planner off the scan.
    config.range_plan = core::RangePlan::kIndex;
    config.subtrail_len = trail;
    auto engine = bench::BuildEngine(config, market);
    const auto queries = bench::MakeQueries(market, env.queries, config.window);

    double cpu_seconds = 0.0;
    std::uint64_t index_pages = 0;
    std::uint64_t data_pages = 0;
    std::uint64_t candidates = 0;
    std::uint64_t matches_total = 0;
    for (const auto& query : queries) {
      core::QueryStats stats;
      const bench::Timer timer;
      auto matches = engine->RangeQuery(query, eps, core::TransformCost{}, &stats);
      cpu_seconds += timer.Seconds();
      if (!matches.ok()) return 1;
      index_pages += stats.index_page_reads;
      data_pages += stats.data_page_reads;
      candidates += stats.candidates;
      matches_total += stats.matches;
    }
    auto tree_stats = engine->tree().ComputeStats();
    if (!tree_stats.ok()) return 1;

    const double q = static_cast<double>(queries.size());
    std::printf("%-8zu %10zu %10zu %12.3f %12.1f %12.1f %12.1f %12.1f\n", trail,
                engine->tree().size(), tree_stats->node_count,
                1e3 * cpu_seconds / q, static_cast<double>(index_pages) / q,
                static_cast<double>(data_pages) / q,
                static_cast<double>(candidates) / q,
                static_cast<double>(matches_total) / q);
    report.AddRow()
        .Set("trail", trail)
        .Set("entries", engine->tree().size())
        .Set("nodes", tree_stats->node_count)
        .Set("cpu_ms", 1e3 * cpu_seconds / q)
        .Set("index_pages", static_cast<double>(index_pages) / q)
        .Set("data_pages", static_cast<double>(data_pages) / q)
        .Set("candidates", static_cast<double>(candidates) / q)
        .Set("matches", static_cast<double>(matches_total) / q);
  }
  std::printf("\n# expected: index pages fall ~L-fold with trail length while\n"
              "# data pages (verification) grow; total page reads bottom out\n"
              "# around L ~ 25-50, far below both the point index and the\n"
              "# sequential scan - the regime the paper's Figure 5 lives in.\n");
  report.MaybeWrite(argc, argv);
  return 0;
}
