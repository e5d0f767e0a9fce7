// Ablation A2: index dimensionality (paper, Section 7).
//
// "According to the work in [2], three Fourier coefficients are sufficient to
// index time series data efficiently" and "the overlap increases
// significantly when the dimension of the R-tree is larger than 10". This
// bench sweeps the number of kept DFT coefficients fc = 1..8 (R-tree
// dimension 2..16) and reports query CPU, page reads, candidate counts
// (pruning precision improves with dimension) and the tree-overlap statistic
// (tree quality degrades with dimension) - the tension that makes fc = 3 the
// sweet spot.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tsss;
  const bench::BenchEnv env = bench::GetBenchEnv();
  const auto market = bench::MakeMarket(env);

  std::printf("# Ablation A2: DFT coefficient count (R-tree dimensionality)\n");
  std::printf("# dataset: %zu companies x %zu values; window 128; eps = 0.5\n",
              env.companies, env.values);
  bench::JsonReport report("ablation_dims", env);
  report.meta().Set("eps", 0.5);
  std::printf("\n%-4s %-5s %12s %12s %12s %12s %14s %10s\n", "fc", "dim",
              "cpu_ms", "pages", "candidates", "matches", "overlap", "height");

  const double eps = 0.5;
  for (std::size_t fc = 1; fc <= 8; ++fc) {
    core::EngineConfig config;
    // This benchmark measures the index, so keep the range planner off the scan.
    config.range_plan = core::RangePlan::kIndex;
    config.reduced_dim = 2 * fc;
    // High dimensions shrink the page capacity below the paper's M = 20;
    // clamp M so every configuration still fits one node per 4 KiB page.
    const index::NodeCodec codec(config.reduced_dim);
    config.tree.max_entries =
        std::min<std::size_t>(20, codec.max_internal_entries() - 1);
    auto engine = bench::BuildEngine(config, market);
    const auto queries = bench::MakeQueries(market, env.queries, config.window);

    double cpu_seconds = 0.0;
    std::uint64_t pages = 0;
    std::uint64_t candidates = 0;
    std::uint64_t matches_total = 0;
    for (const auto& query : queries) {
      core::QueryStats stats;
      const bench::Timer timer;
      auto matches = engine->RangeQuery(query, eps, core::TransformCost{}, &stats);
      cpu_seconds += timer.Seconds();
      if (!matches.ok()) return 1;
      pages += stats.total_page_reads();
      candidates += stats.candidates;
      matches_total += stats.matches;
    }

    auto tree_stats = engine->tree().ComputeStats();
    if (!tree_stats.ok()) return 1;
    const double q = static_cast<double>(queries.size());
    std::printf("%-4zu %-5zu %12.3f %12.1f %12.1f %12.1f %14.3g %10zu\n", fc,
                2 * fc, 1e3 * cpu_seconds / q, static_cast<double>(pages) / q,
                static_cast<double>(candidates) / q,
                static_cast<double>(matches_total) / q,
                tree_stats->total_overlap_volume, tree_stats->height);
    report.AddRow()
        .Set("fc", fc)
        .Set("dim", static_cast<std::uint64_t>(2 * fc))
        .Set("cpu_ms", 1e3 * cpu_seconds / q)
        .Set("pages", static_cast<double>(pages) / q)
        .Set("candidates", static_cast<double>(candidates) / q)
        .Set("matches", static_cast<double>(matches_total) / q)
        .Set("overlap", tree_stats->total_overlap_volume)
        .Set("height", tree_stats->height);
  }
  std::printf("\n# expected: candidates fall steeply up to fc~3 then flatten,\n"
              "# while node volume/overlap and per-node CPU keep growing -\n"
              "# the paper's rationale for fc = 3 (dimension 6).\n");
  report.MaybeWrite(argc, argv);
  return 0;
}
