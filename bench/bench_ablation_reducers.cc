// Ablation A3: choice of (linear, contractive) dimension reducer at equal
// reduced dimensionality. The paper uses DFT following [1, 2] and cites
// wavelet reduction [14]; this bench compares DFT vs PAA vs Haar at dim 6 on
// the same data and queries. The quality metric is pruning precision: how
// few candidates survive for the same guaranteed-complete answer set.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tsss;
  const bench::BenchEnv env = bench::GetBenchEnv();
  const auto market = bench::MakeMarket(env);
  bench::JsonReport report("ablation_reducers", env);

  std::printf("# Ablation A3: reducer family at reduced dim 6, window 128\n");
  std::printf("# dataset: %zu companies x %zu values\n", env.companies,
              env.values);
  std::printf("\n%-10s %-8s %12s %12s %12s %12s %12s\n", "reducer", "eps",
              "cpu_ms", "pages", "candidates", "matches", "precision");

  const reduce::ReducerKind kinds[] = {reduce::ReducerKind::kDft,
                                       reduce::ReducerKind::kPaa,
                                       reduce::ReducerKind::kHaar};
  for (const reduce::ReducerKind kind : kinds) {
    core::EngineConfig config;
    // This benchmark measures the index, so keep the range planner off the scan.
    config.range_plan = core::RangePlan::kIndex;
    config.reducer = kind;
    config.reduced_dim = 6;
    auto engine = bench::BuildEngine(config, market);
    const auto queries = bench::MakeQueries(market, env.queries, config.window);

    for (const double eps : {0.1, 0.5, 1.0}) {
      double cpu_seconds = 0.0;
      std::uint64_t pages = 0;
      std::uint64_t candidates = 0;
      std::uint64_t matches_total = 0;
      for (const auto& query : queries) {
        core::QueryStats stats;
        const bench::Timer timer;
        auto matches =
            engine->RangeQuery(query, eps, core::TransformCost{}, &stats);
        cpu_seconds += timer.Seconds();
        if (!matches.ok()) return 1;
        pages += stats.total_page_reads();
        candidates += stats.candidates;
        matches_total += stats.matches;
      }
      const double q = static_cast<double>(queries.size());
      const double precision =
          candidates > 0 ? static_cast<double>(matches_total) /
                               static_cast<double>(candidates)
                         : 1.0;
      std::printf("%-10s %-8.2f %12.3f %12.1f %12.1f %12.1f %11.1f%%\n",
                  std::string(reduce::ReducerKindToString(kind)).c_str(), eps,
                  1e3 * cpu_seconds / q, static_cast<double>(pages) / q,
                  static_cast<double>(candidates) / q,
                  static_cast<double>(matches_total) / q, 100.0 * precision);
      report.AddRow()
          .Set("reducer", std::string(reduce::ReducerKindToString(kind)))
          .Set("eps", eps)
          .Set("cpu_ms", 1e3 * cpu_seconds / q)
          .Set("pages", static_cast<double>(pages) / q)
          .Set("candidates", static_cast<double>(candidates) / q)
          .Set("matches", static_cast<double>(matches_total) / q)
          .Set("precision_pct", 100.0 * precision);
    }
  }
  std::printf("\n# expected: all reducers return identical match counts (the\n"
              "# pipeline is exact for every linear contraction); they differ\n"
              "# only in pruning precision and per-query cost.\n");
  report.MaybeWrite(argc, argv);
  return 0;
}
