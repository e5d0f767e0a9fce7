// Ablation A8: X-tree supernodes vs plain R*-tree as dimensionality grows.
//
// Section 7 of the paper cites the X-tree finding that "the searching time
// increases as the overlap of the R-tree increases [and] the overlap
// increases significantly when the dimension of the R-tree is larger than
// 10" - their reason for reducing to dimension 6. This bench measures that
// degradation directly and shows how much of it the X-tree's supernodes
// (overlap-triggered refusal to split directory nodes) recover.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tsss;
  bench::BenchEnv env = bench::GetBenchEnv();
  if (std::getenv("TSSS_COMPANIES") == nullptr && !env.full) env.companies = 100;
  const auto market = bench::MakeMarket(env);
  const double eps = 0.5;

  bench::JsonReport report("ablation_xtree", env);
  report.meta().Set("eps", eps);

  std::printf("# Ablation A8: supernodes (X-tree) vs plain R* across dims "
              "(eps = %.2f)\n", eps);
  std::printf("# dataset: %zu companies x %zu values; incremental inserts\n\n",
              env.companies, env.values);
  std::printf("%-6s %-6s %12s %12s %12s %12s %12s\n", "dim", "mode", "cpu_ms",
              "pages", "overlap", "supernodes", "node_pages");

  for (const std::size_t dim : {6u, 10u, 14u}) {
    for (const bool supernodes : {false, true}) {
      core::EngineConfig config;
      // This benchmark measures the index, so keep the range planner off the scan.
      config.range_plan = core::RangePlan::kIndex;
      config.reduced_dim = dim;
      const index::NodeCodec codec(dim);
      config.tree.max_entries =
          std::min<std::size_t>(20, codec.max_internal_entries() - 1);
      config.tree.enable_supernodes = supernodes;
      auto engine = core::SearchEngine::Create(config);
      if (!engine.ok()) {
        std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
        return 1;
      }
      // Incremental insertion: supernodes only form during dynamic splits.
      for (const auto& series : market) {
        if (!(*engine)->AddSeries(series.name, series.values).ok()) return 1;
      }
      const auto queries =
          bench::MakeQueries(market, env.queries, config.window);

      double cpu_seconds = 0.0;
      std::uint64_t pages = 0;
      for (const auto& query : queries) {
        core::QueryStats stats;
        const bench::Timer timer;
        auto matches =
            (*engine)->RangeQuery(query, eps, core::TransformCost{}, &stats);
        cpu_seconds += timer.Seconds();
        if (!matches.ok()) return 1;
        pages += stats.total_page_reads();
      }
      auto tree_stats = (*engine)->tree().ComputeStats();
      if (!tree_stats.ok()) return 1;

      const double q = static_cast<double>(queries.size());
      std::printf("%-6zu %-6s %12.3f %12.1f %12.3g %12zu %12zu\n", dim,
                  supernodes ? "xtree" : "rstar", 1e3 * cpu_seconds / q,
                  static_cast<double>(pages) / q, tree_stats->total_overlap_volume,
                  tree_stats->supernode_count, tree_stats->node_pages);
      report.AddRow()
          .Set("part", "stock")
          .Set("dim", dim)
          .Set("mode", supernodes ? "xtree" : "rstar")
          .Set("cpu_ms", 1e3 * cpu_seconds / q)
          .Set("pages", static_cast<double>(pages) / q)
          .Set("overlap", tree_stats->total_overlap_volume)
          .Set("supernodes", tree_stats->supernode_count)
          .Set("node_pages", tree_stats->node_pages);
    }
  }
  std::printf("\n# note: on DFT-reduced stock data the R* splits stay below the\n"
              "# 20%% overlap threshold, so no supernodes form - the energy\n"
              "# concentration that makes fc=3 work also keeps splits clean.\n");

  // Part 2: the adversarial case the X-tree was built for - uniform points
  // in a high-dimensional cube, where every split overlaps badly.
  std::printf("\n# part 2: uniform random points (the X-tree's adversarial "
              "case), line queries, eps = 0.1\n");
  std::printf("%-6s %-6s %12s %12s %12s %12s %12s\n", "dim", "mode", "cpu_ms",
              "pages", "overlap", "supernodes", "node_pages");
  for (const std::size_t dim : {8u, 12u}) {
    for (const bool supernodes : {false, true}) {
      storage::MemPageStore store;
      storage::BufferPool pool(&store, 8192);
      index::RTreeConfig config;
      config.dim = dim;
      const index::NodeCodec codec(dim);
      config.max_entries =
          std::min<std::size_t>(20, codec.max_internal_entries() - 1);
      config.enable_supernodes = supernodes;
      config.supernode_overlap_fraction = 0.05;
      auto tree = index::RTree::Create(&pool, config);
      if (!tree.ok()) return 1;

      Rng rng(99);
      const std::size_t count = env.full ? 100000 : 30000;
      for (std::size_t i = 0; i < count; ++i) {
        geom::Vec p(dim);
        for (auto& x : p) x = rng.Uniform(0, 1);
        if (!(*tree)->Insert(p, i).ok()) return 1;
      }

      double cpu_seconds = 0.0;
      std::uint64_t pages = 0;
      const std::size_t num_queries = 40;
      for (std::size_t q = 0; q < num_queries; ++q) {
        geom::Vec p(dim), d(dim);
        for (std::size_t i = 0; i < dim; ++i) {
          p[i] = rng.Uniform(0, 1);
          d[i] = rng.Uniform(-1, 1);
        }
        if (!pool.Clear().ok()) return 1;
        const std::uint64_t before = pool.metrics().logical_reads;
        const bench::Timer timer;
        auto result = (*tree)->LineQuery(geom::Line{p, d}, 0.1,
                                         geom::PruneStrategy::kEepOnly, nullptr);
        cpu_seconds += timer.Seconds();
        if (!result.ok()) return 1;
        pages += pool.metrics().logical_reads - before;
      }
      auto stats = (*tree)->ComputeStats();
      if (!stats.ok()) return 1;
      std::printf("%-6zu %-6s %12.3f %12.1f %12.3g %12zu %12zu\n", dim,
                  supernodes ? "xtree" : "rstar",
                  1e3 * cpu_seconds / static_cast<double>(num_queries),
                  static_cast<double>(pages) / static_cast<double>(num_queries),
                  stats->total_overlap_volume, stats->supernode_count,
                  stats->node_pages);
      report.AddRow()
          .Set("part", "uniform")
          .Set("dim", dim)
          .Set("mode", supernodes ? "xtree" : "rstar")
          .Set("cpu_ms", 1e3 * cpu_seconds / static_cast<double>(num_queries))
          .Set("pages",
               static_cast<double>(pages) / static_cast<double>(num_queries))
          .Set("overlap", stats->total_overlap_volume)
          .Set("supernodes", stats->supernode_count)
          .Set("node_pages", stats->node_pages);
    }
  }
  std::printf("\n# expected (part 2): supernodes form, directory overlap drops,\n"
              "# and line queries touch fewer pages despite wider nodes.\n");
  report.MaybeWrite(argc, argv);
  return 0;
}
