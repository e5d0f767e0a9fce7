// Figure 4 reproduction: average CPU time per query vs error bound eps for
// the paper's three experiment sets:
//   set 1 - sequential scan (distance by Lemma 2, every window checked);
//   set 2 - R*-tree line search with Entering/Exiting-Points penetration;
//   set 3 - R*-tree line search with the Bounding-Spheres heuristic.
//
// Expected shape (paper, Section 7): the tree methods beat sequential scan
// across the whole eps range; tree CPU time grows with eps (more subtrees
// qualify); sequential scan is flat; and - the paper's surprise - the
// bounding-spheres heuristic is *slower* than plain EEP because R*-tree MBRs
// are long and thin (see bench_ablation_spheres for the why).
//
// The paper's speed-up is over its naive scan. Two more columns set the
// index against a strong scan (Lernaean Hydra's point): fastscan_ms is the
// exact sliding-sum scan (core/fast_scan.h) and planned_ms the engine's
// default plan, which picks scan or index per query. The eep/spheres
// columns pin the index plan so they keep measuring the index.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tsss;
  const bench::BenchEnv env = bench::GetBenchEnv();
  const auto market = bench::MakeMarket(env);

  core::EngineConfig config;  // paper defaults: n=128, DFT->6, M=20, m=8, p=6
  double build_seconds = 0.0;
  auto engine = bench::BuildEngine(config, market, &build_seconds);
  const auto queries = bench::MakeQueries(market, env.queries, config.window);

  bench::PrintHeader(
      "Figure 4: CPU Time vs Error Value of the 3 sets of experiments",
      "average CPU milliseconds per query", env, engine->num_indexed_windows());
  std::printf("# index build (STR bulk load): %.2f s\n", build_seconds);

  bench::JsonReport report("fig4_cpu_time", env);
  report.meta()
      .Set("build_seconds", build_seconds)
      .Set("indexed_windows", engine->num_indexed_windows());

  core::SequentialScanner scanner(&engine->dataset(), config.window);
  // The scan costs the same at every eps; a subset of queries bounds total
  // runtime without changing the average.
  const std::size_t scan_queries = std::min<std::size_t>(env.queries, 10);

  std::printf("\n%-8s %14s %14s %14s %14s %14s %12s\n", "eps", "seqscan_ms",
              "eep_ms", "spheres_ms", "fastscan_ms", "planned_ms",
              "avg_matches");
  // Times one pass of every query under the engine's current settings;
  // returns ms per query and adds the answers' sizes to *matches.
  auto time_queries = [&](double eps, std::size_t* matches) -> double {
    // Untimed warmup so allocator/cache state does not favour whichever
    // configuration happens to run second.
    for (std::size_t w = 0; w < std::min<std::size_t>(2, queries.size()); ++w) {
      if (!engine->RangeQuery(queries[w], eps).ok()) std::exit(1);
    }
    const bench::Timer timer;
    for (const auto& query : queries) {
      auto answer = engine->RangeQuery(query, eps);
      if (!answer.ok()) std::exit(1);
      *matches += answer->size();
    }
    return 1e3 * timer.Seconds() / static_cast<double>(queries.size());
  };
  for (const double eps : bench::EpsSweep()) {
    // Set 1: sequential scan.
    const bench::Timer scan_timer;
    for (std::size_t q = 0; q < scan_queries; ++q) {
      auto matches = scanner.RangeQuery(queries[q], eps);
      if (!matches.ok()) return 1;
    }
    const double scan_ms =
        1e3 * scan_timer.Seconds() / static_cast<double>(scan_queries);

    // Sets 2 and 3: identical tree, different penetration method.
    engine->set_range_plan(core::RangePlan::kIndex);
    double tree_ms[2] = {0.0, 0.0};
    std::size_t total_matches = 0;
    const geom::PruneStrategy strategies[2] = {
        geom::PruneStrategy::kEepOnly, geom::PruneStrategy::kBoundingSpheres};
    for (int s = 0; s < 2; ++s) {
      engine->set_prune_strategy(strategies[s]);
      total_matches = 0;
      tree_ms[s] = time_queries(eps, &total_matches);
    }
    // The strong scan, and the planner's choice (with the paper's EEP).
    engine->set_prune_strategy(geom::PruneStrategy::kEepOnly);
    std::size_t ignored = 0;
    engine->set_range_plan(core::RangePlan::kScan);
    const double fastscan_ms = time_queries(eps, &ignored);
    engine->set_range_plan(core::RangePlan::kAuto);
    const double planned_ms = time_queries(eps, &ignored);

    std::printf("%-8.2f %14.3f %14.3f %14.3f %14.3f %14.3f %12zu\n", eps,
                scan_ms, tree_ms[0], tree_ms[1], fastscan_ms, planned_ms,
                total_matches / queries.size());
    report.AddRow()
        .Set("eps", eps)
        .Set("seqscan_ms", scan_ms)
        .Set("eep_ms", tree_ms[0])
        .Set("spheres_ms", tree_ms[1])
        .Set("fastscan_ms", fastscan_ms)
        .Set("planned_ms", planned_ms)
        .Set("avg_matches",
             static_cast<std::uint64_t>(total_matches / queries.size()));
  }
  std::printf("\n# shape check: tree columns << seqscan; spheres >= eep;\n"
              "# tree time grows with eps while seqscan stays flat;\n"
              "# fastscan is flat and well below seqscan; planned tracks\n"
              "# min(eep, fastscan).\n");
  report.MaybeWrite(argc, argv);
  return 0;
}
