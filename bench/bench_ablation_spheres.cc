// Ablation A1: why the Bounding-Spheres heuristic loses (paper, Section 7).
//
// The paper explains the surprise via Katayama & Satoh's SR-tree
// observation: R*-tree MBRs have long diagonals but small volume, i.e. they
// are long and thin. Then (a) the outer sphere is far larger than the box,
// so lines that miss the box still hit the outer sphere, and (b) the inner
// sphere is tiny, so lines that hit the box still miss the inner sphere.
// Either way the slab test runs anyway and the sphere tests are pure
// overhead.
//
// This bench measures exactly that: the shape statistics of the tree's MBRs,
// the fraction of penetration decisions the spheres actually short-circuit,
// and the per-decision CPU cost of each strategy.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tsss;
  const bench::BenchEnv env = bench::GetBenchEnv();
  const auto market = bench::MakeMarket(env);

  core::EngineConfig config;
  // This benchmark measures the index, so keep the range planner off the scan.
  config.range_plan = core::RangePlan::kIndex;
  auto engine = bench::BuildEngine(config, market);
  const auto queries = bench::MakeQueries(market, env.queries, config.window);

  bench::PrintHeader("Ablation A1: bounding spheres vs entering/exiting points",
                     "sphere short-circuit rates and MBR shape", env,
                     engine->num_indexed_windows());
  bench::JsonReport report("ablation_spheres", env);

  // MBR shape: the 'long thin boxes' measurement.
  auto stats = engine->tree().ComputeStats();
  if (!stats.ok()) return 1;
  report.meta()
      .Set("avg_aspect_ratio", stats->avg_aspect_ratio)
      .Set("avg_diag_to_min_side", stats->avg_diag_to_min_side);
  std::printf("\n# MBR shape (all internal-node children):\n");
  std::printf("#   avg longest/shortest side ratio : %8.1f\n",
              stats->avg_aspect_ratio);
  std::printf("#   avg diagonal/shortest side      : %8.1f\n",
              stats->avg_diag_to_min_side);
  std::printf("#   (a cube would score 1.0 / 2.45 in 6-d; large values mean\n"
              "#    the outer sphere over-covers and the inner under-covers)\n");

  std::printf("\n%-8s %10s %12s %12s %12s %10s\n", "eps", "tests",
              "outer_rej%", "inner_acc%", "slab_runs%", "saved%");
  for (const double eps : bench::EpsSweep()) {
    geom::PenetrationStats pen;
    engine->set_prune_strategy(geom::PruneStrategy::kBoundingSpheres);
    for (const auto& query : queries) {
      core::QueryStats qs;
      auto matches = engine->RangeQuery(query, eps, core::TransformCost{}, &qs);
      if (!matches.ok()) return 1;
      pen += qs.penetration;
    }
    const double tests = static_cast<double>(pen.tests);
    const double short_circuited =
        static_cast<double>(pen.outer_rejects + pen.inner_accepts);
    std::printf("%-8.2f %10llu %11.1f%% %11.1f%% %11.1f%% %9.1f%%\n", eps,
                static_cast<unsigned long long>(pen.tests),
                100.0 * static_cast<double>(pen.outer_rejects) / tests,
                100.0 * static_cast<double>(pen.inner_accepts) / tests,
                100.0 * static_cast<double>(pen.slab_tests) / tests,
                100.0 * short_circuited / tests);
    report.AddRow()
        .Set("eps", eps)
        .Set("tests", pen.tests)
        .Set("outer_reject_pct",
             100.0 * static_cast<double>(pen.outer_rejects) / tests)
        .Set("inner_accept_pct",
             100.0 * static_cast<double>(pen.inner_accepts) / tests)
        .Set("slab_run_pct",
             100.0 * static_cast<double>(pen.slab_tests) / tests)
        .Set("saved_pct", 100.0 * short_circuited / tests);
  }

  // Micro-cost of one decision per strategy, on the tree's real boxes.
  std::printf("\n# per-decision CPU cost (ns), measured on the tree's own "
              "boxes against %zu query lines:\n",
              queries.size());
  std::vector<geom::Mbr> boxes;
  if (!engine->tree()
           .VisitNodes([&](const index::Node& node, storage::PageId) {
             if (!node.is_leaf()) {
               for (const auto& e : node.entries) boxes.push_back(e.mbr);
             }
           })
           .ok()) {
    return 1;
  }
  std::vector<geom::Line> lines;
  lines.reserve(queries.size());
  for (const auto& q : queries) lines.push_back(engine->ReducedQueryLine(q));

  for (geom::PruneStrategy strategy :
       {geom::PruneStrategy::kEepOnly, geom::PruneStrategy::kBoundingSpheres,
        geom::PruneStrategy::kExactDistance}) {
    std::size_t visits = 0;
    const bench::Timer timer;
    for (const auto& line : lines) {
      for (const auto& box : boxes) {
        if (geom::ShouldVisit(line, box, 0.5, strategy, nullptr)) ++visits;
      }
    }
    const double total = timer.Seconds();
    const double per_test =
        1e9 * total / static_cast<double>(lines.size() * boxes.size());
    std::printf("#   %-10s %8.1f ns/test  (%zu/%zu admitted)\n",
                std::string(geom::PruneStrategyToString(strategy)).c_str(),
                per_test, visits, lines.size() * boxes.size());
    report.meta().Set(
        std::string("ns_per_test_") +
            std::string(geom::PruneStrategyToString(strategy)),
        per_test);
  }
  std::printf("\n# expected: sphere short-circuit rate is low and the sphere\n"
              "# test costs as much as the slab test it tries to avoid.\n");
  report.MaybeWrite(argc, argv);
  return 0;
}
