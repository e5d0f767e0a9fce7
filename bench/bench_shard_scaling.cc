// Shard scaling: closed-loop range-query throughput over a ShardedEngine as
// the shard count sweeps {1, 2, 4} on the same workload.
//
// A fixed pool of client threads each runs one query at a time against the
// scatter-gather facade, for a fixed wall-time window per sweep point. The
// facade's internal fan-out pool has the same number of workers at every
// sweep point, so the sweep varies the partitioning and not the thread
// count (with one worker per shard, 4 shards would also mean 4x the
// threads, and the sweep would measure threads). With S shards each
// sub-query touches ~1/S of the windows through its own R-tree and private
// buffer pool, so on multi-core hardware qps should scale toward linear (the
// CI acceptance target is >=1.5x at 4 shards vs 1); on a single core the
// sweep still verifies the fan-out path and reports per-shard pool hit
// rates. `total_matches` is the summed answer size over one deterministic
// pass of the workload — identical across shard counts because sharded
// answers are bit-identical to the single-engine oracle, which makes it a
// count-class gate for bench_diff.
//
// Extra environment knobs on top of bench_common.h:
//   TSSS_SERVICE_SECONDS=S  wall time per sweep point (default 2)
//   TSSS_CLIENTS=N          client-thread count (default 8, fixed across the
//                           sweep so the offered load is constant)
//
// The range plan is pinned to the index: the per-shard pool hit rates
// describe R-tree walks.

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench_common.h"
#include "tsss/shard/sharded_engine.h"

namespace {

double PercentileUs(std::vector<double>* latencies_us, double q) {
  if (latencies_us->empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(latencies_us->size() - 1));
  std::nth_element(latencies_us->begin(),
                   latencies_us->begin() + static_cast<std::ptrdiff_t>(rank),
                   latencies_us->end());
  return (*latencies_us)[rank];
}

/// Fan-out pool workers at every sweep point (reported in the meta).
constexpr std::size_t kFanoutWorkers = 4;

}  // namespace

int main(int argc, char** argv) {
  using namespace tsss;
  const bench::BenchEnv env = bench::GetBenchEnv();
  const double seconds =
      static_cast<double>(bench::EnvSizeT("TSSS_SERVICE_SECONDS", 2));
  const std::size_t clients = bench::EnvSizeT("TSSS_CLIENTS", 8);
  const double eps = 0.25;

  bench::JsonReport report("shard_scaling", env);
  report.meta()
      .Set("eps", eps)
      .Set("seconds_per_point", seconds)
      .Set("fanout_workers", static_cast<std::uint64_t>(kFanoutWorkers))
      .Set("scheme", "hash");

  const auto market = bench::MakeMarket(env);
  core::EngineConfig engine_config;
  engine_config.range_plan = core::RangePlan::kIndex;
  const auto queries =
      bench::MakeQueries(market, env.queries, engine_config.window);

  std::fprintf(stderr,
               "# shard scaling: %zu series, eps = %.2f, %zu clients, %zu "
               "fan-out workers, %.0fs per sweep point\n",
               market.size(), eps, clients, kFanoutWorkers, seconds);

  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    shard::ShardedEngineConfig config;
    config.engine = engine_config;
    config.num_shards = shards;
    config.fanout_workers = kFanoutWorkers;
    auto engine = shard::ShardedEngine::Create(config);
    if (!engine.ok()) {
      std::fprintf(stderr, "sharded engine creation failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    double build_seconds = 0.0;
    {
      const bench::Timer timer;
      if (auto s = (*engine)->BulkBuild(market); !s.ok()) {
        std::fprintf(stderr, "bulk build failed: %s\n", s.ToString().c_str());
        return 1;
      }
      build_seconds = timer.Seconds();
    }

    // One deterministic warm-up pass doubles as the bit-identity gate: the
    // summed answer size must not depend on the shard count.
    std::uint64_t total_matches = 0;
    for (const geom::Vec& query : queries) {
      auto matches = (*engine)->RangeQuery(query, eps);
      if (!matches.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     matches.status().ToString().c_str());
        return 1;
      }
      total_matches += matches->size();
    }

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> completed{0};
    std::vector<std::vector<double>> client_latencies_us(clients);
    std::vector<std::thread> client_threads;
    client_threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      client_threads.emplace_back([&, c] {
        std::size_t next = c;  // stagger the query mix across clients
        while (!stop.load(std::memory_order_relaxed)) {
          const bench::Timer timer;
          auto matches = (*engine)->RangeQuery(queries[next++ % queries.size()],
                                               eps);
          if (!matches.ok()) {
            std::fprintf(stderr, "query failed: %s\n",
                         matches.status().ToString().c_str());
            std::exit(1);
          }
          client_latencies_us[c].push_back(1e6 * timer.Seconds());
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    const bench::Timer wall;
    while (wall.Seconds() < seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : client_threads) t.join();
    const double elapsed = wall.Seconds();

    std::vector<double> all_latencies_us;
    for (const auto& per_client : client_latencies_us) {
      all_latencies_us.insert(all_latencies_us.end(), per_client.begin(),
                              per_client.end());
    }
    const double p50_us = PercentileUs(&all_latencies_us, 0.50);
    const double p99_us = PercentileUs(&all_latencies_us, 0.99);
    const double qps = static_cast<double>(completed.load()) / elapsed;

    std::printf(
        "{\"bench\":\"shard_scaling\",\"shards\":%u,\"clients\":%zu,"
        "\"seconds\":%.2f,\"queries\":%llu,\"qps\":%.1f,"
        "\"client_p50_ms\":%.3f,\"client_p99_ms\":%.3f,"
        "\"total_matches\":%llu,\"build_s\":%.3f",
        shards, clients, elapsed,
        static_cast<unsigned long long>(completed.load()), qps, p50_us / 1e3,
        p99_us / 1e3, static_cast<unsigned long long>(total_matches),
        build_seconds);
    auto& row = report.AddRow();
    row.Set("shards", static_cast<std::uint64_t>(shards))
        .Set("clients", static_cast<std::uint64_t>(clients))
        .Set("indexed_windows", (*engine)->num_indexed_windows())
        .Set("total_matches", total_matches)
        .Set("seconds", elapsed)
        .Set("queries", completed.load())
        .Set("qps", qps)
        .Set("client_p50_ms", p50_us / 1e3)
        .Set("client_p99_ms", p99_us / 1e3)
        .Set("build_s", build_seconds);
    for (const shard::ShardInfo& info : (*engine)->ShardInfos()) {
      char key[48];
      std::snprintf(key, sizeof(key), "pool_hit_ratio_s%u", info.shard);
      std::printf(",\"%s\":%.4f", key, info.pool_hit_rate);
      row.Set(key, info.pool_hit_rate);
    }
    std::printf("}\n");
    std::fflush(stdout);
  }
  report.MaybeWrite(argc, argv);
  return 0;
}
