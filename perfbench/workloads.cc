// The benchmark's workloads. Each drives the public API of the library,
// checks every answer against the sequential-scan oracle, and measures from
// outside the program. The corpus is the default-scale
// StockGenerator market (fixed seed); --seed picks the query pool
// (bench::MakeQueries) and the request order.
//
//   range_pool_miss  single file-backed engine whose buffer pool holds 1/8 of
//                    the index, served by a QueryService with 4 workers to 4
//                    closed-loop clients. Each 2 s round spends 3/4 on range
//                    queries at eps 0, 0.05, 0.1 (qps, range latency) and 1/4
//                    on kNN at k 10 (kNN latency) on the same cold pool.
//   mixed_warm       the same index with the default pool (the whole index
//                    stays cached): 70 % range at eps 0.1, 0.25, 0.5 and
//                    30 % kNN at k 1, 10, 50, 4 closed-loop clients.
//
// After its measurements every run inserts a few series with AddSeries,
// checkpoints, closes and reopens the index, and checks that the whole query
// pool gives the same answers before the close and after the reopen, and
// that both equal the oracle over the grown corpus.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench/bench_common.h"
#include "perfbench/harness.h"
#include "tsss/common/rng.h"
#include "tsss/seq/stock_generator.h"
#include "tsss/service/query_service.h"
#include "tsss/shard/sharded_engine.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tsss::Result;
using tsss::Status;
using tsss::core::Match;
using tsss::core::QueryStats;
using tsss::core::SearchEngine;
using tsss::geom::Vec;
using tsss::shard::ShardedEngine;

constexpr std::size_t kClients = 4;       // closed-loop client threads
constexpr std::size_t kWorkers = 4;       // QueryService workers
constexpr std::uint32_t kShards = 4;
constexpr std::size_t kServedSetups = 11;  // set-ups per served run (median)
constexpr double kRoundSeconds = 2.0;      // served runs report round medians
/// A served round counts as quiet when other guests took at most this share
/// of the host's CPU time during it (see RunServed).
constexpr double kQuietSteal = 0.03;
constexpr std::size_t kMaxRoundsFactor = 4;
constexpr std::size_t kOracleThreads = 4;
constexpr std::size_t kProbeQueries = 16;
/// Query sequences whose pairs the traced run composes layer by layer.
constexpr std::size_t kComposedQueries = 32;
constexpr std::size_t kProbeSeries = 2;
/// Largest share of a composed query's traced time that its layer spans may
/// leave unattributed (see ComposedMetrics).
constexpr double kMaxUnattributed = 0.10;

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

std::size_t CountWindows(const std::vector<tsss::seq::TimeSeries>& corpus,
                         std::size_t window) {
  std::size_t n = 0;
  for (const auto& s : corpus) {
    if (s.values.size() >= window) n += s.values.size() - window + 1;
  }
  return n;
}

std::size_t TotalValues(const std::vector<tsss::seq::TimeSeries>& corpus) {
  std::size_t n = 0;
  for (const auto& s : corpus) n += s.values.size();
  return n;
}

double NsToUs(double ns) { return ns / 1e3; }
double PerQuery(double total, std::uint64_t queries) {
  return queries == 0 ? 0.0 : total / static_cast<double>(queries);
}

/// Per-query counters from QueryStats, summed.
struct StatsSum {
  std::uint64_t queries = 0;
  std::uint64_t index_reads = 0;
  std::uint64_t index_misses = 0;
  std::uint64_t data_pages = 0;
  std::uint64_t candidates = 0;
  std::uint64_t matches = 0;

  void Add(const QueryStats& s) {
    ++queries;
    index_reads += s.index_page_reads;
    index_misses += s.index_page_misses;
    data_pages += s.data_page_reads;
    candidates += s.candidates;
    matches += s.matches;
  }
  void Add(const StatsSum& o) {
    queries += o.queries;
    index_reads += o.index_reads;
    index_misses += o.index_misses;
    data_pages += o.data_pages;
    candidates += o.candidates;
    matches += o.matches;
  }
};

/// Latencies and counters of a run's queries.
struct QueryLog {
  std::vector<double> range_ms;
  std::vector<double> knn_ms;
  std::vector<double> wait_ms;  ///< latency minus the query's own CPU time
  StatsSum range;
  StatsSum knn;
  Ledger ledger;

  void Merge(const QueryLog& o) {
    range_ms.insert(range_ms.end(), o.range_ms.begin(), o.range_ms.end());
    knn_ms.insert(knn_ms.end(), o.knn_ms.begin(), o.knn_ms.end());
    wait_ms.insert(wait_ms.end(), o.wait_ms.begin(), o.wait_ms.end());
    range.Add(o.range);
    knn.Add(o.knn);
    ledger.Merge(o.ledger);
  }
  std::uint64_t completed() const { return range_ms.size() + knn_ms.size(); }
};

/// A seeded order in which clients take pairs: each slot is kNN with
/// probability `knn_share`, and the pair is uniform within its kind.
std::vector<std::size_t> MakeSchedule(const std::vector<Pair>& pairs,
                                      double knn_share, std::uint64_t seed) {
  std::vector<std::size_t> range_ids;
  std::vector<std::size_t> knn_ids;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    (pairs[p].kind == Kind::kRange ? range_ids : knn_ids).push_back(p);
  }
  tsss::Rng rng(seed);
  std::vector<std::size_t> schedule(1 << 16);
  for (std::size_t& slot : schedule) {
    const bool knn =
        !knn_ids.empty() && (range_ids.empty() || rng.Bernoulli(knn_share));
    const std::vector<std::size_t>& ids = knn ? knn_ids : range_ids;
    slot = ids[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))];
  }
  return schedule;
}

/// `kClients` threads, each with one request outstanding, submit pairs in
/// schedule order, from `*cursor` on, until `seconds` have passed; `*cursor`
/// is left where the next call should continue. Latency is client-observed:
/// from Submit() to the future's value.
QueryLog ClosedLoop(tsss::service::QueryService* service,
                    const std::vector<Pair>& pairs,
                    const std::vector<Vec>& queries,
                    const std::vector<std::size_t>& schedule,
                    std::size_t* cursor, double seconds, AnswerBook* book,
                    Tracer* tracer, double* elapsed_s) {
  std::atomic<std::size_t> next{*cursor};
  std::vector<QueryLog> logs(kClients);
  const Clock::time_point start = Clock::now();
  auto client = [&](QueryLog* log) {
    while (SecondsSince(start) < seconds) {
      const std::size_t p = schedule[next++ % schedule.size()];
      const Pair& pair = pairs[p];
      tsss::service::QueryRequest request;
      request.kind = pair.kind == Kind::kRange
                         ? tsss::service::QueryKind::kRange
                         : tsss::service::QueryKind::kKnn;
      request.query = queries[pair.query];
      request.eps = pair.eps;
      request.k = pair.k;
      Tracer::Scope span(tracer, "service.request",
                         tracer != nullptr ? tracer->NewQueryId() : 0);
      log->ledger.Attempt();
      const Clock::time_point sent = Clock::now();
      Result<std::future<tsss::service::QueryResponse>> future =
          service->Submit(std::move(request));
      if (!future.ok()) {
        log->ledger.Fail("rejected: " + future.status().ToString());
        continue;
      }
      tsss::service::QueryResponse response = future->get();
      const double ms = SecondsSince(sent) * 1e3;
      if (!response.status.ok()) {
        log->ledger.Fail("query failed: " + response.status.ToString());
        continue;
      }
      (pair.kind == Kind::kRange ? log->range_ms : log->knn_ms).push_back(ms);
      (pair.kind == Kind::kRange ? log->range : log->knn).Add(response.stats);
      log->wait_ms.push_back(
          ms - static_cast<double>(response.stats.cost.cpu_us) / 1e3);
      if (!book->Record(p, std::move(response.matches))) {
        log->ledger.Fail("pair " + std::to_string(p) + " answered two ways");
      }
    }
  };
  std::vector<std::thread> threads;
  for (QueryLog& log : logs) threads.emplace_back(client, &log);
  for (std::thread& t : threads) t.join();
  *elapsed_s = SecondsSince(start);
  *cursor = next;
  QueryLog merged;
  for (const QueryLog& log : logs) merged.Merge(log);
  return merged;
}

/// Times SearchEngine::ReducedPoint over every window of `values`: the part
/// of an insert that is reduction rather than index work.
double ReduceNs(const SearchEngine& engine, std::span<const double> values,
                std::size_t window, Tracer* tracer) {
  Tracer::Scope span(tracer, "reduce.point");
  const Clock::time_point start = Clock::now();
  for (std::size_t off = 0; off + window <= values.size(); ++off) {
    static_cast<void>(engine.ReducedPoint(values.subspan(off, window)));
  }
  return static_cast<double>(NanosSince(start));
}

/// Mean time of one direct SearchEngine::Knn call over the kNN pairs of the
/// first kComposedQueries query sequences, under "core.knn" spans.
Result<double> KnnDirectUs(const SearchEngine& engine,
                           const std::vector<Vec>& queries,
                           const std::vector<Pair>& pairs, Tracer* tracer) {
  std::vector<double> us;
  for (const Pair& pair : pairs) {
    if (pair.kind != Kind::kKnn || pair.query >= kComposedQueries) continue;
    Tracer::Scope span(tracer, "core.knn", tracer->NewQueryId());
    const Clock::time_point start = Clock::now();
    Result<std::vector<Match>> answer = engine.Knn(queries[pair.query], pair.k);
    us.push_back(SecondsSince(start) * 1e6);
    if (!answer.ok()) return answer.status();
  }
  return Mean(us);
}

/// The (query, eps) range pairs of the first kComposedQueries sequences.
std::vector<std::pair<std::size_t, double>> ComposedPairs(
    const std::vector<Pair>& pairs) {
  std::vector<std::pair<std::size_t, double>> out;
  for (const Pair& p : pairs) {
    if (p.kind == Kind::kRange && p.query < kComposedQueries) {
      out.emplace_back(p.query, p.eps);
    }
  }
  return out;
}

/// Adds layer metrics of a composed run (see RunComposed) and fails the
/// ledger when an answer differs or the layer spans do not cover the query.
void ComposedMetrics(const ComposedResult& c, const Tracer& tracer,
                     std::vector<Metric>* m, Ledger* ledger) {
  const std::string root = "core.range_query";
  const std::uint64_t q = c.queries;
  ledger->Attempt(q);
  if (c.mismatches > 0) {
    ledger->Fail("composed range answer differs from SearchEngine::RangeQuery",
                 c.mismatches);
  }
  auto total = [&](const char* name) {
    return static_cast<double>(tracer.Get(root, name).total_ns);
  };
  auto self = [&](const char* name) {
    return static_cast<double>(tracer.Get(root, name).self_ns);
  };
  // Identity: the self times of the layer spans must add up to the traced
  // end-to-end time, clocked outside the spans, within kMaxUnattributed. What
  // is left is the composed query's own code between layer calls (sorting
  // candidates, collecting matches, span bookkeeping); a layer call that lost
  // its span would be counted there.
  const double e2e = static_cast<double>(c.traced_ns);
  const double layers_self =
      static_cast<double>(tracer.SelfUnder(root)) - self(root.c_str());
  ledger->Attempt();
  if (!(e2e - layers_self <= kMaxUnattributed * e2e)) {
    ledger->Fail("layer self times (" + std::to_string(layers_self) +
                 " ns) cover less than " +
                 std::to_string(1.0 - kMaxUnattributed) +
                 " of the traced end-to-end time (" + std::to_string(e2e) +
                 " ns)");
  }
  // Store reads are timed over every composed pass: on a fully cached index
  // the timed passes make none, and only the warm-up's cold fill remains.
  const auto reads = static_cast<double>(c.store_reads);
  const auto read_ns = static_cast<double>(c.store_read_ns);
  m->push_back({"storage.page_read_us",
                reads == 0 ? 0.0 : NsToUs(read_ns / reads), "us",
                "one PageStore::Read under the benchmark's pool"});
  m->push_back({"storage.page_read_us_per_query",
                NsToUs(PerQuery(read_ns, c.query_runs)), "us",
                "PageStore::Read, warm-up pass included"});
  m->push_back({"index.line_query_self_us",
                NsToUs(PerQuery(self("index.line_query"), q)), "us",
                "RTree::LineQuery minus store reads"});
  m->push_back({"index.nodes_per_query",
                PerQuery(static_cast<double>(c.nodes), q), "count", ""});
  m->push_back({"core.verify_us_per_query",
                NsToUs(PerQuery(total("core.verify"), q)), "us",
                "VerifyCandidate"});
  m->push_back({"storage.window_read_us_per_query",
                NsToUs(PerQuery(total("storage.read_window"), q)), "us",
                "SequenceStore::ReadWindowDeduped"});
  m->push_back({"reduce.query_line_us",
                NsToUs(PerQuery(total("reduce.query_line"), q)), "us",
                "SearchEngine::ReducedQueryLine"});
  m->push_back({"core.self_us", NsToUs(PerQuery(self(root.c_str()), q)), "us",
                "composed query minus its layer calls"});
  m->push_back({"obs.trace_overhead_frac",
                e2e / static_cast<double>(c.untraced_ns) - 1.0, "frac",
                "composed query, traced / untraced - 1"});
}

void CounterMetrics(const StatsSum& range, const StatsSum& knn,
                    std::vector<Metric>* m) {
  StatsSum all = range;
  all.Add(knn);
  m->push_back({"storage.pool_hit_rate",
                all.index_reads == 0
                    ? 0.0
                    : 1.0 - static_cast<double>(all.index_misses) /
                                static_cast<double>(all.index_reads),
                "frac", ""});
  m->push_back({"storage.misses_per_query",
                PerQuery(static_cast<double>(all.index_misses), all.queries),
                "count", ""});
  m->push_back({"storage.data_pages_per_query",
                PerQuery(static_cast<double>(all.data_pages), all.queries),
                "count", ""});
  m->push_back({"index.candidates_per_query",
                PerQuery(static_cast<double>(range.candidates), range.queries),
                "count", "range queries"});
  m->push_back({"core.precision",
                range.candidates == 0
                    ? 0.0
                    : static_cast<double>(range.matches) /
                          static_cast<double>(range.candidates),
                "frac", "range matches / candidates"});
  m->push_back({"core.precision_base", static_cast<double>(range.candidates),
                "count", "candidates behind core.precision"});
  m->push_back({"core.knn_verified_per_query",
                PerQuery(static_cast<double>(knn.candidates), knn.queries),
                "count", ""});
}

/// Machine-wide CPU tick counters from /proc/stat; empty when unavailable.
std::vector<std::uint64_t> CpuTicks() {
  std::vector<std::uint64_t> ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  char label[16] = {};
  unsigned long long v = 0;
  if (std::fscanf(f, "%15s", label) == 1 && std::strcmp(label, "cpu") == 0) {
    while (ticks.size() < 10 && std::fscanf(f, "%llu", &v) == 1) {
      ticks.push_back(v);
    }
  }
  std::fclose(f);
  return ticks;
}

/// Share of all CPU time between two CpuTicks() readings that the hypervisor
/// gave to other guests (the "steal" column); 0 when unknown.
double StealShare(const std::vector<std::uint64_t>& before,
                  const std::vector<std::uint64_t>& after) {
  if (before.size() < 8 || after.size() != before.size()) return 0.0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < after.size(); ++i) total += after[i] - before[i];
  return total == 0 ? 0.0
                    : static_cast<double>(after[7] - before[7]) /
                          static_cast<double>(total);
}

/// Throughput and latency quantiles per round of a run, with the steal
/// measured over the round. A run reports the median over its rounds.
struct RoundFigures {
  struct Round {
    double steal;
    double qps;
    double range_p50;
    double range_p90;
    double knn_p50;  ///< NaN when the round ran no kNN query
    double knn_p90;
  };
  std::vector<Round> rounds;
  std::size_t range_samples = 0;
  std::size_t knn_samples = 0;

  void Add(double steal, double round_qps, const QueryLog& log) {
    range_samples += log.range_ms.size();
    knn_samples += log.knn_ms.size();
    rounds.push_back({steal, round_qps, Quantile(log.range_ms, 0.5),
                      Quantile(log.range_ms, 0.9), Quantile(log.knn_ms, 0.5),
                      Quantile(log.knn_ms, 0.9)});
  }
  std::size_t CountQuiet(double max_steal) const {
    return static_cast<std::size_t>(
        std::count_if(rounds.begin(), rounds.end(),
                      [&](const Round& r) { return r.steal <= max_steal; }));
  }
  /// Keeps only the `keep` rounds with the least steal.
  void KeepQuietest(std::size_t keep) {
    std::stable_sort(rounds.begin(), rounds.end(),
                     [](const Round& a, const Round& b) {
                       return a.steal < b.steal;
                     });
    if (rounds.size() > keep) rounds.resize(keep);
  }
  double MedianOf(double Round::*field) const {
    std::vector<double> values;
    for (const Round& r : rounds) {
      if (std::isfinite(r.*field)) values.push_back(r.*field);
    }
    return Median(values);
  }
};

void LatencyMetrics(const RoundFigures& f, const std::string& note,
                    std::vector<Metric>* m) {
  using Round = RoundFigures::Round;
  m->push_back({"range_p50_ms", f.MedianOf(&Round::range_p50), "ms",
                note + std::to_string(f.range_samples) + " samples"});
  m->push_back({"range_p90_ms", f.MedianOf(&Round::range_p90), "ms", ""});
  m->push_back({"knn_p50_ms", f.MedianOf(&Round::knn_p50), "ms",
                note + std::to_string(f.knn_samples) + " samples"});
  m->push_back({"knn_p90_ms", f.MedianOf(&Round::knn_p90), "ms", ""});
}

std::string RunDir(const Options& o, const std::string& name) {
  return o.work_dir + "/" + o.workload + "-" + name;
}

// --- probes: layers a workload's own traffic does not reach ----------------

/// Fan-out overhead on an in-memory 4-shard engine over the same corpus:
/// ShardedEngine::RangeQuery time minus its slowest leg, each leg being the
/// same query run directly on shard(i). Answers are checked too.
double FanoutProbeUs(const std::vector<tsss::seq::TimeSeries>& corpus,
                     const std::vector<Vec>& queries,
                     const std::vector<Pair>& pairs,
                     const OracleAnswers& oracle, std::size_t window,
                     Tracer* tracer, Ledger* ledger) {
  tsss::shard::ShardedEngineConfig config;
  config.engine.window = window;
  config.num_shards = kShards;
  Result<std::unique_ptr<ShardedEngine>> engine = ShardedEngine::Create(config);
  if (!engine.ok() || !(*engine)->BulkBuild(corpus).ok()) {
    ledger->Fail("fan-out probe: cannot build the sharded engine");
    return 0.0;
  }
  std::vector<double> overhead_us;
  for (std::size_t p = 0;
       p < pairs.size() && overhead_us.size() < kProbeQueries; ++p) {
    if (pairs[p].kind != Kind::kRange) continue;
    const Vec& query = queries[pairs[p].query];
    Tracer::Scope span(tracer, "shard.probe", tracer->NewQueryId());
    ledger->Attempt();
    Clock::time_point start = Clock::now();
    const Result<std::vector<Match>> answer = [&] {
      Tracer::Scope fan(tracer, "shard.range_query");
      return (*engine)->RangeQuery(query, pairs[p].eps);
    }();
    const double total_us = SecondsSince(start) * 1e6;
    double slowest_us = 0.0;
    for (std::uint32_t i = 0; i < kShards; ++i) {
      Tracer::Scope leg(tracer, "shard.leg");
      start = Clock::now();
      Result<std::vector<Match>> ignored =
          (*engine)->shard(i).RangeQuery(query, pairs[p].eps);
      slowest_us = std::max(slowest_us, SecondsSince(start) * 1e6);
      if (!ignored.ok()) ledger->Fail("fan-out probe leg failed");
    }
    overhead_us.push_back(total_us - slowest_us);
    if (!answer.ok() ||
        !SameAnswer(Kind::kRange, *answer, oracle.answers[p])) {
      ledger->Fail("fan-out probe: sharded answer differs from the oracle");
    }
  }
  return Mean(overhead_us);
}

/// Answers every pair of the pool on `engine` with kOracleThreads threads.
std::vector<Result<std::vector<Match>>> AnswerPool(
    const SearchEngine& engine, const std::vector<Vec>& queries,
    const std::vector<Pair>& pairs) {
  std::vector<Result<std::vector<Match>>> answers(
      pairs.size(), Status::Internal("not answered"));
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t p = next++; p < pairs.size(); p = next++) {
      const Pair& pair = pairs[p];
      answers[p] = pair.kind == Kind::kRange
                       ? engine.RangeQuery(queries[pair.query], pair.eps)
                       : engine.Knn(queries[pair.query], pair.k);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kOracleThreads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return answers;
}

/// Inserts `kProbeSeries` fresh series into `*engine` with AddSeries and
/// checkpoints: index insert time per window (reduction subtracted) and pool
/// write-backs per window. Then the durability check: the whole pool is
/// answered before the engine is closed and again after SearchEngine::Open
/// of `dir`; a pair whose answer changed across the reopen, or differs from
/// the oracle over the corpus with the new series, is a failure. Runs after
/// every other check, as it changes the index; `*engine` ends up reopened.
Status InsertProbe(std::unique_ptr<SearchEngine>* engine, const std::string& dir,
                   const Options& o,
                   const std::vector<tsss::seq::TimeSeries>& corpus,
                   const std::vector<Vec>& queries,
                   const std::vector<Pair>& pairs, Tracer* tracer,
                   std::vector<Metric>* m, Ledger* ledger) {
  auto query_id = [&] { return tracer != nullptr ? tracer->NewQueryId() : 0; };
  std::vector<tsss::seq::TimeSeries> grown = corpus;
  const std::uint64_t writebacks = (*engine)->pool().metrics().writebacks;
  double add_ns = 0.0;
  double reduce_ns = 0.0;
  std::size_t windows = 0;
  for (std::size_t i = 0; i < kProbeSeries; ++i) {
    const tsss::seq::TimeSeries series = tsss::seq::GenerateGbmPath(
        "probe-" + std::to_string(i), o.values, 20.0, 0.0004, 0.02,
        o.seed * 31 + i);
    ledger->Attempt();
    {
      Tracer::Scope span(tracer, "index.add_series", query_id());
      const Clock::time_point start = Clock::now();
      Result<tsss::storage::SeriesId> id =
          (*engine)->AddSeries(series.name, series.values);
      add_ns += static_cast<double>(NanosSince(start));
      if (!id.ok()) ledger->Fail("insert probe: " + id.status().ToString());
    }
    reduce_ns += ReduceNs(**engine, series.values, o.window, tracer);
    windows += series.values.size() - o.window + 1;
    grown.push_back(series);
  }
  ledger->Attempt();
  {
    Tracer::Scope span(tracer, "storage.checkpoint", query_id());
    if (!(*engine)->Checkpoint().ok()) ledger->Fail("insert probe: checkpoint");
  }
  const double w = static_cast<double>(windows);
  m->push_back({"index.insert_us_per_window", NsToUs((add_ns - reduce_ns) / w),
                "us", "probe: AddSeries minus ReducedPoint"});
  m->push_back({"storage.writebacks_per_window",
                static_cast<double>((*engine)->pool().metrics().writebacks -
                                    writebacks) /
                    w,
                "count", "probe: AddSeries + Checkpoint"});

  const std::vector<Result<std::vector<Match>>> before =
      AnswerPool(**engine, queries, pairs);
  engine->reset();
  Result<std::unique_ptr<SearchEngine>> reopened = SearchEngine::Open(dir);
  if (!reopened.ok()) return reopened.status();
  *engine = std::move(reopened).value();
  (*engine)->set_cold_cache_per_query(false);
  const std::vector<Result<std::vector<Match>>> after =
      AnswerPool(**engine, queries, pairs);
  const OracleAnswers oracle =
      RunOracle(grown, o.window, queries, pairs, kOracleThreads);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    ledger->Attempt(2);
    if (!before[p].ok() || !after[p].ok()) {
      ledger->Fail("durability: pair " + std::to_string(p) + " failed");
      continue;
    }
    if (!SameAnswer(pairs[p].kind, *after[p], *before[p]) ||
        !SameAnswer(pairs[p].kind, *after[p], oracle.answers[p])) {
      ledger->Fail("durability: pair " + std::to_string(p) +
                   " lost or changed across checkpoint and reopen");
    }
  }
  return Status::OK();
}

// --- range_pool_miss and mixed_warm -------------------------------------------

Result<std::size_t> IndexPages(const std::vector<tsss::seq::TimeSeries>& corpus,
                               std::size_t window) {
  tsss::core::EngineConfig config;
  config.window = window;
  Result<std::unique_ptr<SearchEngine>> engine = SearchEngine::Create(config);
  if (!engine.ok()) return engine.status();
  if (Status s = (*engine)->BulkBuild(corpus); !s.ok()) return s;
  Result<tsss::index::TreeStats> stats = (*engine)->tree().ComputeStats();
  if (!stats.ok()) return stats.status();
  return stats->node_pages;
}

Status WarmUp(SearchEngine* engine, const std::vector<Vec>& queries) {
  engine->set_cold_cache_per_query(false);
  Status s = engine->tree().VisitNodes(
      [](const tsss::index::Node&, tsss::storage::PageId) {});
  if (!s.ok()) return s;
  for (std::size_t q = 0; q < std::min<std::size_t>(8, queries.size()); ++q) {
    Result<std::vector<Match>> ignored = engine->RangeQuery(queries[q], 0.1);
    if (!ignored.ok()) return ignored.status();
  }
  return Status::OK();
}

Result<WorkloadOutput> RunServed(const Options& o, Tracer* tracer,
                                 bool pool_miss) {
  WorkloadOutput out;
  tsss::bench::BenchEnv env;
  env.companies = o.companies;
  env.values = o.values;
  const auto corpus = tsss::bench::MakeMarket(env, o.corpus_seed);
  const auto queries =
      tsss::bench::MakeQueries(corpus, o.queries, o.window, o.seed);
  out.windows = CountWindows(corpus, o.window);
  const std::vector<Pair> pairs =
      pool_miss ? MakePairs(o.queries, {0.0, 0.05, 0.1}, {10})
                : MakePairs(o.queries, {0.1, 0.25, 0.5}, {1, 10, 50});

  std::size_t pool_pages = tsss::core::EngineConfig{}.buffer_pool_pages;
  if (pool_miss) {
    Result<std::size_t> pages = IndexPages(corpus, o.window);
    if (!pages.ok()) return pages.status();
    pool_pages = std::max<std::size_t>(1, *pages / 8);
  }

  // Set-up, several times: BulkBuild, Checkpoint, Open and warm-up.
  std::vector<double> setup_s;
  std::vector<double> bulk_windows_per_s;
  std::vector<double> checkpoint_ms;
  std::unique_ptr<SearchEngine> engine;
  const std::string dir = RunDir(o, "index");
  for (std::size_t rep = 0; rep < kServedSetups; ++rep) {
    engine.reset();
    fs::remove_all(dir);
    const Clock::time_point start = Clock::now();
    tsss::core::EngineConfig config;
    config.window = o.window;
    config.buffer_pool_pages = pool_pages;
    config.cold_cache_per_query = false;
    config.storage_dir = dir;
    Result<std::unique_ptr<SearchEngine>> created = SearchEngine::Create(config);
    if (!created.ok()) return created.status();
    Clock::time_point step = Clock::now();
    if (Status s = (*created)->BulkBuild(corpus); !s.ok()) return s;
    bulk_windows_per_s.push_back(static_cast<double>(out.windows) /
                                 SecondsSince(step));
    step = Clock::now();
    if (Status s = (*created)->Checkpoint(); !s.ok()) return s;
    checkpoint_ms.push_back(SecondsSince(step) * 1e3);
    created->reset();
    Result<std::unique_ptr<SearchEngine>> opened = SearchEngine::Open(dir);
    if (!opened.ok()) return opened.status();
    engine = std::move(opened).value();
    if (Status s = WarmUp(engine.get(), queries); !s.ok()) return s;
    setup_s.push_back(SecondsSince(start));
  }
  const double disk_bytes = static_cast<double>(DirBytes(dir));

  // The timed closed loop(s).
  tsss::service::ServiceConfig service_config;
  service_config.num_workers = kWorkers;
  Result<std::unique_ptr<tsss::service::QueryService>> service =
      tsss::service::QueryService::Create(engine.get(), service_config);
  if (!service.ok()) return service.status();
  // Rounds of kRoundSeconds. range_pool_miss spends 3/4 of each round on
  // range queries (its qps) and 1/4 on kNN; mixed_warm mixes them. On a
  // shared host, other guests' load ("steal") slows a round by far more than
  // run-to-run differences of the program itself, and such episodes last
  // minutes, so the run goes on past --seconds, up to kMaxRoundsFactor times
  // as long, until half of its planned rounds were quiet, and reports the
  // medians over the half of the planned rounds that saw the least steal.
  AnswerBook book(pairs.size());
  QueryLog log;
  RoundFigures figures;
  const auto planned = static_cast<std::size_t>(
      std::max(1.0, std::round(o.seconds / kRoundSeconds)));
  const std::size_t keep = (planned + 1) / 2;
  const double round_s = o.seconds / static_cast<double>(planned);
  const std::vector<std::size_t> range_schedule =
      MakeSchedule(pairs, pool_miss ? 0.0 : 0.3, o.seed);
  const std::vector<std::size_t> knn_schedule =
      MakeSchedule(pairs, 1.0, o.seed + 1);
  std::size_t range_cursor = 0;
  std::size_t knn_cursor = 0;
  for (std::size_t r = 0; r < kMaxRoundsFactor * planned; ++r) {
    if (r >= planned && figures.CountQuiet(kQuietSteal) >= keep) break;
    const std::vector<std::uint64_t> ticks = CpuTicks();
    double elapsed_s = 0.0;
    QueryLog round = ClosedLoop(service->get(), pairs, queries, range_schedule,
                                &range_cursor,
                                pool_miss ? 0.75 * round_s : round_s, &book,
                                tracer, &elapsed_s);
    const double qps = static_cast<double>(round.completed()) / elapsed_s;
    if (pool_miss) {
      round.Merge(ClosedLoop(service->get(), pairs, queries, knn_schedule,
                             &knn_cursor, 0.25 * round_s, &book, tracer,
                             &elapsed_s));
    }
    figures.Add(StealShare(ticks, CpuTicks()), qps, round);
    log.Merge(round);
  }
  const std::size_t rounds_run = figures.rounds.size();
  figures.KeepQuietest(keep);
  const std::string note =
      "median of the " + std::to_string(figures.rounds.size()) +
      " least-steal of " + std::to_string(rounds_run) + " rounds (steal <= " +
      std::to_string(figures.rounds.back().steal) + "), ";
  const tsss::service::ServiceMetrics service_stats = (*service)->Stats();
  (*service)->Shutdown();
  service->reset();
  out.ledger.Merge(log.ledger);
  out.completed_queries = log.completed();

  // Every pair of the pool against the oracle, outside the timed window.
  const OracleAnswers oracle =
      RunOracle(corpus, o.window, queries, pairs, kOracleThreads);
  CheckBook(
      pairs, oracle,
      [&](const Pair& p) {
        return p.kind == Kind::kRange ? engine->RangeQuery(queries[p.query], p.eps)
                                      : engine->Knn(queries[p.query], p.k);
      },
      o.inject_wrong_answer, &book, &out.ledger);

  std::vector<Metric>& e2e = out.end_to_end;
  e2e.push_back({"setup_s", Median(setup_s), "s",
                 "median of " + std::to_string(setup_s.size()) + " set-ups"});
  e2e.push_back({"qps", figures.MedianOf(&RoundFigures::Round::qps), "1/s",
                 note + (pool_miss ? "range phases, 4 clients" : "4 clients")});
  LatencyMetrics(figures, note, &e2e);
  e2e.push_back({"ingest_windows_per_s", Median(bulk_windows_per_s), "1/s",
                 "BulkBuild"});
  e2e.push_back({"checkpoint_ms", Median(checkpoint_ms), "ms",
                 "set-up checkpoints"});
  e2e.push_back({"disk_bytes_per_value",
                 disk_bytes / (static_cast<double>(TotalValues(corpus)) * 8.0),
                 "ratio", ""});
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB", ""});

  if (tracer != nullptr) {
    std::vector<Metric>& m = out.per_layer;
    CounterMetrics(log.range, log.knn, &m);
    m.push_back({"service.wait_ms", Mean(log.wait_ms), "ms",
                 "client latency - QueryStats.cost.cpu_us"});
    m.push_back({"service.rejected", static_cast<double>(service_stats.rejected),
                 "count", ""});
    m.push_back({"service.p99_ms", service_stats.p99_latency_ms, "ms", ""});
    const auto range_pairs = ComposedPairs(pairs);
    Result<ComposedResult> composed = RunComposed(
        *engine, pool_pages, queries, range_pairs, tracer, o.drop_span);
    if (!composed.ok()) return composed.status();
    ComposedMetrics(*composed, *tracer, &m, &out.ledger);
    Result<double> knn_us = KnnDirectUs(*engine, queries, pairs, tracer);
    if (!knn_us.ok()) return knn_us.status();
    m.push_back({"core.knn_us", *knn_us, "us", "SearchEngine::Knn"});
    m.push_back({"seq.scan_ms_per_query", Mean(oracle.scan_ms), "ms",
                 "sequential-scan oracle, 4 threads"});
    m.push_back({"shard.fanout_overhead_us",
                 FanoutProbeUs(corpus, queries, pairs, oracle, o.window, tracer,
                               &out.ledger),
                 "us", "probe: in-memory 4-shard engine"});
  }
  if (Status s = InsertProbe(&engine, dir, o, corpus, queries, pairs, tracer,
                             &out.per_layer, &out.ledger);
      !s.ok()) {
    return s;
  }
  engine.reset();
  fs::remove_all(dir);
  return out;
}

}  // namespace

Result<WorkloadOutput> RunWorkload(const Options& options, Tracer* tracer) {
  fs::create_directories(options.work_dir);
  if (options.workload == "range_pool_miss") {
    return RunServed(options, tracer, /*pool_miss=*/true);
  }
  if (options.workload == "mixed_warm") {
    return RunServed(options, tracer, /*pool_miss=*/false);
  }
  return Status::InvalidArgument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
