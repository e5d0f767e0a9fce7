#ifndef TSSS_CORE_ENGINE_H_
#define TSSS_CORE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tsss/common/mutex.h"
#include "tsss/common/status.h"
#include "tsss/common/thread_annotations.h"
#include "tsss/core/similarity.h"
#include "tsss/geom/penetration.h"
#include "tsss/obs/explain.h"
#include "tsss/obs/query_ledger.h"
#include "tsss/obs/trace.h"
#include "tsss/index/rtree.h"
#include "tsss/reduce/reducer.h"
#include "tsss/seq/dataset.h"
#include "tsss/seq/time_series.h"
#include "tsss/storage/buffer_pool.h"
#include "tsss/storage/file_page_store.h"
#include "tsss/storage/page_store.h"

namespace tsss::core {

/// Which path SearchEngine::RangeQuery takes. Every plan returns the same
/// answers, bit for bit, at every eps (eps = 0 and a window exactly at eps
/// included): both paths filter with a written rounding bound (the scan's
/// error band, the index's IndexFilterSlack) and re-verify the survivors
/// with the same VerifyCandidate at eps.
enum class RangePlan : std::uint8_t {
  /// Per query, whichever of scan and index the cost model prices lower
  /// (see kIndexEntryCostInScanWindows).
  kAuto,
  /// Always the R-tree walk. The paper's Figure 4/5 reproductions and the
  /// tests of the index mechanics pin this, since they measure the index.
  kIndex,
  /// Always the sliding-sum scan (core/fast_scan.h). Fails with
  /// FailedPrecondition when the index does not cover every window on the
  /// stride grid (after RemoveWindow), since the scan would then report
  /// windows the index no longer holds.
  kScan,
};

/// The planner's one constant: the cost of the index path per leaf entry it
/// reads, in units of the cost of one window of the sliding-sum scan. The
/// planner scans when (leaf frontier pages x mean leaf entries x this) is
/// more than the windows the scan reads. The leaf entry price includes
/// everything the index path spends on it: the node fetch and decode, the
/// PLD test, and reading and verifying the candidates it yields.
///
/// Provenance: default corpus (200 x 650 StockGenerator values, 104 600
/// windows, window 128, DFT to 6 dims, STR bulk load), the 40
/// bench::MakeQueries queries, warm in-memory engine, Release build, one
/// thread, 4-core x86-64 container. A prototype scan measured ~0.31 us per
/// leaf entry on the index path against ~48 ns per scanned window (ratio
/// ~6.5); this scan, median of 3 passes, measured ~0.41 us per leaf entry
/// (eps 0.25: 11.9 ms for 28 974 entries) against ~67 ns per window (7.0 ms
/// for 104 600 windows), ratio ~6.2. Re-measure when either path gets
/// faster (ROADMAP item 1 makes the index walk allocation-free).
inline constexpr double kIndexEntryCostInScanWindows = 6.5;

/// End-to-end configuration of the scale-shift search engine. Defaults
/// reproduce the paper's experimental setting: window subsequences reduced by
/// DFT to 3 complex coefficients (R*-tree dimension 6), M = 20, m = 8,
/// forced-reinsert p = 6, 4 KiB pages.
struct EngineConfig {
  std::size_t window = 128;  ///< extraction window length n
  std::size_t stride = 1;    ///< sliding-window step
  reduce::ReducerKind reducer = reduce::ReducerKind::kDft;
  std::size_t reduced_dim = 6;  ///< R-tree dimensionality after reduction
  /// Sub-trail indexing (the ST-index of [2], which the paper builds on):
  /// instead of one R-tree point per window, group this many *consecutive*
  /// windows of a series into one leaf entry whose MBR bounds their reduced
  /// points. 0 = point mode (one entry per window). Trails shrink the index
  /// by ~this factor and slash page reads; the trade-off is that a trail
  /// hit makes all of its windows verification candidates.
  std::size_t subtrail_len = 0;
  index::RTreeConfig tree;      ///< tree.dim is overwritten with reduced_dim
  geom::PruneStrategy prune = geom::PruneStrategy::kEepOnly;
  std::size_t buffer_pool_pages = 8192;
  /// Drop the buffer-pool cache before every query, the paper's I/O model
  /// (each query starts cold; Figure 5 counts all node reads).
  bool cold_cache_per_query = true;
  /// When non-empty, the index lives in files under this directory
  /// (created if missing) instead of RAM, and Checkpoint()/Open() provide
  /// persistence across processes.
  std::string storage_dir;
  /// How RangeQuery answers (see RangePlan). A query-time choice, not a
  /// property of the index: it is not written to engine.meta, and Open()
  /// starts from kAuto.
  RangePlan range_plan = RangePlan::kAuto;
};

/// Decoded contents of an engine.meta file (written by Checkpoint, read by
/// Open; format in persistence.cc).
struct EngineMeta {
  EngineConfig config;  ///< storage_dir left empty; Open() fills it in
  std::size_t indexed_windows = 0;
  storage::PageId root = storage::kInvalidPageId;
  std::size_t height = 0;
  std::size_t tree_size = 0;
};

/// Parses engine.meta text. The input is untrusted: every numeric field is
/// range-checked before narrowing (a huge/NaN value in the text would
/// otherwise make the double -> integer casts undefined behaviour) and enum
/// fields are validated against their known values, so a corrupt file yields
/// a Corruption status rather than UB or an aborted invariant check.
/// Exposed (rather than kept static in persistence.cc) so the fuzz harness
/// can drive the parser over in-memory buffers. Defined in persistence.cc.
Result<EngineMeta> ParseEngineMeta(std::istream& in);

/// The per-query ledger: every fact one query records, each stored once.
/// The buffer pool, the sequence store and the index walk tick the
/// obs::QueryLedger base through one thread-local install per query; the
/// engine adds what only it knows. Everything else a report shows (the
/// EP/BS/exact prune split, the post-filtered count, the hit/miss split,
/// bytes touched) is derived from this record where it is used — see
/// CostOf, AnnotateSpan and SearchEngine::ExplainFromStats.
///
/// Write rule: a query that succeeds overwrites the caller's whole record,
/// on SearchEngine and on shard::ShardedEngine alike (the sharded total is
/// the operator+= sum over shards). A failed query leaves it untouched.
struct QueryStats : obs::QueryLedger {
  std::uint64_t candidates = 0;  ///< windows exactly verified
  std::uint64_t matches = 0;     ///< verified answers
  /// Windows the sliding-sum scan estimated (zero on the index path).
  std::uint64_t windows_scanned = 0;
  /// The range planner's record; all zero for k-NN and long-range queries.
  /// Counts, not a flag, so a sharded sum says how many shards took each
  /// path.
  struct Plan {
    std::uint64_t index = 0;  ///< range queries answered by the index
    std::uint64_t scan = 0;   ///< range queries answered by the scan
    /// Leaf pages the internal levels of the walk admitted (zero when the
    /// walk did not run, i.e. under RangePlan::kScan).
    std::uint64_t leaf_pages = 0;
    /// The two estimates, in scanned-window units: leaf_pages x mean leaf
    /// entries x kIndexEntryCostInScanWindows, and the windows on the
    /// stride grid.
    std::uint64_t index_cost = 0;
    std::uint64_t scan_cost = 0;

    Plan& operator+=(const Plan& other) {
      index += other.index;
      scan += other.scan;
      leaf_pages += other.leaf_pages;
      index_cost += other.index_cost;
      scan_cost += other.scan_cost;
      return *this;
    }
  } plan;
  /// Penetration tests of the range walk(s); zero for k-NN, whose
  /// best-first walk runs no penetration tests.
  geom::PenetrationStats penetration;
  struct Cpu {
    /// Thread CPU time the query burned (CLOCK_THREAD_CPUTIME_ID).
    std::uint64_t cpu_us = 0;
  } cost;

  std::uint64_t total_page_reads() const {
    return index_page_reads + data_page_reads;
  }

  QueryStats& operator+=(const QueryStats& other) {
    obs::QueryLedger::operator+=(other);
    candidates += other.candidates;
    matches += other.matches;
    windows_scanned += other.windows_scanned;
    plan += other.plan;
    penetration += other.penetration;
    cost.cpu_us += other.cost.cpu_us;
    return *this;
  }
};

/// What a query spent, derived from its ledger: CPU time, the hit/miss
/// split of its index-page reads, data pages, bytes touched at page
/// granularity, and windows verified. Defined in explain.cc.
obs::QueryCost CostOf(const QueryStats& stats);

/// Attaches a query's ledger and its derived prune split to `span`
/// (ep_prunes/bs_prunes always, other counters when non-zero, per-level
/// node visits as nodes_level_<i>). No-op when span is null or tracing is
/// off. Defined in explain.cc.
void AnnotateSpan(obs::TraceSpan* span, const QueryStats& stats);

/// A monotonically tightening upper bound on the k-th best exact distance,
/// shared by concurrent k-NN sub-queries over disjoint partitions of one
/// logical index (shard scatter-gather). Each partition publishes its local
/// k-th best distance as it improves; every partition polls the bound and
/// stops its index walk early once the next candidate's *lower* bound
/// (reduced distance) exceeds it. Correctness: the bound is always >= the
/// global k-th best distance (a local k-th order statistic can only be
/// larger than the union's), and the walk only skips candidates *strictly*
/// above it, so no true neighbour is ever dismissed — the merged answer is
/// bit-identical to a single-engine run. Lock-free; safe from any thread.
class KnnSharedBound {
 public:
  /// Lowers the bound to `distance` if it improves it (CAS min).
  void Tighten(double distance) {
    // The bound is a self-contained monotone hint — readers act only on
    // its value, never on data it would publish; a stale read just delays
    // a prune and cannot change the merged answer.
    // relaxed-ok: monotone hint, no payload (see above)
    double current = bound_.load(std::memory_order_relaxed);
    while (distance < current &&
           !bound_.compare_exchange_weak(current, distance,
                                         // relaxed-ok: same hint as above
                                         std::memory_order_relaxed)) {
    }
  }
  /// Current bound; +infinity until any partition has k results.
  double Get() const {
    // relaxed-ok: monotone pruning hint, no payload to acquire
    return bound_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> bound_{std::numeric_limits<double>::infinity()};
};

/// The paper's system: a dynamic index over all length-n windows of a set of
/// time series supporting range and k-NN queries under scale-shift
/// similarity (Definition 1), with no false dismissals.
///
/// Pipeline (Sections 5-6): window -> SE-transform -> linear reduction ->
/// point in the R*-tree. A query becomes a line in the reduced SE space;
/// subtrees are pruned by eps-MBR penetration (Theorem 3); leaf candidates
/// are verified exactly against the raw data, and each answer carries its
/// optimal (a, b).
///
/// Thread safety: the const query methods (RangeQuery, Knn, LongRangeQuery,
/// ReadWindow) may run concurrently from many threads over one engine,
/// provided cold_cache_per_query is off (a per-query pool Clear() would
/// evict pages out from under concurrent readers; service::QueryService
/// turns it off). Each query fills its own thread-locally installed
/// ledger (QueryStats), so concurrent queries never mix up each other's
/// counts. Mutations (AddSeries, Append, BulkBuild, RemoveWindow,
/// Checkpoint, the setters) require exclusive access: no query or other
/// mutation may be in flight.
class SearchEngine {
 public:
  static Result<std::unique_ptr<SearchEngine>> Create(const EngineConfig& config);

  /// Reopens an engine previously persisted with Checkpoint() into
  /// `storage_dir`. The saved configuration is restored from disk.
  /// Defined in persistence.cc.
  static Result<std::unique_ptr<SearchEngine>> Open(const std::string& storage_dir);

  /// Persists everything needed to Open() later: flushes the buffer pool,
  /// syncs the page file, and writes the dataset and engine metadata.
  /// Requires a file-backed engine (config().storage_dir non-empty).
  /// Defined in persistence.cc.
  Status Checkpoint();

  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;

  /// Adds a series and indexes every complete window (dynamic insertion,
  /// requirement 2 of Section 3). Returns the series id.
  Result<storage::SeriesId> AddSeries(std::string name,
                                      std::span<const double> values);

  /// Appends new observations to the most recently added series and indexes
  /// the windows completed by them (streaming ingestion).
  Status Append(storage::SeriesId id, std::span<const double> values);

  /// Adds many series and bulk-loads the index with STR packing - orders of
  /// magnitude faster than repeated AddSeries for large corpora.
  /// Must be called on an empty engine.
  Status BulkBuild(const std::vector<seq::TimeSeries>& corpus);

  /// Removes one window from the index (the raw values stay in the dataset).
  Status RemoveWindow(index::RecordId record);

  /// All windows S' with Q ~eps S' (Definition 1), each with its optimal
  /// (a, b), filtered by `cost`. `query` must have length == window.
  /// Results are sorted by (series, offset). `stats` may be null.
  Result<std::vector<Match>> RangeQuery(std::span<const double> query, double eps,
                                        const TransformCost& cost = {},
                                        QueryStats* stats = nullptr) const;

  /// The k nearest windows under the exact scale-shift distance
  /// (Corollary 1), via GEMINI-style multi-step search over the index's
  /// nearest-line-neighbour iterator. Results sorted by (distance, record);
  /// the record id breaks exact distance ties so the answer is a
  /// deterministic function of the indexed set — shard::ShardedEngine relies
  /// on this to merge per-shard top-k lists bit-identically. `shared_bound`,
  /// when non-null, lets concurrent sub-queries over disjoint partitions
  /// tighten each other's termination bound (see KnnSharedBound).
  Result<std::vector<Match>> Knn(std::span<const double> query, std::size_t k,
                                 const TransformCost& cost = {},
                                 QueryStats* stats = nullptr,
                                 KnnSharedBound* shared_bound = nullptr) const;

  /// Range query for queries *longer* than the window (Section 7, following
  /// [2]): the query is cut into floor(|Q|/n) disjoint length-n pieces, each
  /// searched with eps/sqrt(p); candidates are verified against the full
  /// query. Requires stride == 1. Defined in long_query.cc.
  Result<std::vector<Match>> LongRangeQuery(std::span<const double> query,
                                            double eps,
                                            const TransformCost& cost = {},
                                            QueryStats* stats = nullptr) const;

  /// Reads the raw values of the window identified by `record` (counted as
  /// data page reads).
  Result<geom::Vec> ReadWindow(index::RecordId record) const;

  const EngineConfig& config() const { return config_; }

  /// Switches the node-pruning strategy for subsequent queries (the paper's
  /// experiment sets 2 and 3 differ only in this; the benchmarks flip it on
  /// one engine instead of rebuilding the index).
  void set_prune_strategy(geom::PruneStrategy strategy) {
    config_.prune = strategy;
  }

  /// Switches the range-query plan for subsequent queries (see RangePlan).
  void set_range_plan(RangePlan plan) { config_.range_plan = plan; }

  /// Toggles the cold-cache-per-query I/O model (see EngineConfig). With
  /// warm caching, index_page_misses in QueryStats reports the physical
  /// reads that survive the buffer pool.
  void set_cold_cache_per_query(bool cold) { config_.cold_cache_per_query = cold; }
  seq::Dataset& dataset() { return dataset_; }
  const seq::Dataset& dataset() const { return dataset_; }
  index::RTree& tree() { return *tree_; }
  const index::RTree& tree() const { return *tree_; }
  storage::BufferPool& pool() { return *pool_; }
  const storage::BufferPool& pool() const { return *pool_; }
  const reduce::Reducer& reducer() const { return *reducer_; }
  /// Number of windows covered by the index (equals the tree's entry count
  /// in point mode; in sub-trail mode one tree entry covers many windows).
  std::size_t num_indexed_windows() const { return indexed_windows_; }

  /// Plan report of the most recent successful query on this engine, with
  /// or without a caller-supplied QueryStats. Combines the saved ledger with
  /// the tree's current structural profile and the sequential-scan
  /// baseline. Thread-safe; returns NotFound before the first query.
  /// Defined in explain.cc.
  Result<obs::ExplainReport> ExplainLast() const;

  /// Builds the plan report for ONE specific query from its identity and its
  /// QueryStats — the same derivation ExplainLast() applies to the engine's
  /// saved snapshot, but over stats the caller already holds. This is how
  /// the service layer assembles a flight-recorder capture without racing
  /// other workers for the engine-wide "last query" slot. Thread-safe (reads
  /// the tree's structural profile). Defined in explain.cc.
  Result<obs::ExplainReport> ExplainFromStats(const std::string& kind,
                                              double eps, std::uint64_t k,
                                              std::uint64_t elapsed_us,
                                              const QueryStats& stats) const;

  /// SE-transform + reduction of one window: the point actually indexed.
  geom::Vec ReducedPoint(std::span<const double> window) const;

  /// The query's line in the reduced SE space (through the origin).
  geom::Line ReducedQueryLine(std::span<const double> query) const;

 private:
  explicit SearchEngine(const EngineConfig& config);

  /// Snapshot of one finished query, the raw material of ExplainLast().
  struct LastQuery {
    const char* kind = "range";  ///< "range" | "knn" | "long_range"
    double eps = 0.0;
    std::uint64_t k = 0;  ///< k-NN only
    geom::PruneStrategy prune = geom::PruneStrategy::kEepOnly;
    std::uint64_t elapsed_us = 0;
    QueryStats stats;
  };

  /// Ends a successful query that started at `start` (steady clock) and
  /// `cpu_start_us` (a ThreadCpuNowUs() reading): stamps its elapsed and
  /// CPU time, annotates its root span, snapshots it for ExplainLast() and
  /// writes it to `stats` if the caller passed one.
  void FinishQuery(LastQuery last, std::chrono::steady_clock::time_point start,
                   std::uint64_t cpu_start_us, obs::TraceSpan* span,
                   QueryStats* stats) const TSSS_EXCLUDES(last_query_mu_);

  Status IndexWindows(storage::SeriesId id, std::size_t first_offset);
  Status IndexWindowsTrail(storage::SeriesId id, std::size_t first_offset);
  /// Builds the MBR over the reduced points of windows with indices
  /// [first_widx, last_widx] (inclusive, in stride units) of `values`.
  geom::Mbr TrailBox(std::span<const double> values, std::size_t first_widx,
                     std::size_t last_widx) const;
  /// Expands a leaf candidate to the window offsets it stands for (one in
  /// point mode, up to subtrail_len in trail mode).
  Status ExpandCandidate(index::RecordId record,
                         std::vector<index::RecordId>* out) const;
  /// The two halves of RangeQuery after planning: the rest of the index
  /// walk from its leaf frontier plus candidate verification, or the
  /// sliding-sum scan. Both fill `ledger` and append to `matches` in
  /// (series, offset) order. The index filters at `radius` (eps plus
  /// IndexFilterSlack) and verifies at eps.
  Status RangeByIndex(const geom::Line& line,
                      std::span<const storage::PageId> leaves, double radius,
                      const QueryContext& ctx, double eps,
                      const TransformCost& cost, QueryStats* ledger,
                      std::vector<Match>* matches) const;
  Status RangeByScan(const QueryContext& ctx, double eps,
                     const TransformCost& cost, QueryStats* ledger,
                     std::vector<Match>* matches) const;
  /// Per-query setup (cold-cache drop when configured). Fails when the pool
  /// cannot be cleared — a silent failure here would quietly turn cold-cache
  /// measurements into warm-cache ones.
  Status BeginQuery() const;

  EngineConfig config_;
  std::unique_ptr<reduce::Reducer> reducer_;
  seq::Dataset dataset_;
  std::unique_ptr<storage::PageStore> page_store_;
  /// Non-null alias of page_store_ when file-backed (for Sync()).
  storage::FilePageStore* file_store_ = nullptr;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<index::RTree> tree_;
  std::size_t indexed_windows_ = 0;

  /// mutable: recording the last query is observability, not logical
  /// mutation, and happens on the const query path.
  mutable Mutex last_query_mu_;
  mutable std::optional<LastQuery> last_query_ TSSS_GUARDED_BY(last_query_mu_);
};

}  // namespace tsss::core

#endif  // TSSS_CORE_ENGINE_H_
