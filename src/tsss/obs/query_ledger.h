#ifndef TSSS_OBS_QUERY_LEDGER_H_
#define TSSS_OBS_QUERY_LEDGER_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace tsss::obs {

/// The facts the layers below the engine record about one query: the pages
/// it read through the buffer pool and the sequence store, and how the index
/// walk went. core::QueryStats extends this with what the engine itself
/// knows (candidates, matches, penetration tests, CPU time); everything else
/// a report shows is derived from the two at the point of use.
///
/// A query runs on one thread, so the fields are plain integers. The engine
/// installs one ledger thread-locally (ScopedQueryLedger) for the whole
/// query, and storage and index tick it through the inline helpers below.
/// Thread-local installation means concurrent queries never share a ledger.
/// Outside any query (ingest, checkpoint) no ledger is installed and every
/// tick is a thread-local read plus an untaken branch.
struct QueryLedger {
  /// Deepest tree level tracked individually; deeper levels fold into the
  /// last slot. Fanout >= 32 makes a 16-level tree ~32^16 entries, far past
  /// any realistic dataset.
  static constexpr std::size_t kMaxLevels = 16;

  std::uint64_t index_page_reads = 0;   ///< BufferPool Fetch/New calls
  std::uint64_t index_page_misses = 0;  ///< of those, buffer-pool misses
  std::uint64_t data_page_reads = 0;    ///< raw-data pages read for verification
  /// Nodes loaded per tree level; [0] counts leaves, matching index/node.h.
  std::array<std::uint64_t, kMaxLevels> nodes_per_level{};
  /// Line-to-MBR distance evaluations (LineMbrDistance calls).
  std::uint64_t mbr_distance_evals = 0;
  /// Index entries that survived the filter (tree entries, before a
  /// sub-trail hit is expanded into its windows).
  std::uint64_t leaf_candidates = 0;

  std::uint64_t nodes_visited() const {
    std::uint64_t total = 0;
    for (const std::uint64_t n : nodes_per_level) total += n;
    return total;
  }

  QueryLedger& operator+=(const QueryLedger& other) {
    index_page_reads += other.index_page_reads;
    index_page_misses += other.index_page_misses;
    data_page_reads += other.data_page_reads;
    for (std::size_t i = 0; i < kMaxLevels; ++i) {
      nodes_per_level[i] += other.nodes_per_level[i];
    }
    mbr_distance_evals += other.mbr_distance_evals;
    leaf_candidates += other.leaf_candidates;
    return *this;
  }
};

namespace internal {
// The thread-local slot lives in this inline function (one instance
// process-wide) so the tick helpers compile to a TLS load + branch with no
// function call. An `extern thread_local` read from header-inline code
// would go through the compiler's TLS wrapper, which GCC's UBSan
// mis-instruments as a null load.
inline QueryLedger*& CurrentLedgerSlot() {
  thread_local QueryLedger* slot = nullptr;
  return slot;
}
}  // namespace internal

/// The ledger of the query executing on this thread, or nullptr.
inline QueryLedger* CurrentQueryLedger() {
  return internal::CurrentLedgerSlot();
}

/// Installs `ledger` as this thread's query ledger for its lifetime,
/// restoring the previous installation on destruction (scopes nest, the
/// inner one wins).
class ScopedQueryLedger {
 public:
  explicit ScopedQueryLedger(QueryLedger* ledger)
      : prev_(internal::CurrentLedgerSlot()) {
    internal::CurrentLedgerSlot() = ledger;
  }
  ~ScopedQueryLedger() { internal::CurrentLedgerSlot() = prev_; }

  ScopedQueryLedger(const ScopedQueryLedger&) = delete;
  ScopedQueryLedger& operator=(const ScopedQueryLedger&) = delete;

 private:
  QueryLedger* prev_;
};

/// Records one buffer-pool read of an index page; `miss` when it went to
/// the page store.
inline void TickIndexPageRead(bool miss) {
  if (QueryLedger* l = internal::CurrentLedgerSlot()) {
    ++l->index_page_reads;
    if (miss) ++l->index_page_misses;
  }
}

/// Records `pages` raw-data pages read for verification.
inline void TickDataPageReads(std::uint64_t pages) {
  if (QueryLedger* l = internal::CurrentLedgerSlot()) {
    l->data_page_reads += pages;
  }
}

/// Records one node visit at tree level `level` (0 = leaf).
inline void TickNodeVisit(std::size_t level) {
  if (QueryLedger* l = internal::CurrentLedgerSlot()) {
    ++l->nodes_per_level[level < QueryLedger::kMaxLevels
                             ? level
                             : QueryLedger::kMaxLevels - 1];
  }
}

/// Records `n` line-to-MBR distance evaluations.
inline void TickMbrDistanceEvals(std::uint64_t n = 1) {
  if (QueryLedger* l = internal::CurrentLedgerSlot()) {
    l->mbr_distance_evals += n;
  }
}

/// Records `n` entries surviving the index filter.
inline void TickLeafCandidates(std::uint64_t n = 1) {
  if (QueryLedger* l = internal::CurrentLedgerSlot()) {
    l->leaf_candidates += n;
  }
}

}  // namespace tsss::obs

#endif  // TSSS_OBS_QUERY_LEDGER_H_
