#ifndef TSSS_PERFBENCH_HARNESS_H_
#define TSSS_PERFBENCH_HARNESS_H_

// Shared pieces of the tsss benchmark: options, the query pool, answer
// checking against the sequential-scan oracle, the span tracer, and the
// composed (layer-by-layer) range query. See run.py for how to run it.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "tsss/core/engine.h"
#include "tsss/core/seq_scan.h"
#include "tsss/geom/vec.h"
#include "tsss/seq/dataset.h"
#include "tsss/seq/time_series.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline std::int64_t NanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

// --- options ----------------------------------------------------------------

struct Options {
  std::string workload;
  /// The query pool and the request schedule come from this seed.
  std::uint64_t seed = 1;
  /// The corpus is fixed by default, like the paper's stock data set, so that
  /// runs with different seeds differ only in their queries.
  std::uint64_t corpus_seed = 19990601;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_work";
  std::string commit = "unknown";
  // Corpus scale. The defaults are the repository's default scale (200
  // companies x 650 values, 104 600 windows); smaller values are for the
  // self-test only and are tagged "tiny" in the environment stamp.
  std::size_t companies = 200;
  std::size_t values = 650;
  std::size_t queries = 128;  ///< distinct query sequences in the pool
  std::size_t window = 128;
  /// Self-test hook: corrupt one recorded answer before the oracle check, so
  /// the benchmark must report it as wrong.
  bool inject_wrong_answer = false;
  /// Self-test hook: leave this layer span out of the composed query, so the
  /// traced coverage check must fail.
  std::string drop_span;

  bool default_scale() const { return companies == 200 && values == 650; }
};

// --- statistics -------------------------------------------------------------

/// Linear-interpolated quantile of `values` (q in [0, 1]); sorts a copy.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// --- metrics and the error ledger ------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed in the human-readable table only
};

/// Outcome counts of everything the benchmark attempted. Every failed, refused,
/// timed-out, wrong or lost answer and every broken identity is one failure.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  void Attempt(std::uint64_t n = 1) { attempted += n; }
  void Fail(const std::string& what, std::uint64_t n = 1);
  void Merge(const Ledger& other);
};

// --- query pool ---------------------------------------------------------------

enum class Kind { kRange, kKnn };

/// One distinct (query, eps or k) pair of a workload's pool.
struct Pair {
  std::size_t query = 0;  ///< index into the query sequences
  Kind kind = Kind::kRange;
  double eps = 0.0;
  std::size_t k = 0;
};

/// Every combination of the query sequences with the given eps and k values.
std::vector<Pair> MakePairs(std::size_t num_queries,
                            const std::vector<double>& eps,
                            const std::vector<std::size_t>& ks);

// --- answer checking ----------------------------------------------------------

/// Order-independent identity of an answer (records, distances and
/// transforms, bit for bit), used to spot a pair answered two ways in a run.
std::uint64_t Fingerprint(const std::vector<tsss::core::Match>& matches);

/// True iff `got` equals the oracle's answer. Range answers must match bit
/// for bit. k-NN answers must match in distances bit for bit and in records
/// everywhere except among windows tied at the k-th distance, where the
/// oracle's choice is arbitrary.
bool SameAnswer(Kind kind, const std::vector<tsss::core::Match>& got,
                const std::vector<tsss::core::Match>& oracle);

/// The first answer the program gave for each pair and how often each pair
/// was answered. Thread-safe.
class AnswerBook {
 public:
  explicit AnswerBook(std::size_t num_pairs)
      : first_(num_pairs), seen_(num_pairs, 0), fingerprint_(num_pairs, 0) {}
  /// Records an answer for pair `p`; returns false when it differs from the
  /// first answer recorded for `p`.
  bool Record(std::size_t p, std::vector<tsss::core::Match> matches);
  bool has(std::size_t p) const { return seen_[p] != 0; }
  std::uint64_t answered(std::size_t p) const { return seen_[p]; }
  std::vector<tsss::core::Match>& first(std::size_t p) { return first_[p]; }
  const std::vector<tsss::core::Match>& first(std::size_t p) const {
    return first_[p];
  }

 private:
  std::mutex mu_;
  std::vector<std::vector<tsss::core::Match>> first_;
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> fingerprint_;
};

/// Sequential-scan answers for every pair, computed on `threads` threads over
/// an independent copy of the corpus, with the time of each scan. Each query
/// sequence is scanned once per kind: SequentialScanner::RangeQuery at its
/// widest eps and SequentialScanner::Knn at its largest k. A narrower pair's
/// answer is the prefix with distance <= eps (VerifyCandidate's own test), or
/// the first k neighbours.
struct OracleAnswers {
  std::vector<std::vector<tsss::core::Match>> answers;
  std::vector<double> scan_ms;
};
OracleAnswers RunOracle(const std::vector<tsss::seq::TimeSeries>& corpus,
                        std::size_t window,
                        const std::vector<tsss::geom::Vec>& queries,
                        const std::vector<Pair>& pairs, std::size_t threads);

/// Checks the book against the oracle. A pair whose recorded answer is wrong
/// fails every response it got (at least one). Pairs the timed loop never
/// reached are answered by `engine_answer` first, so every pair of the pool
/// is checked once per run.
using EngineAnswerFn = std::function<tsss::Result<
    std::vector<tsss::core::Match>>(const Pair&)>;
void CheckBook(const std::vector<Pair>& pairs, const OracleAnswers& oracle,
               const EngineAnswerFn& engine_answer, bool inject_wrong,
               AnswerBook* book, Ledger* ledger);

// --- tracing ------------------------------------------------------------------

/// In-memory span recorder. A span has a name, start, end, parent span and the
/// id of the query it belongs to; spans nest per thread through RAII scopes.
/// Self time (duration minus the time covered by child spans) is accumulated
/// per (root span name, span name) as spans close, so totals stay exact even
/// when the kept span list is capped.
class Tracer {
 public:
  struct Totals {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  /// At most `max_kept_spans` spans per thread are kept for the trace file;
  /// totals always cover every span.
  explicit Tracer(std::size_t max_kept_spans = 50000);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span. A null tracer makes the scope a no-op. `query` 0 inherits
  /// the enclosing span's query id.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t query = 0)
        : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->Open(name, query);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  std::uint64_t NewQueryId();

  // The readers below merge every thread's state: call them only while no
  // traced thread is running.

  /// Totals of spans named `name` that ran under a root span named `root`.
  Totals Get(const std::string& root, const std::string& name) const;
  /// Sum of self times of every span under roots named `root`.
  std::int64_t SelfUnder(const std::string& root) const;
  std::uint64_t dropped() const;
  /// Writes the kept spans as a Chrome trace-event JSON file.
  bool WriteJson(const std::string& path) const;

 private:
  struct Frame {
    const char* name;
    const char* root;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t query;
  };
  struct SpanRecord {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t query;
  };
  struct TotalsEntry {
    const char* root;
    const char* name;
    Totals totals;
  };
  /// Owned by the tracer, touched only by its thread while spans are open.
  struct ThreadState {
    std::uint64_t thread = 0;
    std::uint64_t next_span = 0;
    std::uint64_t dropped = 0;
    std::vector<Frame> stack;
    std::vector<SpanRecord> spans;
    std::vector<TotalsEntry> totals;  ///< few entries: linear search
  };

  ThreadState* State();
  void Open(const char* name, std::uint64_t query);
  void Close();

  const std::uint64_t instance_;  ///< process-unique: keys thread state
  const std::size_t max_kept_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
  std::uint64_t next_query_ = 1;
};

// --- the composed range query -------------------------------------------------

/// Per-layer totals of a composed run, summed over its queries.
struct ComposedResult {
  std::uint64_t queries = 0;
  std::uint64_t mismatches = 0;    ///< composed answer != RangeQuery answer
  std::uint64_t nodes = 0;         ///< tree pages fetched by the traced pass
  std::int64_t untraced_ns = 0;    ///< untraced pass of the composed query
  std::int64_t traced_ns = 0;      ///< traced pass, clocked outside the spans
  /// PageStore::Read calls and their time over all `query_runs` composed
  /// queries, warm-up included.
  std::uint64_t query_runs = 0;
  std::uint64_t store_reads = 0;
  std::int64_t store_read_ns = 0;
};

/// Runs each (query, eps) pair composed from the layers' public functions:
/// SearchEngine::ReducedQueryLine -> RTree::LineQuery (on a tree the
/// benchmark attaches to the engine's page file through its own BufferPool
/// over a timing PageStore) -> SequenceStore::ReadWindowDeduped ->
/// core::VerifyCandidate. One untimed warm-up pass runs first, then an
/// untraced timed pass, then a traced one with a span around each layer call
/// under roots named "core.range_query". Every traced answer is checked
/// against SearchEngine::RangeQuery. `pool_pages` sizes the benchmark's pool
/// like the engine's. The layer span named `drop_span`, if any, is left out
/// (a self-test hook).
tsss::Result<ComposedResult> RunComposed(
    const tsss::core::SearchEngine& engine, std::size_t pool_pages,
    const std::vector<tsss::geom::Vec>& queries,
    const std::vector<std::pair<std::size_t, double>>& range_pairs,
    Tracer* tracer, const std::string& drop_span);

// --- workloads ------------------------------------------------------------------

/// What one run of a workload produced. The caller reports the end-to-end
/// list from an untraced run and the per-layer list from a traced one.
struct WorkloadOutput {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  Ledger ledger;
  std::uint64_t completed_queries = 0;
  std::size_t windows = 0;  ///< windows in the full corpus
};

/// Runs `options.workload`. `tracer` is null for an untraced run; a traced
/// run also measures the per-layer metrics (composed queries, direct kNN, the
/// fan-out probe), which an untraced run skips. Every run ends with the
/// insert probe and its checkpoint-and-reopen durability check.
tsss::Result<WorkloadOutput> RunWorkload(const Options& options,
                                         Tracer* tracer);

}  // namespace perfbench

#endif  // TSSS_PERFBENCH_HARNESS_H_
