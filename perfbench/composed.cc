// The composed range query: SearchEngine::RangeQuery rebuilt from the
// layers' public functions, with a span around each call.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "perfbench/harness.h"
#include "tsss/core/similarity.h"
#include "tsss/index/rtree.h"
#include "tsss/seq/window.h"
#include "tsss/storage/buffer_pool.h"
#include "tsss/storage/file_page_store.h"
#include "tsss/storage/page_store.h"
#include "tsss/storage/sequence_store.h"

namespace perfbench {
namespace {

using tsss::Result;
using tsss::Status;
using tsss::core::Match;
using tsss::storage::Page;
using tsss::storage::PageId;

/// Forwards to a FilePageStore and times every Read, i.e. every buffer-pool
/// miss, with a "storage.page_read" span while a tracer is set. Used from one
/// thread only.
class TimingPageStore final : public tsss::storage::PageStore {
 public:
  explicit TimingPageStore(std::unique_ptr<tsss::storage::PageStore> inner)
      : inner_(std::move(inner)) {}

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  std::uint64_t reads() const { return reads_; }
  std::int64_t read_ns() const { return read_ns_; }

  PageId Allocate() override { return inner_->Allocate(); }
  Status Free(PageId id) override { return inner_->Free(id); }
  Status Read(PageId id, Page* out) override {
    Tracer::Scope span(tracer_, "storage.page_read");
    const Clock::time_point start = Clock::now();
    Status s = inner_->Read(id, out);
    read_ns_ += NanosSince(start);
    ++reads_;
    return s;
  }
  Status Write(PageId id, const Page& page) override {
    return inner_->Write(id, page);
  }
  std::size_t num_live_pages() const override {
    return inner_->num_live_pages();
  }
  std::size_t capacity_pages() const override {
    return inner_->capacity_pages();
  }

 private:
  std::unique_ptr<tsss::storage::PageStore> inner_;
  Tracer* tracer_ = nullptr;
  std::uint64_t reads_ = 0;
  std::int64_t read_ns_ = 0;
};

}  // namespace

Result<ComposedResult> RunComposed(
    const tsss::core::SearchEngine& engine, std::size_t pool_pages,
    const std::vector<tsss::geom::Vec>& queries,
    const std::vector<std::pair<std::size_t, double>>& range_pairs,
    Tracer* tracer, const std::string& drop_span) {
  if (engine.config().subtrail_len != 0) {
    return Status::InvalidArgument("composed path supports point mode only");
  }
  Result<std::unique_ptr<tsss::storage::FilePageStore>> file =
      tsss::storage::FilePageStore::Open(engine.config().storage_dir +
                                         "/pages.tsss");
  if (!file.ok()) return file.status();
  TimingPageStore store(std::move(file).value());
  tsss::storage::BufferPool pool(&store, pool_pages);
  const tsss::index::RTree& served = engine.tree();
  Result<std::unique_ptr<tsss::index::RTree>> tree = tsss::index::RTree::Attach(
      &pool, served.config(), served.root_page(), served.height(),
      served.size());
  if (!tree.ok()) return tree.status();

  // The tracer of the root span and of each layer call's span; null while
  // untraced. The layer span named by `drop_span` stays untraced, so the
  // self-test can show that the coverage check catches a missing span.
  enum Layer { kReduce, kIndex, kRead, kVerify, kLayers };
  static constexpr const char* kSpanNames[kLayers] = {
      "reduce.query_line", "index.line_query", "storage.read_window",
      "core.verify"};
  Tracer* active = nullptr;
  Tracer* layer[kLayers] = {};
  auto set_tracer = [&](Tracer* t) {
    active = t;
    for (int i = 0; i < kLayers; ++i) {
      layer[i] = drop_span == kSpanNames[i] ? nullptr : t;
    }
    store.set_tracer(t);
  };

  const tsss::storage::SequenceStore& data = engine.dataset().store();
  const tsss::geom::PruneStrategy prune = engine.config().prune;
  auto composed = [&](const tsss::geom::Vec& query,
                      double eps) -> Result<std::vector<Match>> {
    Tracer::Scope root(active, "core.range_query",
                       active != nullptr ? active->NewQueryId() : 0);
    const tsss::core::QueryContext ctx(query);
    const tsss::geom::Line line = [&] {
      Tracer::Scope span(layer[kReduce], kSpanNames[kReduce]);
      return engine.ReducedQueryLine(query);
    }();
    const Result<std::vector<tsss::index::LineMatch>> candidates = [&] {
      Tracer::Scope span(layer[kIndex], kSpanNames[kIndex]);
      return (*tree)->LineQuery(line, eps, prune, nullptr);
    }();
    if (!candidates.ok()) return candidates.status();
    std::vector<tsss::index::RecordId> records;
    records.reserve(candidates->size());
    for (const tsss::index::LineMatch& c : *candidates) {
      records.push_back(c.record);
    }
    std::sort(records.begin(), records.end());
    std::vector<Match> matches;
    tsss::geom::Vec window(query.size());
    std::size_t last_page = tsss::storage::SequenceStore::kNoPageCounted;
    for (const tsss::index::RecordId record : records) {
      const Status read = [&] {
        Tracer::Scope span(layer[kRead], kSpanNames[kRead]);
        return data.ReadWindowDeduped(tsss::seq::SeriesOf(record),
                                      tsss::seq::OffsetOf(record), window,
                                      &last_page);
      }();
      if (!read.ok()) return read;
      const std::optional<Match> match = [&] {
        Tracer::Scope span(layer[kVerify], kSpanNames[kVerify]);
        return tsss::core::VerifyCandidate(ctx, window, record, eps, {});
      }();
      if (match.has_value()) matches.push_back(*match);
    }
    return matches;
  };

  // Three passes over the same pairs: an untimed warm-up that brings the
  // benchmark's pool to a steady state, an untraced timed pass and a traced
  // one. Both timed passes start from the pool state the same sequence of
  // queries left behind, so they differ only by the spans.
  ComposedResult out;
  for (const auto& [q, eps] : range_pairs) {
    Result<std::vector<Match>> ignored = composed(queries[q], eps);
    if (!ignored.ok()) return ignored.status();
  }
  const Clock::time_point untraced_start = Clock::now();
  for (const auto& [q, eps] : range_pairs) {
    Result<std::vector<Match>> ignored = composed(queries[q], eps);
    if (!ignored.ok()) return ignored.status();
  }
  out.untraced_ns = NanosSince(untraced_start);

  set_tracer(tracer);
  const std::uint64_t reads_before = pool.metrics().logical_reads;
  std::vector<Result<std::vector<Match>>> answers;
  answers.reserve(range_pairs.size());
  for (const auto& [q, eps] : range_pairs) {
    const Clock::time_point start = Clock::now();
    answers.push_back(composed(queries[q], eps));
    out.traced_ns += NanosSince(start);
  }
  out.nodes = pool.metrics().logical_reads - reads_before;
  set_tracer(nullptr);
  out.queries = range_pairs.size();
  out.query_runs = 3 * out.queries;
  out.store_reads = store.reads();
  out.store_read_ns = store.read_ns();

  // Every traced answer against SearchEngine::RangeQuery.
  for (std::size_t i = 0; i < range_pairs.size(); ++i) {
    const auto& [q, eps] = range_pairs[i];
    const Result<std::vector<Match>> want = engine.RangeQuery(queries[q], eps);
    if (!want.ok() || !answers[i].ok() ||
        !SameAnswer(Kind::kRange, *answers[i], *want)) {
      ++out.mismatches;
    }
  }
  return out;
}

}  // namespace perfbench
