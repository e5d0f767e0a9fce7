#include "tsss/core/engine.h"

#include <string>

namespace tsss::core {

namespace {

const char* PruneName(geom::PruneStrategy strategy) {
  switch (strategy) {
    case geom::PruneStrategy::kEepOnly:
      return "eep";
    case geom::PruneStrategy::kBoundingSpheres:
      return "spheres";
    case geom::PruneStrategy::kExactDistance:
      return "exact";
  }
  return "unknown";
}

/// The paper's pruning disposition of a walk: every tested entry that was
/// not visited was pruned; bounding-sphere outer rejects are the BS share,
/// and the remainder is the entering/exiting-point slab test's (or the
/// exact distance test's, when that strategy ran — strategies never mix
/// within one walk).
struct PruneSplit {
  std::uint64_t ep = 0;
  std::uint64_t bs = 0;
  std::uint64_t exact = 0;
};

PruneSplit SplitPrunes(const geom::PenetrationStats& pen) {
  PruneSplit split;
  const std::uint64_t prunes = pen.tests >= pen.visits ? pen.tests - pen.visits : 0;
  split.bs = pen.outer_rejects;
  const std::uint64_t rest =
      prunes >= pen.outer_rejects ? prunes - pen.outer_rejects : 0;
  if (pen.exact_tests > 0) {
    split.exact = rest;
  } else {
    split.ep = rest;
  }
  return split;
}

/// The path(s) a range query took, from the planner's counts.
const char* PlanName(const QueryStats::Plan& plan) {
  if (plan.index > 0 && plan.scan > 0) return "mixed";
  if (plan.scan > 0) return "scan";
  if (plan.index > 0) return "index";
  return "none";
}

/// Verified windows that exact verification discarded.
std::uint64_t Postfiltered(const QueryStats& stats) {
  return stats.candidates >= stats.matches ? stats.candidates - stats.matches
                                           : 0;
}

}  // namespace

obs::QueryCost CostOf(const QueryStats& stats) {
  obs::QueryCost cost;
  cost.cpu_us = stats.cost.cpu_us;
  cost.pages_miss = stats.index_page_misses;
  cost.pages_hit = stats.index_page_reads >= stats.index_page_misses
                       ? stats.index_page_reads - stats.index_page_misses
                       : 0;
  cost.data_pages = stats.data_page_reads;
  cost.bytes_touched = stats.total_page_reads() * storage::kPageSize;
  cost.candidates_verified = stats.candidates;
  return cost;
}

void AnnotateSpan(obs::TraceSpan* span, const QueryStats& stats) {
  if (span == nullptr || !span->active()) return;
  auto put = [span](const char* key, std::uint64_t value) {
    if (value != 0) span->Annotate(key, value);
  };
  put("nodes_visited", stats.nodes_visited());
  for (std::size_t level = 0; level < obs::QueryLedger::kMaxLevels; ++level) {
    if (stats.nodes_per_level[level] != 0) {
      const std::string key = "nodes_level_" + std::to_string(level);
      span->Annotate(key.c_str(), stats.nodes_per_level[level]);
    }
  }
  put("plan_index", stats.plan.index);
  put("plan_scan", stats.plan.scan);
  put("plan_leaf_pages", stats.plan.leaf_pages);
  put("plan_index_cost", stats.plan.index_cost);
  put("plan_scan_cost", stats.plan.scan_cost);
  put("windows_scanned", stats.windows_scanned);
  put("mbr_distance_evals", stats.mbr_distance_evals);
  put("leaf_candidates", stats.leaf_candidates);
  put("entries_tested", stats.penetration.tests);
  // The prune breakdown is the headline number (the paper's EP-vs-BS
  // comparison), so it is emitted even when zero.
  const PruneSplit prunes = SplitPrunes(stats.penetration);
  span->Annotate("ep_prunes", prunes.ep);
  span->Annotate("bs_prunes", prunes.bs);
  put("exact_prunes", prunes.exact);
  put("candidates_postfiltered", Postfiltered(stats));
}

Result<obs::ExplainReport> SearchEngine::ExplainFromStats(
    const std::string& kind, double eps, std::uint64_t k,
    std::uint64_t elapsed_us, const QueryStats& stats) const {
  Result<index::StructuralStats> shape = tree_->ComputeStructuralStats();
  if (!shape.ok()) return shape.status();

  obs::ExplainReport r;
  r.kind = kind;
  r.eps = eps;
  r.k = k;
  r.prune_strategy = PruneName(config_.prune);
  r.elapsed_us = elapsed_us;

  r.plan = PlanName(stats.plan);
  r.plan_leaf_pages = stats.plan.leaf_pages;
  r.plan_index_cost = stats.plan.index_cost;
  r.plan_scan_cost = stats.plan.scan_cost;
  r.windows_scanned = stats.windows_scanned;

  r.tree_height = shape->height;
  r.tree_nodes = shape->node_count;
  r.nodes_visited = stats.nodes_visited();
  r.levels.resize(shape->height);
  for (std::size_t l = 0; l < shape->height; ++l) {
    r.levels[l].level = l;
    r.levels[l].visited =
        l < obs::QueryLedger::kMaxLevels ? stats.nodes_per_level[l] : 0;
    r.levels[l].total = shape->levels[l].nodes;
  }

  const PruneSplit prunes = SplitPrunes(stats.penetration);
  r.entries_tested = stats.penetration.tests;
  r.ep_prunes = prunes.ep;
  r.bs_prunes = prunes.bs;
  r.exact_prunes = prunes.exact;
  // A penetration "visit" is an accepted entry. In box-leaf mode leaf
  // entries run the same penetration test as internal ones, so the accepted
  // pool splits into descents (internal) and index survivors (leaf). In
  // point mode leaf points are screened by PLD instead and never enter the
  // tested universe, so every accept is a descent. (k-NN takes the
  // best-first path, which collects no PenetrationStats; its waterfall is
  // all zeros and the identity holds trivially.)
  const std::uint64_t accepted = stats.penetration.visits;
  if (tree_->config().box_leaves) {
    r.accepted_leaf_entries =
        stats.leaf_candidates <= accepted ? stats.leaf_candidates : accepted;
    r.descents = accepted - r.accepted_leaf_entries;
  } else {
    r.descents = accepted;
  }
  r.mbr_distance_evals = stats.mbr_distance_evals;

  r.indexed_windows = indexed_windows_;
  r.leaf_candidates = stats.leaf_candidates;
  r.candidates = stats.candidates;
  r.postfiltered = Postfiltered(stats);
  r.matches = stats.matches;

  r.cost = CostOf(stats);
  r.index_page_reads = stats.index_page_reads;
  r.index_page_misses = stats.index_page_misses;
  r.index_page_hits = r.cost.pages_hit;
  r.data_page_reads = stats.data_page_reads;

  r.seq_scan_pages = dataset_.store().TotalPages();
  return r;
}

Result<obs::ExplainReport> SearchEngine::ExplainLast() const {
  std::optional<LastQuery> last;
  {
    MutexLock lock(last_query_mu_);
    last = last_query_;
  }
  if (!last.has_value()) {
    return Status::NotFound("no query has run on this engine yet");
  }

  Result<obs::ExplainReport> report =
      ExplainFromStats(last->kind, last->eps, last->k, last->elapsed_us,
                       last->stats);
  if (report.ok()) {
    // The snapshot remembers the strategy the query actually ran with, which
    // can differ from the engine's *current* one after set_prune_strategy.
    report->prune_strategy = PruneName(last->prune);
  }
  return report;
}

}  // namespace tsss::core
