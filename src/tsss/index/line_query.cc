#include <string>
#include <vector>

#include "tsss/index/rtree.h"
#include "tsss/obs/query_ledger.h"

namespace tsss::index {

namespace {

/// A node whose level disagrees with its depth below the root: the walk
/// would read child page ids as records (or the reverse).
Status LevelMismatch(storage::PageId page) {
  return Status::Corruption("node level does not match its depth (page " +
                            std::to_string(page) + ")");
}

}  // namespace

Result<std::vector<LineMatch>> RTree::LineQuery(
    const geom::Line& line, double eps, geom::PruneStrategy strategy,
    geom::PenetrationStats* stats) const {
  Result<std::vector<storage::PageId>> leaves =
      LineLeafFrontier(line, eps, strategy, stats);
  if (!leaves.ok()) return leaves.status();
  return LineLeafMatches(*leaves, line, eps, strategy, stats);
}

Result<std::vector<storage::PageId>> RTree::LineLeafFrontier(
    const geom::Line& line, double eps, geom::PruneStrategy strategy,
    geom::PenetrationStats* stats) const {
  if (line.dim() != config_.dim) {
    return Status::InvalidArgument("query line dim mismatch");
  }
  if (eps < 0.0) {
    return Status::InvalidArgument("eps must be non-negative");
  }
  std::vector<storage::PageId> level{root_};
  std::vector<storage::PageId> below;
  // Each pass loads one level and collects the children its entries admit.
  // The tree is height-balanced, so the pass that loads level 1 collects
  // exactly the leaves a depth-first walk would reach.
  for (std::size_t depth = height_; depth > 1; --depth) {
    below.clear();
    for (const storage::PageId page : level) {
      Result<Node> node = LoadNode(page);
      if (!node.ok()) return node.status();
      if (std::size_t{node->level} + 1 != depth) return LevelMismatch(page);
      obs::TickNodeVisit(node->level);
      // Internal pruning (Theorem 3): descend only into children whose
      // eps-MBR passes the penetration test of the chosen strategy.
      for (const Entry& e : node->entries) {
        if (geom::ShouldVisit(line, e.mbr, eps, strategy, stats)) {
          below.push_back(e.child);
        }
      }
    }
    level.swap(below);
  }
  return level;
}

Result<std::vector<LineMatch>> RTree::LineLeafMatches(
    std::span<const storage::PageId> leaves, const geom::Line& line,
    double eps, geom::PruneStrategy strategy,
    geom::PenetrationStats* stats) const {
  if (line.dim() != config_.dim) {
    return Status::InvalidArgument("query line dim mismatch");
  }
  std::vector<LineMatch> out;
  for (const storage::PageId page : leaves) {
    Result<Node> node = LoadNode(page);
    if (!node.ok()) return node.status();
    if (!node->is_leaf()) return LevelMismatch(page);
    obs::TickNodeVisit(node->level);
    if (config_.box_leaves) {
      // Sub-trail mode: a box entry is a candidate when it passes the same
      // eps-penetration test used for directory nodes; the reported
      // distance is the exact line-box distance (a lower bound for every
      // window inside the box).
      for (const Entry& e : node->entries) {
        if (geom::ShouldVisit(line, e.mbr, eps, strategy, stats)) {
          obs::TickMbrDistanceEvals();
          obs::TickLeafCandidates();
          out.push_back(LineMatch{e.record, geom::LineMbrDistance(line, e.mbr)});
        }
      }
    } else {
      // Point-leaf check (Theorem 2): keep points whose PLD to the query
      // line is within eps.
      for (const Entry& e : node->entries) {
        const double d = geom::Pld(e.mbr.lo(), line);
        if (d <= eps) {
          obs::TickLeafCandidates();
          out.push_back(LineMatch{e.record, d});
        }
      }
    }
  }
  return out;
}

}  // namespace tsss::index
