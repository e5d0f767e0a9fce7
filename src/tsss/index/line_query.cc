#include <vector>

#include "tsss/index/rtree.h"
#include "tsss/obs/query_ledger.h"

namespace tsss::index {

Result<std::vector<LineMatch>> RTree::LineQuery(
    const geom::Line& line, double eps, geom::PruneStrategy strategy,
    geom::PenetrationStats* stats) const {
  if (line.dim() != config_.dim) {
    return Status::InvalidArgument("query line dim mismatch");
  }
  if (eps < 0.0) {
    return Status::InvalidArgument("eps must be non-negative");
  }
  std::vector<LineMatch> out;
  std::vector<storage::PageId> stack;
  stack.push_back(root_);
  while (!stack.empty()) {
    const storage::PageId page = stack.back();
    stack.pop_back();
    Result<Node> node = LoadNode(page);
    if (!node.ok()) return node.status();
    obs::TickNodeVisit(node->level);
    if (node->is_leaf()) {
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
    } else {
      // Internal pruning (Theorem 3): descend only into children whose
      // eps-MBR passes the penetration test of the chosen strategy.
      for (const Entry& e : node->entries) {
        if (geom::ShouldVisit(line, e.mbr, eps, strategy, stats)) {
          stack.push_back(e.child);
        }
      }
    }
  }
  return out;
}

}  // namespace tsss::index
