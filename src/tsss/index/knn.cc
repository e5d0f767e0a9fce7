#include <utility>
#include <vector>

#include "tsss/index/rtree.h"
#include "tsss/obs/query_ledger.h"

namespace tsss::index {

RTree::LineNeighborIterator::LineNeighborIterator(const RTree* tree,
                                                  geom::Line line)
    : tree_(tree), line_(std::move(line)) {
  QueueItem root_item;
  root_item.distance = 0.0;
  root_item.is_record = false;
  root_item.page = tree_->root_;
  heap_.push(root_item);
}

Result<std::optional<LineMatch>> RTree::LineNeighborIterator::Next() {
  while (!heap_.empty()) {
    QueueItem item = heap_.top();
    heap_.pop();
    if (item.is_record) {
      obs::TickLeafCandidates();
      return std::optional<LineMatch>(item.match);
    }
    Result<Node> node = tree_->LoadNode(item.page);
    if (!node.ok()) return node.status();
    obs::TickNodeVisit(node->level);
    for (const Entry& e : node->entries) {
      QueueItem child;
      if (node->is_leaf()) {
        child.is_record = true;
        if (tree_->config().box_leaves) {
          obs::TickMbrDistanceEvals();
          child.distance = geom::LineMbrDistance(line_, e.mbr);
        } else {
          child.distance = geom::Pld(e.mbr.lo(), line_);
        }
        child.match = LineMatch{e.record, child.distance};
      } else {
        child.is_record = false;
        child.page = e.child;
        obs::TickMbrDistanceEvals();
        child.distance = geom::LineMbrDistance(line_, e.mbr);
      }
      heap_.push(child);
    }
  }
  return std::optional<LineMatch>();
}

RTree::LineNeighborIterator RTree::NearestLineNeighbors(
    const geom::Line& line) const {
  return LineNeighborIterator(this, line);
}

Result<std::vector<LineMatch>> RTree::PointKnn(std::span<const double> point,
                                               std::size_t k) const {
  if (point.size() != config_.dim) {
    return Status::InvalidArgument("query point dim mismatch");
  }
  // A point query is a degenerate line query: the zero-direction "line"
  // reduces every line-distance primitive to the point distance.
  const geom::Line degenerate{geom::Vec(point.begin(), point.end()),
                              geom::Vec(point.size(), 0.0)};
  return LineKnn(degenerate, k);
}

Result<std::vector<LineMatch>> RTree::LineKnn(const geom::Line& line,
                                              std::size_t k) const {
  if (line.dim() != config_.dim) {
    return Status::InvalidArgument("query line dim mismatch");
  }
  std::vector<LineMatch> out;
  LineNeighborIterator it = NearestLineNeighbors(line);
  while (out.size() < k) {
    Result<std::optional<LineMatch>> next = it.Next();
    if (!next.ok()) return next.status();
    if (!next->has_value()) break;
    out.push_back(**next);
  }
  return out;
}

}  // namespace tsss::index
