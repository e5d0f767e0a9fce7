#ifndef TSSS_CORE_FAST_SCAN_H_
#define TSSS_CORE_FAST_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tsss/common/status.h"
#include "tsss/core/similarity.h"
#include "tsss/storage/sequence_store.h"

namespace tsss::core {

/// What one FastRangeScan did.
struct ScanCounts {
  std::uint64_t windows = 0;   ///< windows whose distance was estimated
  std::uint64_t verified = 0;  ///< of those, re-checked by VerifyCandidate
};

/// Exact range scan over every window of `store` on the stride grid
/// (offsets 0, stride, 2*stride, ... of each series), without an index.
///
/// Under the SE-transform, with use = T_se(query) (so sum(use) = 0) and
/// S1, S2 the sums of a window's values and squares, taken about the
/// series' first value c so that a large mean does not cancel:
///   d^2 = (S2 - S1^2 / n) - <use, v>^2 / ||use||^2.
/// S1 and S2 come from two running prefix sums per series, so each window
/// costs one dot product. Every window whose estimate is within
/// eps^2 + band goes to VerifyCandidate, where band is a written bound on
/// the difference between the estimate and QueryContext::Align's own
/// d^2 (see ErrorBand in fast_scan.cc). Hence the reported windows,
/// distances and transforms are bit-identical to core::SequentialScanner's,
/// in the same (series, offset) order.
///
/// Polls the thread's ExecControl once per series. Reads the values
/// through SequenceStore::SeriesValues and does not allocate beyond `out`;
/// the caller accounts the data pages (RecordFullScan).
Status FastRangeScan(const storage::SequenceStore& store,
                     const QueryContext& ctx, std::size_t stride, double eps,
                     const TransformCost& cost, std::vector<Match>* out,
                     ScanCounts* counts);

/// Rounding slack of the index filter. The R-tree holds rounded reduced
/// points and the query line has a rounded direction, so a window whose
/// distance QueryContext::Align computes as d can have a computed PLD a
/// little above d (an exact scale-shift copy, d = 0, lands just off the
/// line). Filtering with radius eps + this slack dismisses no window that
/// VerifyCandidate would accept at eps; the survivors are verified at eps,
/// so the answers stay bit-identical to core::SequentialScanner's.
///
/// `query_dir` is the reduced query direction (SearchEngine's query line),
/// `data_max_abs` the largest |value| in the dataset
/// (SequenceStore::max_abs_value). The terms are derived in fast_scan.cc.
/// Not finite when the inputs are not (or on overflow).
double IndexFilterSlack(const QueryContext& ctx,
                        std::span<const double> query_dir,
                        double data_max_abs, double eps);

}  // namespace tsss::core

#endif  // TSSS_CORE_FAST_SCAN_H_
