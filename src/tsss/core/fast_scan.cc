#include "tsss/core/fast_scan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>

#include "tsss/common/exec_control.h"
#include "tsss/seq/window.h"

namespace tsss::core {

namespace {

/// Unit roundoff of double, u = 2^-53.
constexpr double kUnit = std::numeric_limits<double>::epsilon() / 2;

/// gamma_m = m*u / (1 - m*u): the relative error bound of a recursive sum
/// of m terms (Higham, "Accuracy and Stability of Numerical Algorithms",
/// Lemma 3.1).
double Gamma(std::size_t m) {
  const double mu = static_cast<double>(m) * kUnit;
  return mu / (1.0 - mu);
}

/// The query's share of the error band: ||use||^2, a bound on |sum(use)|
/// (zero in exact arithmetic, not after rounding) and max |use_i|.
struct QueryTerms {
  double uu = 0.0;
  double sum_bound = 0.0;
  double max_abs = 0.0;
};

QueryTerms TermsOf(const QueryContext& ctx) {
  QueryTerms t;
  t.uu = ctx.se_norm_squared();
  double sum = 0.0;
  double abs_sum = 0.0;
  for (const double x : ctx.se()) {
    sum += x;
    abs_sum += std::fabs(x);
    t.max_abs = std::max(t.max_abs, std::fabs(x));
  }
  t.sum_bound = std::fabs(sum) + Gamma(ctx.n() + 2) * abs_sum;
  return t;
}

/// Upper bound on |F - A| for every window of one series, where F is the
/// scan's estimate of d^2 and A is the d^2 that QueryContext::Align
/// computes (before its square root), for windows with sqrt(A) <= eps.
/// A window Align accepts then has F <= eps^2 + band, so filtering on that
/// threshold dismisses nothing the oracle reports. Rounding analysis, with
/// u = 2^-53, g = gamma_{n+2}, G = gamma_{L+2} for a series of length L and
/// shift c = its first value; per series W = max|v - c|, V = max|v|,
/// A1 = sum|v - c|, A2 = sum (v - c)^2, E = min(A2, n W^2) bounds the energy
/// of any window about c; R = sqrt(E / uu) bounds the optimal scale a*.
///
/// The estimate. S1 and S2 are differences of two running prefix sums,
/// each a recursive sum of at most L rounded terms, so
///   e1 = 2 G A1 + u n W,  e2 = 2 G A2 + u E
/// bound their errors. This is the whole of the sliding-update drift.
/// S1^2/n then errs by 2 sqrt(E/n) e1 + e1^2/n. Rounding the shifted
/// values themselves moves sqrt(d^2) by at most u sqrt(E), which costs
/// 2 u reach sqrt(E). The dot product <use, v> is taken on the raw values
/// (four accumulators): it errs by g sqrt(n uu) V, and since the rounded
/// use vector does not sum to exactly zero it differs from
/// <use, v - mean> by at most V S, with S a bound on |sum(use)|. With
/// dc the sum of the two, the quotient by ||use||^2 errs by
/// 2 R dc + dc^2 / uu; the rounding of ||use||^2 adds g E, and the final
/// operations (products with the rounded reciprocals 1/n and 1/uu, and two
/// subtractions) add 8 u E.
///
/// Align. It computes the mean and scale from the raw values (errors
/// dm <= (g + u) V and da <= (V S + g sqrt(n uu) V) / uu + u R) and then
/// the residuals. In exact arithmetic a wrong mean or scale can only
/// raise the residual sum, except for the cross terms
/// 2 dm S (R + da); each rounded residual errs by at most
/// dr = 2 u (2 W + dm + (R + da) max|use|) + u reach, and the sum of their
/// squares by 2 sqrt(n) reach dr + n dr^2 + g reach^2, where reach bounds
/// the residual norm of an accepted window. The square root and the
/// comparison with eps add 3 u eps^2.
///
/// The band is twice the sum. It is +infinity when any term is not
/// finite (non-finite values, overflow, or a near-constant query whose
/// ||use||^2 underflows the terms), and the caller then verifies every
/// window of the series.
double ErrorBand(std::span<const double> values, std::size_t n, double eps,
                 const QueryTerms& q) {
  const double c = values.front();
  double a1 = 0.0;
  double a2 = 0.0;
  double w_max = 0.0;
  double v_max = 0.0;
  for (const double x : values) {
    const double w = x - c;
    a1 += std::fabs(w);
    a2 += w * w;
    w_max = std::max(w_max, std::fabs(w));
    v_max = std::max(v_max, std::fabs(x));
  }
  const double nd = static_cast<double>(n);
  const double g = Gamma(n + 2);
  const double big_g = Gamma(values.size() + 2);
  const double u = kUnit;
  const double e = std::min(a2, nd * w_max * w_max);
  const bool scaled = q.uu > 0.0;
  const double r = scaled ? std::sqrt(e / q.uu) : 0.0;
  const double s = q.sum_bound;

  const double dm = (g + u) * v_max;
  const double da =
      scaled ? (v_max * s + g * std::sqrt(nd * q.uu) * v_max) / q.uu + u * r
             : 0.0;
  const double dr0 = 2.0 * u * (2.0 * w_max + dm + (r + da) * q.max_abs);
  const double reach = 2.0 * eps + std::sqrt(nd) * dr0;
  const double dr = dr0 + u * reach;

  const double e1 = 2.0 * big_g * a1 + u * nd * w_max;
  const double e2 = 2.0 * big_g * a2 + u * e;
  double estimate = e2 + 2.0 * std::sqrt(e / nd) * e1 + e1 * e1 / nd +
                    (g + 8.0 * u) * e + 2.0 * u * reach * std::sqrt(e);
  if (scaled) {
    const double dc = g * std::sqrt(nd * q.uu) * v_max + v_max * s;
    estimate += 2.0 * r * dc + dc * dc / q.uu;
  }
  const double align = 2.0 * dm * s * (r + da) +
                       2.0 * std::sqrt(nd) * reach * dr + nd * dr * dr +
                       g * reach * reach + 3.0 * u * eps * eps;
  const double band = 2.0 * (estimate + align);
  return std::isfinite(band) ? band : std::numeric_limits<double>::infinity();
}

/// Bound on ||fl(T_se(x)) - T_se(x)|| for n values with |x_i| <= m: the
/// mean errs by dm = (gamma_n + u) m, and each difference by at most
/// dm + u (2 m + dm).
double SeError(std::size_t n, double m) {
  const double dm = (Gamma(n) + kUnit) * m;
  return std::sqrt(static_cast<double>(n)) * (dm + kUnit * (2.0 * m + dm));
}

/// <use, x> over n values with four accumulators, which lets the compiler
/// vectorise the loop without reassociating it. Kept out of line: inlined
/// into the scan loop, GCC 12 vectorises it about 2x slower.
[[gnu::noinline]] double Dot4(const double* use, const double* x,
                              std::size_t n) {
  // TSSS_HOT_BEGIN(fast_scan) — runs once per window of every scan.
  double acc0 = 0.0;
  double acc1 = 0.0;
  double acc2 = 0.0;
  double acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += use[i] * x[i];
    acc1 += use[i + 1] * x[i + 1];
    acc2 += use[i + 2] * x[i + 2];
    acc3 += use[i + 3] * x[i + 3];
  }
  for (; i < n; ++i) acc0 += use[i] * x[i];
  return (acc0 + acc1) + (acc2 + acc3);
  // TSSS_HOT_END(fast_scan)
}

}  // namespace

// Derivation of IndexFilterSlack, with u = 2^-53, n the window, k the
// reduced dimension, M the data's largest |value|, S = 2 sqrt(n) M (a bound
// on ||T_se(v)|| for every window v, hence on its reduced point and on its
// exact distance D* to any query), R the exact reduction (linear and
// contractive) and p* = R(T_se(v)), d* = R(T_se(q)).
//
// Reduction. Every reducer forms each output as a sum of at most n products
// of the input with coefficients of a unit-norm row (DFT twiddles, Haar and
// PAA weights), which the reducer computes to within about 25 n u (the DFT
// angle 2 pi j k / n is itself rounded). So the computed map errs by at most
// red ||x|| with red = 32 sqrt(k) gamma_{n+4}. A stored point is then within
// e_v = 2 SeError(M) + 2 red (S + SeError(M)) of p*, and the query
// direction within e_q = 2 SeError(max|q|) + 2 red (||use|| +
// SeError(max|q|)) of d*.
//
// The filter. For a point x and directions y (exact) and y' (computed),
// dist(x, span y') <= dist(x, span y) + ||x|| ||y - y'|| / ||y||. With
// ||d*|| >= ||d|| - e_q this gives theta_d = e_q / (||d|| - e_q), capped at
// 1 since no distance to a line through the origin exceeds ||x||; an exactly
// flat query (use = 0, so d = d* = 0) has theta_d = 0. The computed PLD is
// then at most dist(p*, span d*) + e_v + S theta_d + 4 gamma_{k+4} ||p||
// (the PLD's own arithmetic), and dist(p*, span d*) <= D* by contraction.
// The penetration tests of the internal levels round by the same order;
// 8 gamma_{k+4} (S + e_v + eps) covers both.
//
// Align. It computes a = <use, v> / ||use||^2 and the residuals
// (v - mean) - a use. For any a the residual norm is at least
// dist(v - mean, span use), so the rounded scale costs nothing beyond its
// size: |a| ||use|| <= aq = S + SeError(M) + M (|sum use| / ||use|| +
// gamma_{n+2} sqrt(n)), |sum use| bounded as in TermsOf. The residuals
// round by u sqrt(n) (2 M + dm) + 2 u aq, the rounded mean moves them by
// sqrt(n) dm, and span(use) differs from span(T_se(q)) by theta_a =
// SeError(max|q|) / ||use|| (capped at 1; 0 for a constant query, whose
// Align distance is ||v - mean||). The sum of squares and the root add
// 2 gamma_{n+4} eps. So D* <= d + align with align the sum of these terms.
//
// The slack is twice (align + e_v + S theta_d + 8 gamma_{k+4} (S + e_v +
// eps)). On the default corpus (window 128, values below 5e3) it is about
// 2e-6; values near 1e9 raise it to about 0.3 (window 128) or 0.05
// (window 16).
double IndexFilterSlack(const QueryContext& ctx,
                        std::span<const double> query_dir,
                        double data_max_abs, double eps) {
  const std::size_t n = ctx.n();
  const std::size_t k = query_dir.size();
  const double u = kUnit;
  const double rn = std::sqrt(static_cast<double>(n));
  const double red = 32.0 * std::sqrt(static_cast<double>(k)) * Gamma(n + 4);
  const double m = data_max_abs;
  const double s = 2.0 * rn * m;
  const double dm = (Gamma(n) + u) * m;
  const double e_se = SeError(n, m);
  const double e_v = 2.0 * e_se + 2.0 * red * (s + e_se);

  double q_max = 0.0;
  for (const double x : ctx.query()) q_max = std::max(q_max, std::fabs(x));
  const double e_u = SeError(n, q_max);
  const QueryTerms q = TermsOf(ctx);
  double theta_a = 0.0;
  double aq = 0.0;
  if (q.uu > 0.0) {
    const double nu = std::sqrt(q.uu);
    theta_a = std::min(1.0, e_u / nu);
    aq = s + e_se + m * (q.sum_bound / nu + Gamma(n + 2) * rn);
  }
  double theta_d = 0.0;
  if (q.max_abs > 0.0) {
    const double e_q = 2.0 * e_u + 2.0 * red * (std::sqrt(q.uu) + e_u);
    double dd = 0.0;
    for (const double x : query_dir) dd += x * x;
    const double dn = std::sqrt(dd);
    theta_d = dn > e_q ? std::min(1.0, e_q / (dn - e_q)) : 1.0;
  }
  const double align = 2.0 * Gamma(n + 4) * eps +
                       2.0 * u * (rn * (2.0 * m + dm) + 2.0 * aq) + rn * dm +
                       s * theta_a;
  return 2.0 * (align + e_v + s * theta_d +
                8.0 * Gamma(k + 4) * (s + e_v + eps));
}

Status FastRangeScan(const storage::SequenceStore& store,
                     const QueryContext& ctx, std::size_t stride, double eps,
                     const TransformCost& cost, std::vector<Match>* out,
                     ScanCounts* counts) {
  const std::size_t n = ctx.n();
  const double inv_n = 1.0 / static_cast<double>(n);
  const QueryTerms q = TermsOf(ctx);
  const double inv_uu = q.uu > 0.0 ? 1.0 / q.uu : 0.0;
  const double* use = ctx.se().data();
  for (storage::SeriesId series = 0; series < store.num_series(); ++series) {
    Status s = PollExecControl();
    if (!s.ok()) return s;
    Result<std::span<const double>> values = store.SeriesValues(series);
    if (!values.ok()) return values.status();
    const std::size_t len = values->size();
    if (len < n) continue;
    const double* v = values->data();
    const double c = v[0];
    const double threshold = eps * eps + ErrorBand(*values, n, eps, q);
    const bool verify_all = !std::isfinite(threshold);
    // Running prefix sums of (v - c) and (v - c)^2: `lead` covers
    // [0, lead_end), `trail` covers [0, trail_end).
    double lead1 = 0.0;
    double lead2 = 0.0;
    double trail1 = 0.0;
    double trail2 = 0.0;
    std::size_t lead_end = 0;
    std::size_t trail_end = 0;
    std::uint64_t windows = 0;
    for (std::size_t off = 0; off + n <= len; off += stride) {
      for (; lead_end < off + n; ++lead_end) {
        const double w = v[lead_end] - c;
        lead1 += w;
        lead2 += w * w;
      }
      for (; trail_end < off; ++trail_end) {
        const double w = v[trail_end] - c;
        trail1 += w;
        trail2 += w * w;
      }
      const double s1 = lead1 - trail1;
      const double s2 = lead2 - trail2;
      double d2 = s2 - s1 * s1 * inv_n;
      if (q.uu > 0.0) {
        const double corr = Dot4(use, v + off, n);
        d2 -= corr * corr * inv_uu;
      }
      ++windows;
      if (!verify_all && !(d2 <= threshold)) continue;
      ++counts->verified;
      std::optional<Match> match = VerifyCandidate(
          ctx, values->subspan(off, n),
          seq::MakeRecordId(series, static_cast<std::uint32_t>(off)), eps,
          cost);
      if (match.has_value()) out->push_back(*match);
    }
    counts->windows += windows;
  }
  return Status::OK();
}

}  // namespace tsss::core
