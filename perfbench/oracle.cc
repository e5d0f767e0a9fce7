// Statistics, the error ledger, the query pool and answer checking against
// the sequential-scan oracle.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <thread>

#include "perfbench/harness.h"

namespace perfbench {

using tsss::core::Match;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Ledger::Fail(const std::string& what, std::uint64_t n) {
  failed += n;
  if (failures.size() < 8) failures.push_back(what);
}

void Ledger::Merge(const Ledger& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& f : other.failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
}

std::vector<Pair> MakePairs(std::size_t num_queries,
                            const std::vector<double>& eps,
                            const std::vector<std::size_t>& ks) {
  std::vector<Pair> pairs;
  for (std::size_t q = 0; q < num_queries; ++q) {
    for (double e : eps) pairs.push_back({q, Kind::kRange, e, 0});
    for (std::size_t k : ks) pairs.push_back({q, Kind::kKnn, 0.0, k});
  }
  return pairs;
}

std::uint64_t Fingerprint(const std::vector<Match>& matches) {
  // Sum of per-match FNV-1a hashes: independent of answer order.
  std::uint64_t sum = matches.size();
  for (const Match& m : matches) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint64_t word :
         {m.record, std::bit_cast<std::uint64_t>(m.distance),
          std::bit_cast<std::uint64_t>(m.transform.scale),
          std::bit_cast<std::uint64_t>(m.transform.offset)}) {
      h = (h ^ word) * 1099511628211ull;
    }
    sum += h;
  }
  return sum;
}

namespace {

bool SameMatch(const Match& a, const Match& b) {
  return a.record == b.record && a.series == b.series &&
         a.offset == b.offset &&
         std::bit_cast<std::uint64_t>(a.distance) ==
             std::bit_cast<std::uint64_t>(b.distance) &&
         std::bit_cast<std::uint64_t>(a.transform.scale) ==
             std::bit_cast<std::uint64_t>(b.transform.scale) &&
         std::bit_cast<std::uint64_t>(a.transform.offset) ==
             std::bit_cast<std::uint64_t>(b.transform.offset);
}

std::vector<Match> CanonicalKnnOrder(std::vector<Match> matches) {
  std::sort(matches.begin(), matches.end(), [](const Match& a, const Match& b) {
    return a.distance < b.distance ||
           (a.distance == b.distance && a.record < b.record);
  });
  return matches;
}

}  // namespace

bool SameAnswer(Kind kind, const std::vector<Match>& got,
                const std::vector<Match>& oracle) {
  if (got.size() != oracle.size()) return false;
  if (kind == Kind::kRange) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!SameMatch(got[i], oracle[i])) return false;
    }
    return true;
  }
  const std::vector<Match> a = CanonicalKnnOrder(got);
  const std::vector<Match> b = CanonicalKnnOrder(oracle);
  if (a.empty()) return true;
  const double kth = b.back().distance;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].distance) !=
        std::bit_cast<std::uint64_t>(b[i].distance)) {
      return false;
    }
    // Windows tied at the k-th distance may legitimately differ.
    if (b[i].distance != kth && !SameMatch(a[i], b[i])) return false;
  }
  return true;
}

bool AnswerBook::Record(std::size_t p, std::vector<Match> matches) {
  const std::uint64_t fp = Fingerprint(matches);
  std::lock_guard<std::mutex> lock(mu_);
  if (seen_[p]++ == 0) {
    fingerprint_[p] = fp;
    first_[p] = std::move(matches);
    return true;
  }
  return fingerprint_[p] == fp;
}

OracleAnswers RunOracle(const std::vector<tsss::seq::TimeSeries>& corpus,
                        std::size_t window,
                        const std::vector<tsss::geom::Vec>& queries,
                        const std::vector<Pair>& pairs, std::size_t threads) {
  tsss::seq::Dataset dataset;
  for (const tsss::seq::TimeSeries& series : corpus) dataset.Add(series);
  const tsss::core::SequentialScanner scanner(&dataset, window);

  // One scan per (query, kind), at the widest eps or the largest k.
  std::vector<Pair> scans;
  std::vector<std::size_t> scan_of(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const Pair& pair = pairs[p];
    std::size_t s = 0;
    while (s < scans.size() &&
           (scans[s].query != pair.query || scans[s].kind != pair.kind)) {
      ++s;
    }
    if (s == scans.size()) scans.push_back(pair);
    scans[s].eps = std::max(scans[s].eps, pair.eps);
    scans[s].k = std::max(scans[s].k, pair.k);
    scan_of[p] = s;
  }

  std::vector<std::vector<Match>> scanned(scans.size());
  OracleAnswers out;
  out.scan_ms.resize(scans.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t s = next++; s < scans.size(); s = next++) {
      const Pair& scan = scans[s];
      const Clock::time_point start = Clock::now();
      tsss::Result<std::vector<Match>> answer =
          scan.kind == Kind::kRange
              ? scanner.RangeQuery(queries[scan.query], scan.eps)
              : scanner.Knn(queries[scan.query], scan.k);
      out.scan_ms[s] = SecondsSince(start) * 1e3;
      // A scan over valid in-memory data cannot fail; an error here is a
      // benchmark bug, so leave the answer empty and let the check fail.
      if (answer.ok()) scanned[s] = std::move(answer).value();
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(threads, 1); ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) t.join();

  out.answers.resize(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const std::vector<Match>& full = scanned[scan_of[p]];
    std::vector<Match>& answer = out.answers[p];
    if (pairs[p].kind == Kind::kRange) {
      for (const Match& m : full) {
        if (!(m.distance > pairs[p].eps)) answer.push_back(m);
      }
    } else {
      answer.assign(full.begin(),
                    full.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(pairs[p].k, full.size())));
    }
  }
  return out;
}

void CheckBook(const std::vector<Pair>& pairs, const OracleAnswers& oracle,
               const EngineAnswerFn& engine_answer, bool inject_wrong,
               AnswerBook* book, Ledger* ledger) {
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (!book->has(p)) {
      ledger->Attempt();
      tsss::Result<std::vector<Match>> answer = engine_answer(pairs[p]);
      if (!answer.ok()) {
        ledger->Fail("pair " + std::to_string(p) + ": " +
                     answer.status().ToString());
        continue;
      }
      book->Record(p, std::move(answer).value());
    }
    if (inject_wrong && p == 0) {
      // Self-test: a lost answer must be caught.
      std::vector<Match>& first = book->first(p);
      if (first.empty()) {
        first.push_back(Match{});
      } else {
        first.pop_back();
      }
    }
    if (!SameAnswer(pairs[p].kind, book->first(p), oracle.answers[p])) {
      ledger->Fail("pair " + std::to_string(p) +
                       " differs from the sequential-scan oracle",
                   book->answered(p));
    }
  }
}

}  // namespace perfbench
