// Compares two benchmark report trees (schema-v1 BENCH_*.json, see
// bench/bench_common.h) with per-metric noise thresholds:
//
//   bench_diff --baseline PATH --current PATH [--threshold 0.25]
//              [--counts-only] [--ignore KEY]...
//   bench_diff --inject FACTOR in.json out.json
//
// PATH is a directory (every BENCH_*.json inside) or a single file. Rows are
// matched by index; the metric key decides how its values are compared:
//
//   time    (_ms/_us/_ns/_s/seconds/time/latency)  lower is better; fails
//           when current > baseline * (1 + threshold)
//   rate    (qps/throughput)                       higher is better; fails
//           when current < baseline * (1 - threshold)
//   noisy   (pct/percent/ratio)                    derived from timings;
//           reported but never gates
//   count   (everything else)                      deterministic; must match
//           exactly unless listed with --ignore
//
// A null or non-finite value (how a report writes an average over nothing)
// fails in every class, --counts-only included: a metric that measured
// nothing cannot pass a gate.
//
// --counts-only skips the time/rate/noisy classes entirely — the mode CI
// uses against the committed bench/baselines snapshot, where wall times from
// another machine are meaningless but page/candidate/match counts are not.
//
// --inject multiplies every time-class metric by FACTOR and writes the result
// to out.json; the CI self-test uses it to prove the gate actually fires.
//
// Exit status: 0 = no regressions, 1 = regression or structural mismatch,
// 2 = usage/IO error.

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "json_mini.h"

namespace {

using jsonmini::JsonValue;

enum class MetricClass { kTime, kRate, kNoisy, kCount };

bool HasToken(const std::string& key, const std::set<std::string>& tokens) {
  std::size_t start = 0;
  while (start <= key.size()) {
    const std::size_t end = key.find('_', start);
    const std::string token =
        key.substr(start, end == std::string::npos ? end : end - start);
    if (tokens.count(token) != 0) return true;
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return false;
}

MetricClass Classify(const std::string& key) {
  static const std::set<std::string> kTimeTokens = {
      "ms", "us", "ns", "s", "seconds", "time", "latency"};
  static const std::set<std::string> kRateTokens = {"qps", "throughput"};
  static const std::set<std::string> kNoisyTokens = {"pct", "percent",
                                                     "ratio"};
  if (HasToken(key, kTimeTokens)) return MetricClass::kTime;
  if (HasToken(key, kRateTokens)) return MetricClass::kRate;
  if (HasToken(key, kNoisyTokens)) return MetricClass::kNoisy;
  return MetricClass::kCount;
}

struct Options {
  std::string baseline;
  std::string current;
  double threshold = 0.25;
  bool counts_only = false;
  std::set<std::string> ignored;
};

/// One report per file: its display name and full path.
struct ReportFile {
  std::string name;
  std::string path;
};

/// Expands PATH into the reports it holds: the BENCH_*.json files of a
/// directory (sorted by name) or the single file itself.
bool CollectReports(const std::string& path, std::vector<ReportFile>* out,
                    std::string* error) {
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      *error = "cannot open '" + path + "'";
      return false;
    }
    std::fclose(f);
    std::size_t slash = path.find_last_of('/');
    out->push_back(
        {slash == std::string::npos ? path : path.substr(slash + 1), path});
    return true;
  }
  while (const dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      out->push_back({name, path + "/" + name});
    }
  }
  closedir(dir);
  std::sort(out->begin(), out->end(),
            [](const ReportFile& a, const ReportFile& b) {
              return a.name < b.name;
            });
  return true;
}

/// Compares one metric; returns false on a gating regression.
bool CompareMetric(const std::string& where, const std::string& key,
                   const JsonValue& base, const JsonValue& cur,
                   const Options& opts) {
  if (opts.ignored.count(key) != 0) return true;
  if (base.kind != cur.kind) {
    std::printf("FAIL %s.%s: kind changed\n", where.c_str(), key.c_str());
    return false;
  }
  switch (base.kind) {
    case JsonValue::Kind::kNull:
      // A null metric (how the reports write NaN) measured nothing; two
      // nulls must not count as "unchanged".
      std::printf("FAIL %s.%s: null (nothing was measured)\n", where.c_str(),
                  key.c_str());
      return false;
    case JsonValue::Kind::kBool:
      if (base.boolean != cur.boolean) {
        std::printf("FAIL %s.%s: %s -> %s\n", where.c_str(), key.c_str(),
                    base.boolean ? "true" : "false",
                    cur.boolean ? "true" : "false");
        return false;
      }
      return true;
    case JsonValue::Kind::kString:
      if (base.str != cur.str) {
        std::printf("FAIL %s.%s: \"%s\" -> \"%s\"\n", where.c_str(),
                    key.c_str(), base.str.c_str(), cur.str.c_str());
        return false;
      }
      return true;
    case JsonValue::Kind::kNumber:
      break;
    default:  // arrays/objects are rejected by bench_schema_check already
      return true;
  }

  const double b = base.number;
  const double c = cur.number;
  if (!std::isfinite(b) || !std::isfinite(c)) {
    std::printf("FAIL %s.%s: not finite (%g -> %g)\n", where.c_str(),
                key.c_str(), b, c);
    return false;
  }
  switch (Classify(key)) {
    case MetricClass::kCount:
      if (b != c) {
        std::printf("FAIL %s.%s: count changed %.17g -> %.17g\n",
                    where.c_str(), key.c_str(), b, c);
        return false;
      }
      return true;
    case MetricClass::kTime: {
      if (opts.counts_only) return true;
      if (b > 0.0 && c > b * (1.0 + opts.threshold)) {
        std::printf("FAIL %s.%s: %.4g -> %.4g (+%.1f%% > %.0f%% threshold)\n",
                    where.c_str(), key.c_str(), b, c, 100.0 * (c - b) / b,
                    100.0 * opts.threshold);
        return false;
      }
      return true;
    }
    case MetricClass::kRate: {
      if (opts.counts_only) return true;
      if (b > 0.0 && c < b * (1.0 - opts.threshold)) {
        std::printf("FAIL %s.%s: %.4g -> %.4g (%.1f%% < -%.0f%% threshold)\n",
                    where.c_str(), key.c_str(), b, c, 100.0 * (c - b) / b,
                    100.0 * opts.threshold);
        return false;
      }
      return true;
    }
    case MetricClass::kNoisy:
      // Derived ratios (overhead_pct etc.) wobble with the timings they are
      // computed from; surface large moves without gating on them.
      if (!opts.counts_only && b != 0.0 &&
          std::fabs(c - b) > opts.threshold * std::fabs(b)) {
        std::printf("note %s.%s: %.4g -> %.4g (not gating)\n", where.c_str(),
                    key.c_str(), b, c);
      }
      return true;
  }
  return true;
}

/// Diffs one baseline report against its current counterpart.
bool CompareReports(const std::string& name, const JsonValue& base,
                    const JsonValue& cur, const Options& opts) {
  bool ok = true;

  // The environment must match: comparing a 20-company smoke run against a
  // 200-company full run is a user error, not a regression.
  const JsonValue* base_env = base.Get("env");
  const JsonValue* cur_env = cur.Get("env");
  std::string base_env_text;
  std::string cur_env_text;
  if (base_env != nullptr) jsonmini::Serialize(*base_env, &base_env_text);
  if (cur_env != nullptr) jsonmini::Serialize(*cur_env, &cur_env_text);
  if (base_env_text != cur_env_text) {
    std::printf("FAIL %s: env mismatch (%s vs %s)\n", name.c_str(),
                base_env_text.c_str(), cur_env_text.c_str());
    return false;
  }

  const JsonValue* base_rows = base.Get("rows");
  const JsonValue* cur_rows = cur.Get("rows");
  if (base_rows == nullptr || cur_rows == nullptr ||
      base_rows->kind != JsonValue::Kind::kArray ||
      cur_rows->kind != JsonValue::Kind::kArray) {
    std::printf("FAIL %s: rows missing\n", name.c_str());
    return false;
  }
  if (base_rows->array.size() != cur_rows->array.size()) {
    std::printf("FAIL %s: row count changed %zu -> %zu\n", name.c_str(),
                base_rows->array.size(), cur_rows->array.size());
    return false;
  }

  for (std::size_t i = 0; i < base_rows->array.size(); ++i) {
    const JsonValue& base_row = base_rows->array[i];
    const JsonValue& cur_row = cur_rows->array[i];
    const std::string where = name + " rows[" + std::to_string(i) + "]";
    for (const auto& [key, base_value] : base_row.object) {
      const JsonValue* cur_value = cur_row.Get(key);
      if (cur_value == nullptr) {
        std::printf("FAIL %s.%s: metric disappeared\n", where.c_str(),
                    key.c_str());
        ok = false;
        continue;
      }
      if (!CompareMetric(where, key, base_value, *cur_value, opts)) ok = false;
    }
    for (const auto& [key, cur_value] : cur_row.object) {
      if (!base_row.Has(key)) {
        std::printf("warn %s.%s: new metric (not in baseline)\n",
                    where.c_str(), key.c_str());
      }
    }
  }
  return ok;
}

int RunDiff(const Options& opts) {
  std::vector<ReportFile> base_files;
  std::vector<ReportFile> cur_files;
  std::string error;
  if (!CollectReports(opts.baseline, &base_files, &error) ||
      !CollectReports(opts.current, &cur_files, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (base_files.empty()) {
    std::fprintf(stderr, "error: no BENCH_*.json under '%s'\n",
                 opts.baseline.c_str());
    return 2;
  }

  bool ok = true;
  std::size_t compared = 0;
  for (const ReportFile& base_file : base_files) {
    const auto it = std::find_if(cur_files.begin(), cur_files.end(),
                                 [&base_file](const ReportFile& f) {
                                   return f.name == base_file.name;
                                 });
    if (it == cur_files.end()) {
      std::printf("FAIL %s: missing from current tree\n",
                  base_file.name.c_str());
      ok = false;
      continue;
    }
    JsonValue base;
    JsonValue cur;
    if (!jsonmini::ParseFile(base_file.path, &base, &error) ||
        !jsonmini::ParseFile(it->path, &cur, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    if (!CompareReports(base_file.name, base, cur, opts)) ok = false;
    ++compared;
  }
  for (const ReportFile& cur_file : cur_files) {
    const auto it = std::find_if(base_files.begin(), base_files.end(),
                                 [&cur_file](const ReportFile& f) {
                                   return f.name == cur_file.name;
                                 });
    if (it == base_files.end()) {
      std::printf("warn %s: new report (not in baseline)\n",
                  cur_file.name.c_str());
    }
  }
  std::printf("%s: %zu report(s) compared, threshold %.0f%%%s\n",
              ok ? "OK" : "REGRESSION", compared, 100.0 * opts.threshold,
              opts.counts_only ? " (counts only)" : "");
  return ok ? 0 : 1;
}

int RunInject(double factor, const std::string& in, const std::string& out) {
  JsonValue root;
  std::string error;
  if (!jsonmini::ParseFile(in, &root, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  JsonValue* rows = root.GetMutable("rows");
  std::size_t touched = 0;
  if (rows != nullptr && rows->kind == JsonValue::Kind::kArray) {
    for (JsonValue& row : rows->array) {
      for (auto& [key, value] : row.object) {
        if (value.kind == JsonValue::Kind::kNumber &&
            Classify(key) == MetricClass::kTime) {
          value.number *= factor;
          ++touched;
        }
      }
    }
  }
  std::string text;
  jsonmini::Serialize(root, &text);
  text += '\n';
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open '%s' for writing\n", out.c_str());
    return 2;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("injected x%.3g into %zu time metric(s): %s -> %s\n", factor,
              touched, in.c_str(), out.c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_diff --baseline PATH --current PATH\n"
               "                  [--threshold 0.25] [--counts-only]\n"
               "                  [--ignore KEY]...\n"
               "       bench_diff --inject FACTOR in.json out.json\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--inject") == 0) {
    if (argc != 5) return Usage();
    const double factor = std::atof(argv[2]);
    if (factor <= 0.0) {
      std::fprintf(stderr, "error: --inject FACTOR must be positive\n");
      return 2;
    }
    return RunInject(factor, argv[3], argv[4]);
  }

  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.baseline = v;
    } else if (arg == "--current") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.current = v;
    } else if (arg == "--threshold") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.threshold = std::atof(v);
      if (opts.threshold <= 0.0) {
        std::fprintf(stderr, "error: --threshold must be positive\n");
        return 2;
      }
    } else if (arg == "--counts-only") {
      opts.counts_only = true;
    } else if (arg == "--ignore") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.ignored.insert(v);
    } else {
      return Usage();
    }
  }
  if (opts.baseline.empty() || opts.current.empty()) return Usage();
  return RunDiff(opts);
}
