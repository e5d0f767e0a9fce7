// tsss_perfbench: runs one benchmark workload and prints its metrics.
//
//   tsss_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir DIR] [--commit ID] [--corpus-seed N]
//                  [--companies N]
//                  [--values N] [--queries N] [--inject-wrong-answer]
//                  [--drop-span NAME]
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit codes: 0 result printed; 1 bad arguments or a program
// error; 2 a vacuous run (no query completed, or a metric is not a finite
// number); 3 not a Release build, so no timing may be reported.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/harness.h"

namespace {

using perfbench::Metric;

bool ParseArgs(int argc, char** argv, perfbench::Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-wrong-answer") {
      o->inject_wrong_answer = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    const unsigned long long number = std::strtoull(value.c_str(), &end, 10);
    const bool is_number = !value.empty() && *end == '\0';
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--work-dir") {
      o->work_dir = value;
    } else if (flag == "--drop-span") {
      o->drop_span = value;
    } else if (flag == "--commit") {
      o->commit = value;
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o->seconds > 0.0)) return false;
    } else if (flag == "--seed" && is_number) {
      o->seed = number;
    } else if (flag == "--corpus-seed" && is_number) {
      o->corpus_seed = number;
    } else if (flag == "--trace" && is_number && number <= 1) {
      o->trace = number == 1;
    } else if (flag == "--companies" && is_number && number >= 8) {
      o->companies = number;
    } else if (flag == "--values" && is_number && number > o->window) {
      o->values = number;
    } else if (flag == "--queries" && is_number && number >= 1) {
      o->queries = number;
    } else {
      std::fprintf(stderr, "bad argument %s %s\n", flag.c_str(), value.c_str());
      return false;
    }
  }
  return !o->workload.empty();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: tsss_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 1;
  }
#ifdef NDEBUG
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  if (std::strcmp(TSSS_PERFBENCH_BUILD_TYPE, "Release") != 0 || !optimized) {
    std::fprintf(stderr,
                 "refusing to report timings from a '%s' build; build with "
                 "CMAKE_BUILD_TYPE=Release\n",
                 TSSS_PERFBENCH_BUILD_TYPE);
    return 3;
  }

  std::unique_ptr<perfbench::Tracer> tracer;
  if (options.trace) tracer = std::make_unique<perfbench::Tracer>();
  tsss::Result<perfbench::WorkloadOutput> result =
      perfbench::RunWorkload(options, tracer.get());
  if (!result.ok()) {
    std::fprintf(stderr, "workload %s failed: %s\n", options.workload.c_str(),
                 result.status().ToString().c_str());
    return 1;
  }
  const perfbench::WorkloadOutput& out = *result;
  const std::vector<Metric>& metrics =
      options.trace ? out.per_layer : out.end_to_end;

  const perfbench::Ledger& ledger = out.ledger;
  const double error_rate =
      ledger.attempted == 0 ? 1.0
                            : static_cast<double>(ledger.failed) /
                                  static_cast<double>(ledger.attempted);
  std::printf("# workload %s, seed %llu, %s run\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced");
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("metric %-34s %14.6g %-6s %llu failed of %llu attempted\n",
              "error_rate", error_rate, "frac",
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.attempted));
  for (const std::string& f : ledger.failures) {
    std::printf("# failure: %s\n", f.c_str());
  }

  if (tracer != nullptr) {
    // One file per workload: the latest traced run replaces the previous one.
    const std::string path =
        options.work_dir + "/trace-" + options.workload + ".json";
    if (!tracer->WriteJson(path)) {
      std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
      return 1;
    }
    std::printf("# spans written to %s (%llu dropped)\n", path.c_str(),
                static_cast<unsigned long long>(tracer->dropped()));
  }

  // No vacuous results: a run that answered nothing, or a metric that is not
  // a number, must not pass as a measurement.
  if (out.completed_queries == 0) {
    std::fprintf(stderr, "no query completed: refusing to report\n");
    return 2;
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not a finite number\n",
                   m.name.c_str());
      return 2;
    }
  }

  std::printf(
      "env {\"nproc\":%u,\"build_type\":%s,\"compiler\":%s,\"scale\":%s,"
      "\"companies\":%zu,\"values\":%zu,\"windows\":%zu,\"queries\":%zu,"
      "\"corpus_seed\":%llu,\"query_seed\":%llu,\"seconds\":%s,"
      "\"commit\":%s}\n",
      std::thread::hardware_concurrency(),
      JsonString(TSSS_PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(TSSS_PERFBENCH_COMPILER).c_str(),
      options.default_scale() ? "\"default\"" : "\"tiny\"", options.companies,
      options.values, out.windows, options.queries,
      static_cast<unsigned long long>(options.corpus_seed),
      static_cast<unsigned long long>(options.seed),
      JsonNumber(options.seconds).c_str(), JsonString(options.commit).c_str());

  std::string json = "{\"correct\": ";
  json += ledger.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
