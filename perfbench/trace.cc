// The benchmark's span tracer (see Tracer in harness.h).

#include <atomic>
#include <cstdio>
#include <utility>

#include "perfbench/harness.h"

namespace perfbench {
namespace {

/// Tracer instances get process-unique ids, so a thread never mistakes a new
/// tracer allocated at a dead one's address for the old one.
std::atomic<std::uint64_t> next_instance{1};

struct ThreadSlot {
  std::uint64_t instance = 0;
  void* state = nullptr;
};
thread_local std::vector<ThreadSlot> thread_slots;

}  // namespace

Tracer::Tracer(std::size_t max_kept_spans)
    : instance_(next_instance.fetch_add(1)),
      max_kept_(max_kept_spans),
      origin_(Clock::now()) {}

Tracer::ThreadState* Tracer::State() {
  for (const ThreadSlot& slot : thread_slots) {
    if (slot.instance == instance_) {
      return static_cast<ThreadState*>(slot.state);
    }
  }
  auto state = std::make_unique<ThreadState>();
  ThreadState* raw = state.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    raw->thread = threads_.size() + 1;
    threads_.push_back(std::move(state));
  }
  thread_slots.push_back({instance_, raw});
  return raw;
}

void Tracer::Open(const char* name, std::uint64_t query) {
  ThreadState* state = State();
  Frame frame;
  frame.name = name;
  frame.root = state->stack.empty() ? name : state->stack.back().root;
  frame.child_ns = 0;
  frame.id = (state->thread << 40) | ++state->next_span;
  frame.parent = state->stack.empty() ? 0 : state->stack.back().id;
  frame.query = query != 0 || state->stack.empty() ? query
                                                   : state->stack.back().query;
  frame.start_ns = NanosSince(origin_);
  state->stack.push_back(frame);
}

void Tracer::Close() {
  const std::int64_t end_ns = NanosSince(origin_);
  ThreadState* state = State();
  const Frame frame = state->stack.back();
  state->stack.pop_back();
  const std::int64_t duration = end_ns - frame.start_ns;
  if (!state->stack.empty()) state->stack.back().child_ns += duration;

  TotalsEntry* entry = nullptr;
  for (TotalsEntry& e : state->totals) {
    if (e.root == frame.root && e.name == frame.name) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) {
    state->totals.push_back({frame.root, frame.name, {}});
    entry = &state->totals.back();
  }
  entry->totals.total_ns += duration;
  entry->totals.self_ns += duration - frame.child_ns;

  if (state->spans.size() < max_kept_) {
    state->spans.push_back({frame.name, frame.start_ns, end_ns, frame.id,
                            frame.parent, frame.query});
  } else {
    ++state->dropped;
  }
}

std::uint64_t Tracer::NewQueryId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_query_++;
}

Tracer::Totals Tracer::Get(const std::string& root,
                           const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals out;
  for (const auto& state : threads_) {
    for (const TotalsEntry& e : state->totals) {
      if (root == e.root && name == e.name) {
        out.total_ns += e.totals.total_ns;
        out.self_ns += e.totals.self_ns;
      }
    }
  }
  return out;
}

std::int64_t Tracer::SelfUnder(const std::string& root) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t sum = 0;
  for (const auto& state : threads_) {
    for (const TotalsEntry& e : state->totals) {
      if (root == e.root) sum += e.totals.self_ns;
    }
  }
  return sum;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t sum = 0;
  for (const auto& state : threads_) sum += state->dropped;
  return sum;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  std::uint64_t dropped = 0;
  for (const auto& state : threads_) {
    dropped += state->dropped;
    for (const SpanRecord& s : state->spans) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"query\":%llu}}",
                   first ? "" : ",", s.name,
                   static_cast<unsigned long long>(state->thread),
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.query));
      first = false;
    }
  }
  std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":%llu}}\n",
               static_cast<unsigned long long>(dropped));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
