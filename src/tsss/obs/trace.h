#ifndef TSSS_OBS_TRACE_H_
#define TSSS_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tsss::obs {

/// Async-signal-safe mirror of this thread's open TraceSpan phases, read by
/// the sampling profiler's SIGPROF handler to attribute CPU samples to query
/// phases without symbolization. Unlike QueryTrace (heap-backed, installed
/// only while a recorder is armed), the mirror is maintained unconditionally
/// by every TraceSpan: a fixed-depth array of string-literal pointers plus an
/// atomic depth, all constant-initialized POD so the handler's thread-local
/// access cannot allocate or run a TLS guard.
///
/// Only the owning thread writes; a signal handler running ON THAT THREAD
/// reads. Ordering between the two is same-thread signal ordering, so the
/// stores use relaxed atomics paired with std::atomic_signal_fence — no
/// cross-thread synchronization is needed or implied.
struct PhaseStack {
  static constexpr int kMaxDepth = 16;
  std::atomic<int> depth;
  std::atomic<const char*> names[kMaxDepth];
};

/// This thread's phase mirror. Always valid; safe to call from a signal
/// handler on the same thread (constant-initialized thread_local).
PhaseStack* CurrentPhaseStack();

/// The innermost open phase name on this thread, or nullptr when no
/// TraceSpan is open. Async-signal-safe.
const char* CurrentPhaseName();

/// One completed (or still-open) span in a query trace.
struct TraceEvent {
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  std::string name;
  std::uint64_t start_us = 0;  ///< offset from trace start
  std::uint64_t dur_us = 0;    ///< filled when the span closes
  std::size_t parent = kNoParent;  ///< index of enclosing span
  int depth = 0;                   ///< nesting depth (root spans are 0)
  bool closed = false;
  /// Counters attached via TraceSpan::Annotate / QueryTrace::Annotate.
  std::vector<std::pair<std::string, std::uint64_t>> args;
};

/// Per-query trace: a tree of timed spans with attached counters.
///
/// A query runs on exactly one thread, so QueryTrace is deliberately NOT
/// thread-safe — it is owned by the caller, installed thread-locally for the
/// duration of one query via ScopedQueryTrace, and read after the query
/// returns. Export with ToChromeJson() for chrome://tracing / Perfetto.
class QueryTrace {
 public:
  QueryTrace();

  /// Opens a span nested under the innermost open span. Returns its index.
  std::size_t OpenSpan(std::string name);
  /// Closes span `index`, fixing its duration. Out-of-order closes are
  /// tolerated (the open stack is unwound to the matching entry).
  void CloseSpan(std::size_t index);
  /// Attaches a counter to span `index`.
  void AddArg(std::size_t index, const std::string& key, std::uint64_t value);
  /// Attaches a counter to the innermost open span (or the first root span
  /// when none is open; dropped on an empty trace).
  void Annotate(const std::string& key, std::uint64_t value);

  const std::vector<TraceEvent>& events() const { return spans_; }

  /// Chrome trace-event JSON ({"traceEvents": [...]}, complete "X" events,
  /// ts/dur in microseconds). Still-open spans get their duration as of now.
  std::string ToChromeJson() const;

 private:
  std::uint64_t NowUs() const;

  std::chrono::steady_clock::time_point start_;
  std::vector<TraceEvent> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

/// Returns the trace installed on this thread, or nullptr (tracing off).
QueryTrace* CurrentQueryTrace();

/// Installs `trace` as this thread's current query trace for the scope's
/// lifetime, restoring the previous one on destruction (same pattern as
/// obs::ScopedQueryLedger).
class ScopedQueryTrace {
 public:
  explicit ScopedQueryTrace(QueryTrace* trace);
  ~ScopedQueryTrace();

  ScopedQueryTrace(const ScopedQueryTrace&) = delete;
  ScopedQueryTrace& operator=(const ScopedQueryTrace&) = delete;

 private:
  QueryTrace* prev_;
};

/// RAII scoped timer. When a QueryTrace is installed on this thread, the
/// constructor opens a span and the destructor closes it; when tracing is
/// off, construction is one thread-local read and a branch — cheap enough
/// for per-phase use on the query hot path (never per-node).
///
/// Every TraceSpan also pushes its name onto this thread's PhaseStack
/// (whether or not a trace is installed) so the sampling profiler can
/// attribute SIGPROF samples to the active phase. `name` must be a string
/// literal or otherwise outlive the span: the mirror stores the pointer.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a counter to this span. No-op when tracing is off.
  void Annotate(const char* key, std::uint64_t value);

  /// True when this span records into a trace (tracing was on when it
  /// opened).
  bool active() const { return trace_ != nullptr; }

  /// Closes the span now instead of at scope exit (the destructor then
  /// no-ops). Lets sequential phases in one scope get disjoint durations.
  void Close();

 private:
  void PopPhase();

  QueryTrace* trace_;
  std::size_t index_ = 0;
  /// Phase-mirror depth to restore on close; pop-once even when Close() is
  /// followed by the destructor, and self-healing under out-of-order closes
  /// (the restore only ever shrinks the stack).
  int phase_depth_ = 0;
  bool phase_popped_ = false;
};

}  // namespace tsss::obs

#endif  // TSSS_OBS_TRACE_H_
