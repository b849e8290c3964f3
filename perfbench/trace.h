// In-memory span recorder for the benchmark's traced runs.
//
// A span times one call into a layer's public function, made from the
// benchmark's own code: name ("<layer>.<op>"), start, end, the span that
// caused it, and the request it belongs to. Spans go to a per-thread
// buffer (no lock on the hot path) and are collected and written out
// once the run ends. Recording is off unless Tracer::SetEnabled(true),
// so untraced runs pay one relaxed load per call site.

#ifndef BWPERF_TRACE_H_
#define BWPERF_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bwperf {

/// Nanoseconds on the steady clock since the process's first call (main
/// makes it first, so NowNs() / 1e9 is the time since start).
uint64_t NowNs();

struct Span {
  const char* name = "";  // static storage: "<layer>.<op>".
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root.
  uint64_t request = 0;  // shared by every span of one request.
  uint64_t key = 0;      // hash of the request's input vector (matching).

  double duration_us() const { return (end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static uint64_t NewId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Appends to the calling thread's buffer (call only while enabled).
  static void Record(const Span& span);
  /// Every span recorded since the last Collect, from all threads, in
  /// start order; empties the buffers. Call once the recording threads
  /// are quiescent.
  static std::vector<Span> Collect();
  /// Writes one JSON object per span; false on I/O failure.
  static bool WriteJsonl(const std::string& path,
                         const std::vector<Span>& spans);

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<uint64_t> next_id_;
};

/// Per-layer self time summed over the spans of each request whose root
/// span is named `root_name`, averaged over those requests. A span's
/// self time is its duration minus the part of it covered by its
/// children, so the layers of one request add up to its root span.
std::map<std::string, double> MeanSelfTimeUs(const std::vector<Span>& spans,
                                             const char* root_name);

/// Times one call: records a span on destruction when tracing was on at
/// construction. A root span (request 0) starts a request of its own id.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t parent, uint64_t request,
             uint64_t key = 0)
      : on_(Tracer::enabled()) {
    if (!on_) return;
    span_.name = name;
    span_.parent = parent;
    span_.key = key;
    span_.id = Tracer::NewId();
    span_.request = request != 0 ? request : span_.id;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (!on_) return;
    span_.end_ns = NowNs();
    Tracer::Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// False when tracing was off at construction (nothing is recorded).
  bool recording() const { return on_; }
  uint64_t id() const { return span_.id; }
  uint64_t request() const { return span_.request; }
  uint64_t start_ns() const { return span_.start_ns; }

 private:
  bool on_;
  Span span_;
};

/// Records a child of span `parent` in `request` whose length a layer
/// reported as a counter (a queue wait, an apply time) rather than one
/// the benchmark timed, placed at `start_ns`. Returns the new span's id.
uint64_t RecordReported(const char* name, uint64_t start_ns,
                        double duration_us, uint64_t parent,
                        uint64_t request);

/// The same under a timed span; no-op (returns 0) unless `parent` is
/// recording.
uint64_t RecordReported(const char* name, uint64_t start_ns,
                        double duration_us, const ScopedSpan& parent);

}  // namespace bwperf

#endif  // BWPERF_TRACE_H_
