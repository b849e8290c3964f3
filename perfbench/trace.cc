#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace bwperf {

std::atomic<bool> Tracer::enabled_{false};
std::atomic<uint64_t> Tracer::next_id_{1};

namespace {

using Clock = std::chrono::steady_clock;

/// One thread's spans. The mutex is uncontended while recording; it
/// only orders a late Record against Collect.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<Span> spans;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();  // outlives every thread.
  return *registry;
}

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(1 << 14);
    buffer = owned.get();
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.buffers.push_back(std::move(owned));
  }
  return buffer;
}

/// The layer of a span: its name up to the first '.'.
std::string LayerOf(const char* name) {
  const std::string full(name);
  return full.substr(0, full.find('.'));
}

}  // namespace

uint64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

void Tracer::Record(const Span& span) {
  ThreadBuffer* buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->spans.push_back(span);
}

std::vector<Span> Tracer::Collect() {
  std::vector<Span> out;
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& buffer : registry.buffers) {
    std::lock_guard<std::mutex> inner(buffer->mu);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    std::vector<Span>().swap(buffer->spans);
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

bool Tracer::WriteJsonl(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

uint64_t RecordReported(const char* name, uint64_t start_ns,
                        double duration_us, uint64_t parent,
                        uint64_t request) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = start_ns + static_cast<uint64_t>(std::max(0.0, duration_us) *
                                                 1e3);
  span.id = Tracer::NewId();
  span.parent = parent;
  span.request = request;
  Tracer::Record(span);
  return span.id;
}

uint64_t RecordReported(const char* name, uint64_t start_ns,
                        double duration_us, const ScopedSpan& parent) {
  if (!parent.recording()) return 0;
  return RecordReported(name, start_ns, duration_us, parent.id(),
                        parent.request());
}

std::map<std::string, double> MeanSelfTimeUs(const std::vector<Span>& spans,
                                             const char* root_name) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  std::unordered_map<uint64_t, const Span*> roots;  // request -> root.
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].push_back(&s);
    } else if (std::string(s.name) == root_name) {
      roots[s.request] = &s;
    }
  }
  std::map<std::string, double> total_us;
  // Walk each root's tree; a span's self time is its interval minus the
  // union of its children's intervals (clipped to it).
  for (const auto& [request, root] : roots) {
    std::vector<const Span*> stack = {root};
    while (!stack.empty()) {
      const Span* span = stack.back();
      stack.pop_back();
      std::vector<std::pair<uint64_t, uint64_t>> covered;
      auto it = children.find(span->id);
      if (it != children.end()) {
        for (const Span* child : it->second) {
          stack.push_back(child);
          const uint64_t lo = std::max(child->start_ns, span->start_ns);
          const uint64_t hi = std::min(child->end_ns, span->end_ns);
          if (lo < hi) covered.emplace_back(lo, hi);
        }
      }
      std::sort(covered.begin(), covered.end());
      uint64_t covered_ns = 0;
      uint64_t reach = span->start_ns;
      for (const auto& [lo, hi] : covered) {
        const uint64_t from = std::max(lo, reach);
        if (hi > from) covered_ns += hi - from;
        reach = std::max(reach, hi);
      }
      const uint64_t length = span->end_ns - span->start_ns;
      total_us[LayerOf(span->name)] +=
          (length - std::min(length, covered_ns)) / 1e3;
    }
  }
  std::map<std::string, double> mean;
  for (const auto& [layer, us] : total_us) {
    mean[layer] = roots.empty() ? 0.0 : us / roots.size();
  }
  return mean;
}

}  // namespace bwperf
