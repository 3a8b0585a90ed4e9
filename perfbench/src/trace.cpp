#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_seq{0};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::uint32_t depth = 0;
  std::vector<Span> spans;
};

// Buffers are owned here, not by the threads, so spans survive a worker
// thread exiting before drain().
std::mutex g_registry_mutex;
std::deque<ThreadBuffer> g_registry;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.emplace_back();
    buffer = &g_registry.back();
    buffer->thread = static_cast<std::uint32_t>(g_registry.size() - 1);
    buffer->spans.reserve(1 << 16);
  }
  return *buffer;
}

}  // namespace

const char* entry_name(Entry entry) noexcept {
  switch (entry) {
#define ENTRY(id, symbol) \
  case Entry::id:         \
    return #id;
#include "entry_points.def"
#undef ENTRY
    case Entry::kCount:
      break;
  }
  return "unknown";
}

void enable(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Scope::Scope(Entry entry) noexcept {
  if (!enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  active_ = true;
  span_.entry = entry;
  span_.times.thread = buffer.thread;
  span_.times.depth = buffer.depth++;
  span_.times.seq = g_seq.fetch_add(1, std::memory_order_relaxed);
  span_.times.start_ns = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.times.end_ns = now_ns();
  ThreadBuffer& buffer = local_buffer();
  --buffer.depth;
  buffer.spans.push_back(span_);
}

std::vector<Span> drain() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<Span> all;
  for (ThreadBuffer& buffer : g_registry) {
    all.insert(all.end(), buffer.spans.begin(), buffer.spans.end());
    buffer.spans.clear();
  }
  return all;
}

}  // namespace perfbench::trace
