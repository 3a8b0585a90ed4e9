// In-memory span recorder for the traced build. The wrappers in wrap.cpp
// open a Scope around each interposed call; spans stay in per-thread
// buffers until drain(). Recording is off until enable(true), so the traced
// binary can also time an untraced pass and report its own overhead.
#pragma once

#include <cstdint>
#include <vector>

#include "stats.hpp"

namespace perfbench::trace {

enum class Entry : std::uint8_t {
#define ENTRY(id, symbol) id,
#include "entry_points.def"
#undef ENTRY
  kCount
};
inline constexpr std::size_t kEntryCount = static_cast<std::size_t>(Entry::kCount);

const char* entry_name(Entry entry) noexcept;

struct Span {
  Entry entry = Entry::kCount;
  SpanTimes times;
  /// Entry-specific payload filled by the wrapper (solver stats deltas,
  /// bytes written, coupler iterations...). Meaning per entry in wrap.cpp.
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  double d = 0.0;
};

void enable(bool on) noexcept;
bool enabled() noexcept;

/// Monotonic clock in nanoseconds, the one all spans and steps share.
std::int64_t now_ns() noexcept;

/// Opens a span when recording is on; the destructor closes it.
class Scope {
 public:
  explicit Scope(Entry entry) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  bool active() const noexcept { return active_; }
  Span& span() noexcept { return span_; }

 private:
  bool active_ = false;
  Span span_;
};

/// Removes and returns every span recorded so far, on all threads.
std::vector<Span> drain();

}  // namespace perfbench::trace
