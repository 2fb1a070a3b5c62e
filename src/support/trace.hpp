// Scoped trace spans with Chrome-trace-event JSON output.
//
// A Span marks one timed region (unit execution, a scenario solve, a
// schema compile, artifact I/O, a wire pump). Spans are buffered in
// per-thread buffers — no cross-thread synchronization while tracing —
// and flushed on demand as a Chrome trace event file ("X" complete
// events), loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Cost model: tracing is OFF by default and the disabled path is a single
// relaxed atomic-bool load and branch per span — cheap enough that spans
// stay compiled in everywhere, including worker processes. When enabled,
// a span costs two steady_clock reads and a bounded-buffer append.
//
// Spans never touch solver state or results: a study's reduced report is
// byte-identical with tracing on or off.
#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>

namespace rrl::trace {

namespace detail {
extern std::atomic<bool> g_enabled;
void record(const char* name, std::uint64_t start_us, std::uint64_t dur_us,
            std::uint64_t arg) noexcept;
[[nodiscard]] std::uint64_t now_us() noexcept;
}  // namespace detail

/// Whether span collection is armed. Inline so the disabled cost at a
/// span site is exactly one load + branch.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Arm / disarm collection. Spans opened while disabled record nothing
/// even if collection is enabled before they close.
void enable() noexcept;
void disable() noexcept;

/// Drop every buffered event (test support).
void reset();

/// RAII timed region. `name` must be a string literal (or otherwise
/// outlive the flush); `arg` is an optional numeric payload rendered as
/// {"args":{"v":...}} — unit ids, scenario counts, byte counts.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t arg = 0) noexcept {
    if (enabled()) {
      name_ = name;
      arg_ = arg;
      start_us_ = detail::now_us();
    }
  }
  ~Span() {
    if (name_ != nullptr) {
      detail::record(name_, start_us_, detail::now_us() - start_us_, arg_);
    }
  }
  /// Replace the payload, for regions whose count is known only at the
  /// end (steps taken, bytes moved).
  void set_arg(std::uint64_t arg) noexcept { arg_ = arg; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_us_ = 0;
  std::uint64_t arg_ = 0;
};

/// Write every buffered event from every thread as a Chrome trace JSON
/// object ({"traceEvents":[...]}) and return the number of events
/// written. Threads that keep tracing during the flush are safe; their
/// in-flight spans land in a later flush.
std::size_t write_chrome_trace(std::ostream& out);

/// write_chrome_trace to `path`; false if the file could not be written.
bool write_chrome_trace_file(const std::string& path);

}  // namespace rrl::trace
