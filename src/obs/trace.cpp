#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>

#include "support/assert.hpp"

namespace tt::obs {

namespace detail {

std::uint64_t monotonic_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace detail

namespace {

// The fast-path gate: every instrumentation point reads this and nothing
// else while tracing is disabled.
std::atomic<bool> g_enabled{false};
// The active tracer. Its installation generation lives *inside* the Tracer
// (written before the release-store that publishes it here), so a single
// acquire load yields a consistent (buffer source, generation) pair — a
// thread can never pair an old tracer's buffer with a newer generation,
// even if the quiescence contract around install()/uninstall() is violated.
std::atomic<Tracer*> g_active{nullptr};
// Monotone source for Tracer::generation_; bumped once per install().
std::atomic<std::uint64_t> g_generation_counter{0};

thread_local detail::ThreadBuffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_generation = 0;

}  // namespace

/// Returns the calling thread's buffer for the active tracer, registering
/// on first use in a session; nullptr when tracing is disabled.
detail::ThreadBuffer* registered_buffer() {
  Tracer* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) return nullptr;
  // The generation comes from the same object the buffer will, so the two
  // cannot tear across install() sessions (generations strictly increase).
  if (tl_generation != t->generation_) {
    tl_buffer = t->register_thread();
    tl_generation = t->generation_;
  }
  return tl_buffer;
}

Tracer::~Tracer() {
  if (installed()) uninstall();
}

void Tracer::install() {
  TT_REQUIRE(g_active.load(std::memory_order_acquire) == nullptr,
             "a Tracer is already installed");
  epoch_ns_ = detail::monotonic_ns();
  generation_ = g_generation_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  g_active.store(this, std::memory_order_release);
  g_enabled.store(true, std::memory_order_release);
  // Register the installing thread before anyone else can emit: it
  // deterministically owns tid 0, which the Chrome exporter labels
  // "coordinator" (workers otherwise race for the first slot).
  (void)registered_buffer();
}

void Tracer::uninstall() {
  if (g_active.load(std::memory_order_acquire) != this) return;
  g_enabled.store(false, std::memory_order_release);
  g_active.store(nullptr, std::memory_order_release);
}

bool Tracer::installed() const noexcept {
  return g_active.load(std::memory_order_acquire) == this;
}

std::uint64_t Tracer::now_ns() const noexcept {
  return epoch_ns_ == 0 ? 0 : detail::monotonic_ns() - epoch_ns_;
}

detail::ThreadBuffer* Tracer::register_thread() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<detail::ThreadBuffer>(
      static_cast<std::uint32_t>(buffers_.size())));
  return buffers_.back().get();
}

std::vector<ThreadEvents> Tracer::drain() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadEvents> out;
  out.reserve(buffers_.size());
  for (const auto& b : buffers_) {
    ThreadEvents te;
    te.tid = b->tid();
    b->snapshot(te.events);
    out.push_back(std::move(te));
  }
  return out;
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  for (const auto& t : drain()) n += t.events.size();
  return n;
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t now_ns() noexcept {
  const Tracer* t = g_active.load(std::memory_order_acquire);
  return t == nullptr ? 0 : t->now_ns();
}

void emit_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
               std::int64_t arg, const char* arg_name, const char* detail_str,
               const TraceArg* extra, std::size_t num_extra) {
  detail::ThreadBuffer* buf = registered_buffer();
  if (buf == nullptr) return;
  TraceEvent e;
  e.kind = EventKind::kSpan;
  e.name = name;
  e.detail = detail_str;
  e.ts_ns = start_ns;
  e.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  e.arg = arg;
  e.arg_name = arg_name;
  e.num_extra_args = static_cast<std::uint8_t>(std::min(num_extra, kMaxExtraArgs));
  std::copy(extra, extra + e.num_extra_args, e.extra_args);
  buf->push(e);
}

void emit_counter(const char* name, double value) {
  detail::ThreadBuffer* buf = registered_buffer();
  if (buf == nullptr) return;
  TraceEvent e;
  e.kind = EventKind::kCounter;
  e.name = name;
  e.ts_ns = now_ns();
  e.value = value;
  buf->push(e);
}

void emit_instant(const char* name, const char* detail_str) {
  detail::ThreadBuffer* buf = registered_buffer();
  if (buf == nullptr) return;
  TraceEvent e;
  e.kind = EventKind::kInstant;
  e.name = name;
  e.detail = detail_str;
  e.ts_ns = now_ns();
  buf->push(e);
}

}  // namespace tt::obs
