#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/error.hpp"

namespace a2a::obs {

namespace trace_detail {
std::atomic<bool> g_tracing_enabled{false};
}  // namespace trace_detail

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One ring per thread. Writers (the owning thread) and the collector (the
// session thread) synchronize on the per-buffer mutex; it is uncontended on
// the hot path because collection happens once, after recording stops.
struct ThreadRing {
  std::mutex mutex;
  std::uint32_t tid = 0;
  std::vector<TraceEvent> slots;  ///< grows to kTraceRingCapacity, then wraps.
  std::size_t next = 0;           ///< wrap position once full.
  std::uint64_t dropped = 0;

  void record(TraceEvent ev) {
    std::lock_guard lock(mutex);
    ev.tid = tid;
    if (slots.size() < kTraceRingCapacity) {
      slots.push_back(std::move(ev));
    } else {
      slots[next] = std::move(ev);
      next = (next + 1) % kTraceRingCapacity;
      ++dropped;
    }
  }
};

struct TraceRegistry {
  std::mutex mutex;
  // Rings are leaked (like the metrics registry): a pool worker may record
  // during static destruction, and rings of exited threads must survive
  // until the session collects them.
  std::vector<ThreadRing*> rings;
  std::uint32_t next_tid = 0;
  bool session_active = false;
  std::atomic<std::uint64_t> session_start_ns{0};

  static TraceRegistry& global() {
    static TraceRegistry* instance = new TraceRegistry();
    return *instance;
  }
};

[[maybe_unused]] ThreadRing& this_thread_ring() {
  thread_local ThreadRing* ring = [] {
    auto* r = new ThreadRing();
    TraceRegistry& reg = TraceRegistry::global();
    std::lock_guard lock(reg.mutex);
    r->tid = reg.next_tid++;
    reg.rings.push_back(r);
    return r;
  }();
  return *ring;
}

[[maybe_unused]] thread_local std::uint32_t tls_depth = 0;

[[maybe_unused]] std::uint64_t session_relative_now_ns() {
  const std::uint64_t start =
      TraceRegistry::global().session_start_ns.load(std::memory_order_relaxed);
  const std::uint64_t now = steady_now_ns();
  return now > start ? now - start : 0;
}

void append_json_escaped(std::ostringstream& os, const std::string& s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
}

}  // namespace

// ---- TraceSpan --------------------------------------------------------------

TraceSpan::TraceSpan(const char* name) : name_(name) {
  if (tracing_enabled()) {
    active_ = true;
    start_ns_ = session_relative_now_ns();
    ++tls_depth;
  }
}

TraceSpan::TraceSpan(const char* name, std::string args) : TraceSpan(name) {
  if (active_) args_ = std::move(args);
}

void TraceSpan::annotate(const std::string& text) {
  if (!active_) return;
  if (!args_.empty()) args_ += "; ";
  args_ += text;
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  --tls_depth;
  // Spans still open when the session stops are discarded: their duration
  // would be a lie (the window closed mid-span).
  if (!tracing_enabled()) return;
  TraceEvent ev;
  ev.name = name_;
  ev.args = std::move(args_);
  ev.start_ns = start_ns_;
  const std::uint64_t end_ns = session_relative_now_ns();
  ev.dur_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  ev.depth = tls_depth;
  this_thread_ring().record(std::move(ev));
}

void trace_instant(const char* name, std::string args) {
  if (!tracing_enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.args = std::move(args);
  ev.start_ns = session_relative_now_ns();
  ev.depth = tls_depth;
  ev.instant = true;
  this_thread_ring().record(std::move(ev));
}

// ---- TraceSession -----------------------------------------------------------

TraceSession::TraceSession() {
  TraceRegistry& reg = TraceRegistry::global();
  std::lock_guard lock(reg.mutex);
  A2A_ASSERT(!reg.session_active,
             "a TraceSession is already active; only one tracing window may "
             "be open at a time");
  for (ThreadRing* ring : reg.rings) {
    std::lock_guard ring_lock(ring->mutex);
    ring->slots.clear();
    ring->next = 0;
    ring->dropped = 0;
  }
  reg.session_active = true;
  reg.session_start_ns.store(steady_now_ns(), std::memory_order_relaxed);
  trace_detail::g_tracing_enabled.store(true, std::memory_order_release);
}

TraceSession::~TraceSession() { stop(); }

void TraceSession::stop() {
  if (stopped_) return;
  stopped_ = true;
  trace_detail::g_tracing_enabled.store(false, std::memory_order_release);
  TraceRegistry& reg = TraceRegistry::global();
  std::lock_guard lock(reg.mutex);
  reg.session_active = false;
}

std::vector<TraceEvent> TraceSession::events() {
  stop();
  if (!collected_) {
    collected_ = true;
    TraceRegistry& reg = TraceRegistry::global();
    std::lock_guard lock(reg.mutex);
    for (ThreadRing* ring : reg.rings) {
      std::lock_guard ring_lock(ring->mutex);
      dropped_ += ring->dropped;
      // Oldest-first: once the ring wrapped, `next` points at the oldest slot.
      const std::size_t n = ring->slots.size();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t idx =
            n < kTraceRingCapacity ? i : (ring->next + i) % n;
        events_.push_back(ring->slots[idx]);
      }
    }
    std::sort(events_.begin(), events_.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                if (a.tid != b.tid) return a.tid < b.tid;
                if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                return a.dur_ns > b.dur_ns;  // parents before children.
              });
  }
  return events_;
}

std::string TraceSession::chrome_json() {
  const std::vector<TraceEvent> evs = events();
  std::ostringstream os;
  // Chrome wants microseconds; emit ns-resolution as a padded decimal so
  // "5 ns" renders 0.005 us, not 0.5.
  const auto emit_us = [&os](std::uint64_t ns) {
    char frac[8];
    std::snprintf(frac, sizeof(frac), "%03u",
                  static_cast<unsigned>(ns % 1000));
    os << (ns / 1000) << "." << frac;
  };
  os << "{\n\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& ev : evs) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"";
    append_json_escaped(os, ev.name);
    os << "\", \"cat\": \"a2a\", \"ph\": \"" << (ev.instant ? "i" : "X")
       << "\", \"ts\": ";
    emit_us(ev.start_ns);
    if (!ev.instant) {
      os << ", \"dur\": ";
      emit_us(ev.dur_ns);
    } else {
      os << ", \"s\": \"t\"";
    }
    os << ", \"pid\": 1, \"tid\": " << ev.tid << ", \"args\": {\"depth\": "
       << ev.depth;
    if (!ev.args.empty()) {
      os << ", \"note\": \"";
      append_json_escaped(os, ev.args);
      os << "\"";
    }
    os << "}}";
  }
  os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"dropped\": "
     << dropped_ << "}\n}\n";
  return os.str();
}

}  // namespace a2a::obs
