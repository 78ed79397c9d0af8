// Host-clock tracing for the benchmark.
//
// Spans wrap the public calls the benchmark makes into the stack
// (Engine::run_until, Channel::call/reply/close, Context::connect) and the
// benchmark's own handlers, so each layer is measured from outside without
// touching src/. Spans stay in memory and are written out when the run
// ends. Engine events are far too many for one span each; the engine's
// post-event hook feeds a histogram instead (see Fixture::trace_events).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace xbench {

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : std::uint8_t {
  run_until,   // sim: Engine::run_until
  call,        // core: Channel::call
  reply,       // core: Channel::reply
  close,       // core: Channel::close
  connect,     // verbs: Context::connect
  connect_cb,  // verbs: the benchmark's connect callback
  app,         // app: the benchmark's own handlers (generate, check)
  count,
};

inline const char* span_name(SpanKind k) {
  static const char* const kNames[] = {"sim.run_until", "core.call",
                                       "core.reply",    "core.close",
                                       "verbs.connect", "verbs.connect_cb",
                                       "app.handler"};
  return kNames[static_cast<int>(k)];
}

struct Span {
  SpanKind kind;
  std::int32_t parent;  // index into the span list, -1 for a root
  std::uint64_t op;     // the benchmark op the span belongs to (0: none)
  std::int64_t start;
  std::int64_t end;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void reset(bool enabled) {
    enabled_ = enabled;
    spans_.clear();
    stack_.clear();
  }

  std::int32_t open(SpanKind kind, std::uint64_t op) {
    if (!enabled_) return -1;
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({kind, stack_.empty() ? -1 : stack_.back(), op,
                      host_ns(), 0});
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end = host_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part its direct children cover.
  std::vector<std::int64_t> self_times() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_) {
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    return self;
  }

  /// One line per span: name, start and end (ns, relative to the first
  /// span), parent index and op id.
  bool write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "name\tstart_ns\tend_ns\tparent\top\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s\t%lld\t%lld\t%d\t%llu\n", span_name(s.kind),
                   static_cast<long long>(s.start - t0),
                   static_cast<long long>(s.end - t0), s.parent,
                   static_cast<unsigned long long>(s.op));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span: open on construction, close on destruction (no-op when the
/// tracer is off).
class Scope {
 public:
  Scope(Tracer& t, SpanKind kind, std::uint64_t op = 0)
      : tracer_(t), idx_(t.open(kind, op)) {}
  ~Scope() { tracer_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t idx_;
};

}  // namespace xbench
