// Deterministic discrete-event engine.
//
// All substrates (fabric, RNIC model, TCP model) and all middleware timing
// run on this single-threaded engine. Events at equal timestamps fire in
// schedule order (a monotone sequence number breaks ties), so a given seed
// always produces bit-identical results — the property every experiment in
// EXPERIMENTS.md relies on.
//
// Storage: each pending event owns a slot {callback, generation, heap_pos}
// in a reusable slot array, and an indexed 4-ary min-heap orders plain
// {at, seq, slot} entries. Because every slot knows its heap position,
// cancel() removes the entry in place and reschedule_at() moves it in place:
// the heap holds exactly the live events, with no tombstones.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace xrdma::sim {

class Engine {
 public:
  using Callback = std::function<void()>;

  /// Handle for cancellation and re-arm. Default-constructed handles are
  /// inert. A handle names a slot plus the slot's generation at schedule
  /// time; the generation is bumped when the event fires or is cancelled,
  /// so a handle whose slot has since been reused reads as not armed.
  ///
  /// A handle reads its engine's slot array, so it must not be used —
  /// armed(), cancel(), reschedule_at() — after that engine is destroyed.
  class EventId {
   public:
    EventId() = default;
    bool armed() const { return engine_ != nullptr && engine_->live(*this); }

   private:
    friend class Engine;
    EventId(const Engine* e, std::uint32_t slot, std::uint32_t gen)
        : engine_(e), slot_(slot), gen_(gen) {}
    const Engine* engine_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
  };

  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Nanos now() const { return now_; }

  EventId schedule_at(Nanos at, Callback cb);
  EventId schedule_after(Nanos delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Returns true if the event existed and had not fired.
  bool cancel(EventId& id);

  /// Move an armed event to fire at `at` (clamped to now), keeping its
  /// callback and handle. It takes a fresh sequence number, so it orders
  /// exactly as cancel() plus schedule_at() would: after every event
  /// already scheduled for the same timestamp. Returns false (and does
  /// nothing) if the event already fired or was cancelled.
  bool reschedule_at(const EventId& id, Nanos at);

  /// Run until the event queue drains (or stop() is called).
  void run();
  /// Run all events with timestamp <= t, then set now() = t.
  void run_until(Nanos t);
  void run_for(Nanos d) { run_until(now_ + d); }
  /// Fire the single next event; returns false if queue empty.
  bool step();
  /// Stop the current run()/run_until() after the in-flight callback.
  void stop() { stopped_ = true; }

  std::size_t pending() const { return heap_.size(); }
  std::uint64_t events_processed() const { return processed_; }

  /// Conformance-harness hook (X-Check): invoked after every fired event,
  /// i.e. at the quiescent points between callbacks where cross-component
  /// invariants must hold. The hook may inspect any simulation state but
  /// must not schedule or cancel events. Pass nullptr to disable.
  void set_post_event_hook(Callback hook) { post_hook_ = std::move(hook); }

 private:
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    std::uint32_t heap_pos = 0;  // index in heap_ while the event is live
  };
  struct Entry {
    Nanos at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool before(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  bool live(const EventId& id) const {
    return id.engine_ == this && slots_[id.slot_].gen == id.gen_;
  }
  /// Unlink the event at heap position `pos`, retire its slot and hand
  /// back its callback (destroyed by the caller, after the engine is
  /// consistent again).
  Callback take(std::uint32_t pos);
  void place(std::uint32_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.slot].heap_pos = pos;
  }
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  void fire_top();

  Nanos now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
  Callback post_hook_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;  // 4-ary min-heap on (at, seq)
};

}  // namespace xrdma::sim
