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
//
// Quiet trains: schedule_quiet() keeps a periodic no-op tick (an idle busy
// poll) out of the heap. Before each real event the engine accounts the
// ticks ordered before it that the owner vouches for; any other tick, or a
// wake(), becomes a heap event at the (at, seq) a per-tick loop would have
// given it, so order, counts and digests match that loop bit for bit.
// events_processed() counts logical events (fired plus accounted);
// events_fired() and the post-event hook see only fired ones.
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

  /// Owner of a quiet train; its hooks must not schedule, cancel or wake.
  class QuietOwner {
   public:
    /// Upcoming ticks that are no-ops under the current state (kUnbounded:
    /// all); 0 makes the next tick an ordinary event.
    virtual std::uint64_t quiet_budget(Nanos period) const = 0;
    /// Apply `n` no-op ticks, the last at `last`, as if each had fired.
    virtual void account_quiet(std::uint64_t n, Nanos last, Nanos period) = 0;
   protected:
    ~QuietOwner() = default;
  };
  static constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

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

  /// `cb` at now + period as a quiet train, a tick every `period` while
  /// `owner` vouches for it; once woken it fires `cb` once. The handle
  /// names the pending tick (cancel() unregisters the train).
  EventId schedule_quiet(Nanos period, QuietOwner& owner, Callback cb);
  /// Make a quiet train's pending tick an ordinary event; else a no-op.
  void wake(const EventId& id);

  /// Run until the event queue drains (or stop() is called); trains vouched
  /// for without end (busy pollers) do not keep it going.
  void run();
  /// Run all events with timestamp <= t, then set now() = t.
  void run_until(Nanos t);
  void run_for(Nanos d) { run_until(now_ + d); }
  /// Fire the single next event (after the quiet ticks before it); returns
  /// false if none is left.
  bool step();
  /// Stop the current run()/run_until() after the in-flight callback.
  void stop() { stopped_ = true; }

  std::size_t pending() const { return heap_.size(); }  // not quiet trains
  std::uint64_t events_processed() const { return processed_; }
  std::uint64_t events_fired() const { return fired_; }

  /// Conformance-harness hook (X-Check): invoked after every fired event,
  /// i.e. at the quiescent points between callbacks where cross-component
  /// invariants must hold. The hook may inspect any simulation state but
  /// must not schedule or cancel events. Pass nullptr to disable.
  void set_post_event_hook(Callback hook) { post_hook_ = std::move(hook); }

 private:
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    std::uint32_t heap_pos = 0;  // index in heap_ (or kQuiet | trains_ index)
  };
  struct Entry {
    Nanos at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool before(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  struct Train {
    Entry next;  // the pending tick
    Nanos period;
    QuietOwner* owner;
    std::uint64_t budget = 0, n = 0;  // catch-up: ticks vouched, accounted
  };
  static constexpr std::uint32_t kQuiet = 1u << 31;  // heap_pos: trains_ index
  static constexpr Nanos kNever = INT64_MAX;
  static constexpr std::uint64_t kAfterAll = kUnbounded;  // horizon seq

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

  std::uint32_t new_slot(Callback cb);
  void unquiet(std::uint32_t i);  // train i's pending tick into the heap
  /// Account quiet ticks before (at, seq), stopping short of the first one
  /// an owner does not vouch for; trains out of budget wake.
  void catch_up(Nanos at, std::uint64_t seq);
  /// Catch up to the next event due by `limit`; false if there is none.
  bool advance(Nanos limit);

  Nanos now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t fired_ = 0;
  bool stopped_ = false;
  Callback post_hook_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;  // 4-ary min-heap on (at, seq)
  std::vector<Train> trains_;
  Entry quiet_min_{};  // at or before every train's pending tick
};

}  // namespace xrdma::sim
