#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>

namespace xrdma::sim {

namespace {
constexpr std::uint32_t kArity = 4;
}  // namespace

Engine::~Engine() {
  // Retire every slot before any callback is destroyed: a capture whose
  // destructor cancels a pending event must find it already gone, not
  // reach into a half-destroyed heap.
  for (Slot& s : slots_) ++s.gen;
  heap_.clear();
  for (Slot& s : slots_) s.cb = nullptr;
}

std::uint32_t Engine::new_slot(Callback cb) {
  assert(cb);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].cb = std::move(cb);
  return slot;
}

Engine::EventId Engine::schedule_at(Nanos at, Callback cb) {
  if (at < now_) at = now_;  // never schedule into the past
  const std::uint32_t slot = new_slot(std::move(cb));
  heap_.push_back({at, next_seq_++, slot});
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
  return EventId{this, slot, slots_[slot].gen};
}

Engine::EventId Engine::schedule_quiet(Nanos period, QuietOwner& owner,
                                       Callback cb) {
  assert(period > 0);
  const std::uint32_t slot = new_slot(std::move(cb));
  const Entry next{now_ + period, next_seq_++, slot};
  if (trains_.empty() || before(next, quiet_min_)) quiet_min_ = next;
  slots_[slot].heap_pos = kQuiet | static_cast<std::uint32_t>(trains_.size());
  trains_.push_back({next, period, &owner});
  return EventId{this, slot, slots_[slot].gen};
}

void Engine::wake(const EventId& id) {
  const std::uint32_t pos = live(id) ? slots_[id.slot_].heap_pos : 0;
  if (pos & kQuiet) unquiet(pos & ~kQuiet);
}

void Engine::unquiet(std::uint32_t i) {
  const Entry e = trains_[i].next;
  trains_[i] = trains_.back();  // quiet_min_ stays a lower bound
  slots_[trains_[i].next.slot].heap_pos = kQuiet | i;
  trains_.pop_back();
  heap_.push_back(e);
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
}

bool Engine::cancel(EventId& id) {
  const bool armed = live(id);
  wake(id);  // a quiet train leaves through the heap
  const std::uint32_t slot = id.slot_;
  id = EventId{};
  if (!armed) return false;
  Callback cb = take(slots_[slot].heap_pos);
  return true;  // `cb` is destroyed here, with the heap already consistent
}

bool Engine::reschedule_at(const EventId& id, Nanos at) {
  if (!live(id)) return false;
  if (at < now_) at = now_;
  wake(id);
  const std::uint32_t pos = slots_[id.slot_].heap_pos;
  Entry& e = heap_[pos];
  // The fresh seq sorts after every existing entry, so the new key is
  // smaller than the old one exactly when the timestamp moves earlier.
  const bool earlier = at < e.at;
  e.at = at;
  e.seq = next_seq_++;
  if (earlier) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
  return true;
}

Engine::Callback Engine::take(std::uint32_t pos) {
  Slot& s = slots_[heap_[pos].slot];
  Callback cb = std::move(s.cb);
  s.cb = nullptr;
  // Bump the generation before the caller runs or drops the callback:
  // EventId::armed() must read false inside the event's own callback, so a
  // handler that conditionally re-arms its timer (keepalive, memory retry)
  // actually re-arms it.
  ++s.gen;
  free_slots_.push_back(heap_[pos].slot);
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    place(pos, last);
    if (pos > 0 && before(last, heap_[(pos - 1) / kArity])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  }
  return cb;
}

void Engine::sift_up(std::uint32_t pos) {
  const Entry e = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Engine::sift_down(std::uint32_t pos) {
  const Entry e = heap_[pos];
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first = kArity * pos + 1;
    if (first >= n) break;
    const std::uint32_t end = std::min(first + kArity, n);
    std::uint32_t best = first;
    for (std::uint32_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, e);
}

void Engine::catch_up(Nanos at, std::uint64_t seq) {
  // Ticks of `q` ordered before (at, seq). Later ticks draw seqs above every
  // live one, so at `at` itself they count only at a run's end (kAfterAll).
  const auto due = [&](const Train& q) -> std::uint64_t {
    if (q.next.at >= at) return q.next.at == at && q.next.seq < seq;
    const Nanos span = at - q.next.at;
    return static_cast<std::uint64_t>((span - 1) / q.period) + 1 +
           (seq == kAfterAll && span % q.period == 0);
  };
  Nanos wake_at = kNever;  // the first tick an owner does not vouch for
  for (Train& q : trains_) {
    q.n = due(q);
    q.budget = q.n > 0 ? q.owner->quiet_budget(q.period) : kUnbounded;
    if (q.budget < q.n) {
      wake_at = std::min(wake_at,
                         q.next.at + static_cast<Nanos>(q.budget) * q.period);
    }
  }
  if (wake_at != kNever) {
    // Stop before it: it fires for real, and the ticks at its timestamp
    // order against its seq at the next catch-up. No train then has more
    // ticks due than vouched for.
    at = wake_at;
    seq = 0;
    for (Train& q : trains_) q.n = due(q);
  } else if (at == kNever) {
    return;  // nothing but trains that never end
  }
  std::uint64_t drawn = 0;
  for (Train& q : trains_) {
    if (q.n == 0) continue;
    ++drawn;
    const Nanos last = q.next.at + static_cast<Nanos>(q.n - 1) * q.period;
    q.owner->account_quiet(q.n, last, q.period);
    processed_ += q.n;
    q.next.at = last + q.period;
    if (q.budget != kUnbounded) q.budget -= q.n;
  }
  // Advanced trains draw fresh seqs in the order their last ticks ran; that
  // matters only where next ticks coincide. A train's first tick holds a
  // seq reserved before this catch-up, later ones seqs drawn during it, so
  // at equal last ticks fewer ticks, then the reserved seq, go first.
  const auto key = [](const Train& q) {
    return std::make_tuple(q.next.at - q.period, q.n, q.next.seq);
  };
  if (drawn > 1) {
    std::sort(trains_.begin(), trains_.end(),
              [&](const Train& a, const Train& b) { return key(a) < key(b); });
  }
  quiet_min_ = {kNever, kAfterAll, 0};
  std::uint64_t seq_end = next_seq_ += drawn;
  for (auto i = static_cast<std::uint32_t>(trains_.size()); i-- > 0;) {
    Train& q = trains_[i];
    slots_[q.next.slot].heap_pos = kQuiet | i;
    if (q.n > 0) q.next.seq = --seq_end;  // visited in reverse draw order
    if (q.budget == 0) {
      unquiet(i);  // back-fills slot i from a train already visited
    } else if (before(q.next, quiet_min_)) {
      quiet_min_ = q.next;
    }
  }
}

bool Engine::advance(Nanos limit) {
  for (;;) {
    const bool due = !heap_.empty() && heap_.front().at <= limit;
    const Entry horizon = due ? heap_.front() : Entry{limit, kAfterAll, 0};
    if (!before(quiet_min_, horizon)) return due;
    const std::size_t pending = heap_.size();
    catch_up(horizon.at, horizon.seq);
    if (heap_.size() == pending) return due;  // no train woke
  }
}

void Engine::fire_top() {
  now_ = heap_.front().at;
  ++processed_;
  ++fired_;
  Callback cb = take(0);
  cb();
  if (post_hook_) post_hook_();
}

bool Engine::step() {
  if (!advance(kNever)) return false;
  fire_top();
  return true;
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Engine::run_until(Nanos t) {
  stopped_ = false;
  while (!stopped_ && advance(t)) fire_top();
  if (!stopped_ && now_ < t) now_ = t;
}

}  // namespace xrdma::sim
