#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>

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

Engine::EventId Engine::schedule_at(Nanos at, Callback cb) {
  assert(cb);
  if (at < now_) at = now_;  // never schedule into the past
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].cb = std::move(cb);
  heap_.push_back({at, next_seq_++, slot});
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
  return EventId{this, slot, slots_[slot].gen};
}

bool Engine::cancel(EventId& id) {
  const bool armed = live(id);
  const std::uint32_t slot = id.slot_;
  id = EventId{};
  if (!armed) return false;
  Callback cb = take(slots_[slot].heap_pos);
  return true;  // `cb` is destroyed here, with the heap already consistent
}

bool Engine::reschedule_at(const EventId& id, Nanos at) {
  if (!live(id)) return false;
  if (at < now_) at = now_;
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

void Engine::fire_top() {
  now_ = heap_.front().at;
  ++processed_;
  Callback cb = take(0);
  cb();
  if (post_hook_) post_hook_();
}

bool Engine::step() {
  if (heap_.empty()) return false;
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
  while (!stopped_ && !heap_.empty() && heap_.front().at <= t) fire_top();
  if (!stopped_ && now_ < t) now_ = t;
}

}  // namespace xrdma::sim
