// Seq-ack window — Algorithm 1 of the paper, as pure state machines.
//
// Each channel direction has a sender window (SEQ / ACKED edges) and a
// receiver window (WTA / RTA edges). Data messages occupy ring slots;
// received-but-incomplete messages (rendezvous payloads still being
// RDMA-Read) hold RTA back so the cumulative ACK never acknowledges data
// the application hasn't perceived — the application-awareness gap of
// §III. Keeping this free of I/O lets the property tests drive it through
// random loss/reorder/duplication schedules.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/ring_buffer.hpp"

namespace xrdma::core {

using Seq = std::uint64_t;

/// Sender half: tracks in-flight messages awaiting cumulative ACK.
/// T is the per-message bookkeeping payload (buffers to free, callbacks).
template <typename T>
class SendWindow {
 public:
  explicit SendWindow(std::uint32_t depth)
      : ring_(depth), depth_(static_cast<std::uint32_t>(ring_.capacity())) {}

  std::uint32_t depth() const { return depth_; }
  bool full() const { return ring_.full(); }
  bool empty() const { return ring_.empty(); }
  std::size_t inflight() const { return ring_.size(); }

  Seq next_seq() const { return tx_seq_; }
  Seq acked() const { return tx_acked_; }

  /// Algorithm 1 sender SEND_MESSAGE: claims the next SEQ.
  /// Returns nullopt when the window is full.
  std::optional<Seq> push(T entry) {
    if (ring_.full()) return std::nullopt;
    ring_.push(std::move(entry));
    return tx_seq_++;
  }

  /// Algorithm 1 sender RECV_MESSAGE: cumulative ack up to and including
  /// `ack` (ack = peer's RTA = count of fully-received messages). Calls
  /// `on_acked` for each newly retired entry, in seq order.
  void process_ack(Seq ack, const std::function<void(Seq, T&)>& on_acked) {
    if (ack > tx_seq_) ack = tx_seq_;  // never ack what wasn't sent
    while (tx_acked_ < ack) {
      on_acked(tx_acked_, ring_.front());
      ring_.pop();
      ++tx_acked_;
    }
  }

  /// Entry for a still-inflight seq (for retransmission bookkeeping).
  T* find(Seq seq) {
    if (seq < tx_acked_ || seq >= tx_seq_) return nullptr;
    return &ring_.at(static_cast<std::size_t>(seq - tx_acked_));
  }

  /// Visit every unacked entry in seq order — the retransmit-from-window
  /// walk of channel recovery. `fn` must not push or ack.
  void for_each_inflight(const std::function<void(Seq, T&)>& fn) {
    for (Seq s = tx_acked_; s < tx_seq_; ++s) fn(s, *find(s));
  }

  /// Channel teardown: frees the ring of a fully acked window. The edges
  /// and depth keep their values; push() fails from then on.
  void release() { ring_.release(); }

 private:
  RingBuffer<T> ring_;
  std::uint32_t depth_;
  Seq tx_seq_ = 0;    // next sequence number to assign
  Seq tx_acked_ = 0;  // everything below is retired
};

/// Receiver half: tracks arrival (WTA) vs completion (RTA) and in-order
/// delivery. R is the per-message receive state.
template <typename R>
class RecvWindow {
 public:
  explicit RecvWindow(std::uint32_t depth)
      : slots_(round_up(depth)),
        mask_(slots_.size() - 1),
        depth_(static_cast<std::uint32_t>(slots_.size())) {}

  std::uint32_t depth() const { return depth_; }
  Seq wta() const { return rx_wta_; }
  Seq rta() const { return rx_rta_; }
  /// The ACK value to piggyback on the next outgoing message.
  Seq ack_to_send() const { return rx_rta_; }
  Seq last_ack_sent() const { return rx_acked_; }
  void note_ack_sent() { rx_acked_ = rx_rta_; }
  /// Completed-but-unacknowledged messages (standalone-ACK trigger).
  Seq unacked() const { return rx_rta_ - rx_acked_; }

  /// Message with sequence `seq` arrived. Returns a pointer to its receive
  /// slot, or nullptr for duplicates/out-of-window arrivals (RC delivery is
  /// reliable and ordered, so in production this indicates a peer bug; the
  /// fault-injection tests exercise it deliberately).
  R* arrive(Seq seq) {
    if (seq != rx_wta_) return nullptr;            // RC guarantees order
    if (seq - rx_rta_ >= slots_.size()) return nullptr;  // window overrun
    ++rx_wta_;
    Slot& s = slot(seq);
    // Ring reuse: seq occupies the slot seq-depth vacated. Reset the state
    // so nothing from the previous occupant leaks through (a 0-byte message
    // must not deliver its predecessor's payload).
    s.state = R{};
    s.occupied = true;
    s.complete = false;
    return &s.state;
  }

  /// Algorithm 1 RDMA_READ_DONE: message `seq` is now fully received;
  /// advance RTA over every contiguous completed message, invoking
  /// `deliver` for each in order.
  void complete(Seq seq, const std::function<void(Seq, R&)>& deliver) {
    if (!held(seq)) return;
    slot(seq).complete = true;
    while (rx_rta_ < rx_wta_ && slot(rx_rta_).complete) {
      Slot& s = slot(rx_rta_);
      deliver(rx_rta_, s.state);
      s.occupied = false;
      s.complete = false;
      ++rx_rta_;
    }
  }

  R* find(Seq seq) {
    if (!held(seq)) return nullptr;
    Slot& s = slot(seq);
    return s.occupied ? &s.state : nullptr;
  }

  /// Visit every arrived-but-undelivered message (channel teardown).
  void for_each_pending(const std::function<void(Seq, R&)>& fn) {
    for (Seq s = rx_rta_; held(s); ++s) {
      if (slot(s).occupied) fn(s, slot(s).state);
    }
  }

  /// Channel teardown: frees the slots. The edges and depth keep their
  /// values; from then on nothing arrives, completes or is visited.
  void release() { std::vector<Slot>().swap(slots_); }

 private:
  struct Slot {
    bool occupied = false;
    bool complete = false;
    R state{};
  };
  static std::size_t round_up(std::uint32_t v) {
    std::size_t cap = 1;
    while (cap < v) cap <<= 1;
    return cap;
  }
  Slot& slot(Seq seq) { return slots_[static_cast<std::size_t>(seq) & mask_]; }
  /// Arrived and not yet delivered, in a window that still has its slots.
  bool held(Seq seq) const {
    return seq >= rx_rta_ && seq < rx_wta_ && !slots_.empty();
  }

  std::vector<Slot> slots_;
  std::size_t mask_;
  std::uint32_t depth_;
  Seq rx_wta_ = 0;    // next arrival expected ("wait to ack" edge)
  Seq rx_rta_ = 0;    // everything below is complete ("ready to ack")
  Seq rx_acked_ = 0;  // last RTA actually communicated to the peer
};

}  // namespace xrdma::core
