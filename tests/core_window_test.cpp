// Seq-ack window (Algorithm 1) unit and property tests — pure logic,
// no simulator.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/window.hpp"

namespace xrdma::core {
namespace {

struct Tx {
  int tag = 0;
};
struct Rx {
  int tag = 0;
};

TEST(SendWindow, AssignsMonotonicSequenceNumbers) {
  SendWindow<Tx> w(8);
  for (int i = 0; i < 8; ++i) {
    auto seq = w.push({i});
    ASSERT_TRUE(seq.has_value());
    EXPECT_EQ(*seq, static_cast<Seq>(i));
  }
}

TEST(SendWindow, RefusesPushWhenFull) {
  SendWindow<Tx> w(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(w.push({i}).has_value());
  EXPECT_TRUE(w.full());
  EXPECT_FALSE(w.push({99}).has_value());
}

TEST(SendWindow, CumulativeAckRetiresInOrder) {
  SendWindow<Tx> w(8);
  for (int i = 0; i < 6; ++i) w.push({i});
  std::vector<int> retired;
  w.process_ack(4, [&](Seq s, Tx& t) {
    EXPECT_EQ(s, static_cast<Seq>(t.tag));
    retired.push_back(t.tag);
  });
  EXPECT_EQ(retired, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(w.acked(), 4u);
  EXPECT_EQ(w.inflight(), 2u);
}

TEST(SendWindow, DuplicateAckIsIdempotent) {
  SendWindow<Tx> w(8);
  for (int i = 0; i < 4; ++i) w.push({i});
  int count = 0;
  w.process_ack(3, [&](Seq, Tx&) { ++count; });
  w.process_ack(3, [&](Seq, Tx&) { ++count; });
  w.process_ack(2, [&](Seq, Tx&) { ++count; });  // stale ack
  EXPECT_EQ(count, 3);
}

TEST(SendWindow, AckBeyondSentIsClamped) {
  SendWindow<Tx> w(8);
  w.push({0});
  int count = 0;
  w.process_ack(1000, [&](Seq, Tx&) { ++count; });
  EXPECT_EQ(count, 1);
  EXPECT_EQ(w.acked(), 1u);
}

TEST(SendWindow, ReopensAfterAck) {
  SendWindow<Tx> w(2);
  w.push({0});
  w.push({1});
  EXPECT_TRUE(w.full());
  w.process_ack(1, [](Seq, Tx&) {});
  EXPECT_FALSE(w.full());
  auto seq = w.push({2});
  ASSERT_TRUE(seq.has_value());
  EXPECT_EQ(*seq, 2u);
}

TEST(RecvWindow, InOrderArrivalAdvancesWta) {
  RecvWindow<Rx> w(8);
  EXPECT_NE(w.arrive(0), nullptr);
  EXPECT_NE(w.arrive(1), nullptr);
  EXPECT_EQ(w.wta(), 2u);
  EXPECT_EQ(w.rta(), 0u);
}

TEST(RecvWindow, RejectsOutOfOrderAndDuplicateArrivals) {
  RecvWindow<Rx> w(8);
  EXPECT_EQ(w.arrive(1), nullptr);  // gap
  ASSERT_NE(w.arrive(0), nullptr);
  EXPECT_EQ(w.arrive(0), nullptr);  // duplicate
}

TEST(RecvWindow, CompleteInOrderDeliversImmediately) {
  RecvWindow<Rx> w(8);
  w.arrive(0)->tag = 10;
  std::vector<Seq> delivered;
  w.complete(0, [&](Seq s, Rx& r) {
    EXPECT_EQ(r.tag, 10);
    delivered.push_back(s);
  });
  EXPECT_EQ(delivered, (std::vector<Seq>{0}));
  EXPECT_EQ(w.rta(), 1u);
}

TEST(RecvWindow, OutOfOrderCompletionHoldsRta) {
  // Message 0 is a slow rendezvous read; 1 and 2 finish first. Delivery
  // (and hence the cumulative ACK) must wait for 0 — the application-
  // awareness property of the protocol.
  RecvWindow<Rx> w(8);
  w.arrive(0);
  w.arrive(1);
  w.arrive(2);
  std::vector<Seq> delivered;
  auto deliver = [&](Seq s, Rx&) { delivered.push_back(s); };
  w.complete(1, deliver);
  w.complete(2, deliver);
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(w.rta(), 0u);
  w.complete(0, deliver);
  EXPECT_EQ(delivered, (std::vector<Seq>{0, 1, 2}));
  EXPECT_EQ(w.rta(), 3u);
}

TEST(RecvWindow, UnackedCountsCompletedSinceLastAck) {
  RecvWindow<Rx> w(8);
  auto deliver = [](Seq, Rx&) {};
  for (Seq s = 0; s < 5; ++s) {
    w.arrive(s);
    w.complete(s, deliver);
  }
  EXPECT_EQ(w.unacked(), 5u);
  EXPECT_EQ(w.ack_to_send(), 5u);
  w.note_ack_sent();
  EXPECT_EQ(w.unacked(), 0u);
}

// A closed channel releases its window storage but keeps the edges and
// depths the X-Check window oracle reads.
TEST(SendWindow, ReleaseKeepsEdgesAndDepthAndRefusesPush) {
  SendWindow<Tx> w(4);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(w.push(Tx{i}).has_value());
  w.process_ack(3, [](Seq, Tx&) {});
  w.release();
  EXPECT_EQ(w.depth(), 4u);
  EXPECT_EQ(w.next_seq(), 3u);
  EXPECT_EQ(w.acked(), 3u);
  EXPECT_EQ(w.inflight(), 0u);
  EXPECT_TRUE(w.full());
  EXPECT_FALSE(w.push(Tx{9}).has_value());
  EXPECT_EQ(w.next_seq(), 3u);
  EXPECT_EQ(w.find(2), nullptr);
  int visited = 0;
  w.for_each_inflight([&](Seq, Tx&) { ++visited; });
  w.process_ack(5, [&](Seq, Tx&) { ++visited; });
  EXPECT_EQ(visited, 0);
}

TEST(RecvWindow, ReleaseKeepsEdgesAndVisitsNothing) {
  RecvWindow<Rx> w(8);
  auto deliver = [](Seq, Rx&) {};
  for (Seq s = 0; s < 5; ++s) ASSERT_NE(w.arrive(s), nullptr);
  w.complete(0, deliver);
  w.complete(1, deliver);
  // 2, 3 and 4 arrived and are still pending when the channel closes.
  w.release();
  EXPECT_EQ(w.depth(), 8u);
  EXPECT_EQ(w.wta(), 5u);
  EXPECT_EQ(w.rta(), 2u);
  int visited = 0;
  w.for_each_pending([&](Seq, Rx&) { ++visited; });
  EXPECT_EQ(visited, 0);
  EXPECT_EQ(w.find(3), nullptr);
  w.complete(2, [&](Seq, Rx&) { ++visited; });
  EXPECT_EQ(visited, 0);
  EXPECT_EQ(w.arrive(5), nullptr);
  EXPECT_EQ(w.wta(), 5u);
  EXPECT_EQ(w.rta(), 2u);
}

// ---------------------------------------------------------------------------
// Property test: a full sender/receiver round trip under randomized
// completion order and ack timing preserves exactly-once in-order delivery.

struct WindowPropertyCase {
  std::uint64_t seed;
  std::uint32_t depth;
};

class WindowProperty : public ::testing::TestWithParam<WindowPropertyCase> {};

TEST_P(WindowProperty, ExactlyOnceInOrderUnderRandomSchedules) {
  const auto param = GetParam();
  Rng rng(param.seed);
  const int total = 500;

  SendWindow<Tx> sender(param.depth);
  RecvWindow<Rx> receiver(param.depth);

  int next_to_send = 0;
  std::vector<Seq> delivered;
  std::vector<Seq> retired;
  // Messages that arrived but whose "rendezvous read" hasn't finished.
  std::vector<Seq> outstanding_reads;
  Seq last_acked_by_receiver = 0;

  auto deliver = [&](Seq s, Rx&) { delivered.push_back(s); };

  int guard = 0;
  while (static_cast<int>(delivered.size()) < total ||
         sender.inflight() > 0) {
    ASSERT_LT(++guard, 200000) << "schedule wedged";
    const int action = static_cast<int>(rng.next_below(4));
    switch (action) {
      case 0: {  // sender pushes if it can
        if (next_to_send < total) {
          auto seq = sender.push({next_to_send});
          if (seq) {
            ++next_to_send;
            // The message "arrives" (RC: reliable, in order).
            Rx* slot = receiver.arrive(*seq);
            ASSERT_NE(slot, nullptr);
            if (rng.chance(0.5)) {
              receiver.complete(*seq, deliver);  // small message
            } else {
              outstanding_reads.push_back(*seq);  // large: read in flight
            }
          }
        }
        break;
      }
      case 1: {  // a random outstanding read finishes
        if (!outstanding_reads.empty()) {
          const std::size_t i = static_cast<std::size_t>(
              rng.next_below(outstanding_reads.size()));
          const Seq s = outstanding_reads[i];
          outstanding_reads.erase(outstanding_reads.begin() +
                                  static_cast<std::ptrdiff_t>(i));
          receiver.complete(s, deliver);
        }
        break;
      }
      case 2: {  // receiver sends an ack (possibly duplicate)
        last_acked_by_receiver = receiver.ack_to_send();
        receiver.note_ack_sent();
        break;
      }
      case 3: {  // ack reaches the sender
        sender.process_ack(last_acked_by_receiver,
                           [&](Seq s, Tx&) { retired.push_back(s); });
        break;
      }
    }
    // Make sure acks eventually flow when everything is sent.
    if (next_to_send == total && outstanding_reads.empty()) {
      last_acked_by_receiver = receiver.ack_to_send();
      receiver.note_ack_sent();
      sender.process_ack(last_acked_by_receiver,
                         [&](Seq s, Tx&) { retired.push_back(s); });
    }
  }

  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(total));
  ASSERT_EQ(retired.size(), static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)], static_cast<Seq>(i));
    EXPECT_EQ(retired[static_cast<std::size_t>(i)], static_cast<Seq>(i));
  }
  // Invariant: the sender never had more than depth in flight (implied by
  // push refusing when full), and the receiver acked everything.
  EXPECT_EQ(receiver.rta(), static_cast<Seq>(total));
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, WindowProperty,
    ::testing::Values(WindowPropertyCase{1, 1}, WindowPropertyCase{2, 2},
                      WindowPropertyCase{3, 4}, WindowPropertyCase{4, 8},
                      WindowPropertyCase{5, 16}, WindowPropertyCase{6, 64},
                      WindowPropertyCase{7, 3}, WindowPropertyCase{8, 5},
                      WindowPropertyCase{9, 128}, WindowPropertyCase{10, 7}));

}  // namespace
}  // namespace xrdma::core
