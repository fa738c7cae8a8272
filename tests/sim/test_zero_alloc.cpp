// The tentpole guarantee of the zero-allocation message path: once the
// payload pools and queue capacities are warm, a steady-state
// send → step → deliver cycle performs zero heap allocations.
//
// This test replaces the global operator new/delete to count allocations,
// which affects the whole binary — hence its own test executable (see
// tests/CMakeLists.txt). Counting is gated by a flag so gtest's own
// bookkeeping outside the measured window doesn't register.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "sim/dispatch.hpp"
#include "sim/network.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sks::sim {
namespace {

struct NullPayload final : Action<NullPayload> {
  static constexpr const char* kActionName = "null";
  std::uint64_t size_bits() const override { return 8; }

  void encode(wire::WireWriter&) const override {}
  static Owned<NullPayload> decode(wire::WireReader&) {
    return make_payload<NullPayload>();
  }
};

/// Carries a full 64-bit field, so its frame fills a whole codec word.
struct WidePayload final : Action<WidePayload> {
  static constexpr const char* kActionName = "wide";
  std::uint64_t value = 0;
  std::uint64_t size_bits() const override { return 64; }

  void encode(wire::WireWriter& w) const override { w.bits(value, 64); }
  static Owned<WidePayload> decode(wire::WireReader& r) {
    auto p = make_payload<WidePayload>();
    p->value = r.bits(64);
    return p;
  }
};

class SinkNode : public DispatchingNode {
 public:
  SinkNode() {
    on<NullPayload>([](NodeId, Owned<NullPayload>) {});
    on<WidePayload>([](NodeId, Owned<WidePayload>) {});
  }
  void fire(NodeId to) { send(to, make_payload<NullPayload>()); }
  void fire_wide(NodeId to, std::uint64_t value) {
    auto p = make_payload<WidePayload>();
    p->value = value;
    send(to, std::move(p));
  }
  /// Same payload over the fire-and-forget background lane (the failure
  /// detector's heartbeat path).
  void fire_bg(NodeId to) {
    net().send_background(id(), to, make_payload<NullPayload>());
  }
};

TEST(ZeroAlloc, SteadyStateSendDeliverAllocatesNothing) {
  Network net;
  // The tracer ships disabled; the zero-alloc guarantee below holds with
  // it compiled into the message path (one predictable branch per hook).
  ASSERT_FALSE(net.tracer().enabled());
  net.add_node(std::make_unique<SinkNode>());
  const NodeId b = net.add_node(std::make_unique<SinkNode>());

  auto cycle = [&] {
    for (int i = 0; i < 64; ++i) net.node_as<SinkNode>(0).fire(b);
    net.run_until_idle();
  };

  // Warm up: fills the payload pool freelist, the pending-slot vectors'
  // capacity and the step() scratch vector.
  for (int w = 0; w < 4; ++w) cycle();

  g_allocs.store(0);
  g_counting.store(true);
  for (int r = 0; r < 16; ++r) cycle();
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u)
      << "steady-state message path performed heap allocations";
}

// The async ring path (randomized delays) must be allocation-free too once
// every ring slot has seen its peak occupancy.
TEST(ZeroAlloc, SteadyStateAsyncAllocatesNothing) {
  NetworkConfig cfg;
  cfg.mode = DeliveryMode::kAsynchronous;
  cfg.max_delay = 8;
  Network net(cfg);
  const NodeId b = net.add_node(std::make_unique<SinkNode>());
  net.add_node(std::make_unique<SinkNode>());

  auto cycle = [&] {
    for (int i = 0; i < 64; ++i) net.node_as<SinkNode>(1).fire(b);
    net.run_until_idle();
  };

  // The ring slots and the step() scratch vector trade buffers on every
  // drain, so capacities circulate; warm up long enough that every buffer
  // in rotation has seen the peak per-slot occupancy.
  for (int w = 0; w < 32; ++w) cycle();

  g_allocs.store(0);
  g_counting.store(true);
  for (int r = 0; r < 16; ++r) cycle();
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u)
      << "async steady-state message path performed heap allocations";
}

// The fault-injection substrate is compiled into the message path
// unconditionally; with an (explicit) all-zero FaultPlan and the reliable
// transport disabled it must cost no allocations either — the hot path is
// gated behind cached booleans, never behind per-message heap work.
TEST(ZeroAlloc, InactiveFaultPlanAndDisabledReliableAllocateNothing) {
  NetworkConfig cfg;
  cfg.faults = FaultPlan{};          // explicit, still all-zero
  cfg.reliable = ReliableConfig{};   // explicit, still disabled
  ASSERT_FALSE(cfg.faults.active());
  ASSERT_FALSE(cfg.reliable.enabled);
  Network net(cfg);
  net.add_node(std::make_unique<SinkNode>());
  const NodeId b = net.add_node(std::make_unique<SinkNode>());

  auto cycle = [&] {
    for (int i = 0; i < 64; ++i) net.node_as<SinkNode>(0).fire(b);
    net.run_until_idle();
  };

  for (int w = 0; w < 4; ++w) cycle();

  g_allocs.store(0);
  g_counting.store(true);
  for (int r = 0; r < 16; ++r) cycle();
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u)
      << "disabled fault machinery leaked allocations into the hot path";
}

// The guarantee must survive the sharded executor: with the node set
// partitioned over 4 shards, cross-shard sends ride per-shard outboxes
// that are merged at the round barrier — all of it from recycled
// capacity. Serial execution (threads=1) keeps the check deterministic.
TEST(ParallelZeroAlloc, ShardedSteadyStateAllocatesNothing) {
  NetworkConfig cfg;
  cfg.shards = 4;
  cfg.threads = 1;
  Network net(cfg);
  std::vector<NodeId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(net.add_node(std::make_unique<SinkNode>()));
  }
  ASSERT_EQ(net.num_shards(), 1u) << "shards latch on first send/step";

  auto cycle = [&] {
    // Every node fires at its shard-distance-2 neighbor, so every round
    // carries cross-shard traffic through the outbox merge.
    for (int i = 0; i < 16; ++i) {
      for (NodeId v : ids) {
        net.node_as<SinkNode>(v).fire(ids[(v + 2) % ids.size()]);
      }
    }
    net.run_until_idle();
  };

  for (int w = 0; w < 8; ++w) cycle();
  EXPECT_EQ(net.num_shards(), 4u);

  g_allocs.store(0);
  g_counting.store(true);
  for (int r = 0; r < 16; ++r) cycle();
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u)
      << "sharded steady-state message path performed heap allocations";
}

// Same scenario on 2 worker threads: payload blocks now migrate between
// per-thread freelists through the global overflow list, so the warmed-up
// block population covers every thread's worst-case demand. A longer
// warm-up lets the population reach that fixed point under arbitrary
// shard→thread interleavings before counting starts.
TEST(ParallelZeroAlloc, ShardedMultiThreadSteadyStateAllocatesNothing) {
  NetworkConfig cfg;
  cfg.shards = 4;
  cfg.threads = 2;
  Network net(cfg);
  std::vector<NodeId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(net.add_node(std::make_unique<SinkNode>()));
  }

  auto cycle = [&] {
    for (int i = 0; i < 16; ++i) {
      for (NodeId v : ids) {
        net.node_as<SinkNode>(v).fire(ids[(v + 3) % ids.size()]);
      }
    }
    net.run_until_idle();
  };

  for (int w = 0; w < 32; ++w) cycle();
  EXPECT_EQ(net.num_threads(), 2u);

  g_allocs.store(0);
  g_counting.store(true);
  for (int r = 0; r < 16; ++r) cycle();
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u)
      << "multi-threaded steady-state message path performed heap "
         "allocations";
}

// Wire mode marshals every send: encode into a per-shard scratch buffer,
// decode into a pooled payload, re-encode into a second scratch buffer and
// compare. Once both buffers have grown to the frame size, none of that
// touches the heap. The 64-bit field makes each frame cross a codec word
// boundary, so the word flush runs on every encode.
TEST(ZeroAlloc, SteadyStateWireModeAllocatesNothing) {
  NetworkConfig cfg;
  cfg.wire = true;
  cfg.shards = 1;
  Network net(cfg);
  net.add_node(std::make_unique<SinkNode>());
  const NodeId b = net.add_node(std::make_unique<SinkNode>());

  std::uint64_t value = 0x0123456789abcdefULL;
  auto cycle = [&] {
    for (int i = 0; i < 64; ++i) {
      value = value * 6364136223846793005ULL + 1442695040888963407ULL;
      net.node_as<SinkNode>(0).fire_wide(b, value);
      net.node_as<SinkNode>(0).fire(b);
    }
    net.run_until_idle();
  };

  for (int w = 0; w < 4; ++w) cycle();
  ASSERT_EQ(net.num_shards(), 1u);

  g_allocs.store(0);
  g_counting.store(true);
  for (int r = 0; r < 16; ++r) cycle();
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u)
      << "steady-state wire marshaling performed heap allocations";
}

// Failure-detector heartbeats ride the background lane (send_background):
// excluded from quiescence but pooled and queued like data. A steady
// heartbeat stream must recycle payloads and slot capacity just as the
// data path does — the detector may run forever without touching the heap.
TEST(ZeroAlloc, SteadyStateBackgroundLaneAllocatesNothing) {
  Network net;
  net.add_node(std::make_unique<SinkNode>());
  const NodeId b = net.add_node(std::make_unique<SinkNode>());

  auto cycle = [&] {
    for (int i = 0; i < 64; ++i) net.node_as<SinkNode>(0).fire_bg(b);
    // Background traffic doesn't count toward idle; step a fixed number
    // of rounds to drain it instead of run_until_idle.
    for (int s = 0; s < 4; ++s) net.step();
  };

  for (int w = 0; w < 4; ++w) cycle();

  g_allocs.store(0);
  g_counting.store(true);
  for (int r = 0; r < 16; ++r) cycle();
  g_counting.store(false);

  EXPECT_EQ(g_allocs.load(), 0u)
      << "background (heartbeat) lane performed steady-state allocations";
}

}  // namespace
}  // namespace sks::sim
