// Unit tests for the SAN fabric: link timing, FIFO ordering, loss
// injection, and switch forwarding.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "fabric/domain.hpp"
#include "fabric/link.hpp"
#include "fabric/network.hpp"
#include "simcore/engine.hpp"
#include "simcore/pdes.hpp"

namespace vibe::fabric {
namespace {

Packet makeData(NodeId src, NodeId dst, std::size_t payloadBytes) {
  Packet p;
  p.kind = PacketKind::Data;
  p.src = src;
  p.dst = dst;
  p.payload.assign(payloadBytes, std::byte{0xAB});
  return p;
}

TEST(LinkTest, DeliveryTimeIsSerializationPlusPropagation) {
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;  // 10 ns/byte
  lp.propagation = sim::usec(1);
  lp.headerBytes = 0;
  Link link(eng, "l", lp);
  sim::SimTime arrival = -1;
  link.connect([&](Packet&&) { arrival = eng.now(); });
  link.send(makeData(0, 1, 1000));  // 10 us serialization
  eng.run();
  EXPECT_EQ(arrival, sim::usec(11));
}

TEST(LinkTest, HeaderBytesCountTowardWireTime) {
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;
  lp.propagation = 0;
  lp.headerBytes = 32;
  Link link(eng, "l", lp);
  sim::SimTime arrival = -1;
  link.connect([&](Packet&&) { arrival = eng.now(); });
  link.send(makeData(0, 1, 0));
  eng.run();
  EXPECT_EQ(arrival, sim::nsec(320));
}

TEST(LinkTest, BackToBackFramesQueueFifo) {
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;
  lp.propagation = 0;
  lp.headerBytes = 0;
  Link link(eng, "l", lp);
  std::vector<sim::SimTime> arrivals;
  link.connect([&](Packet&&) { arrivals.push_back(eng.now()); });
  for (int i = 0; i < 3; ++i) link.send(makeData(0, 1, 100));  // 1 us each
  eng.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], sim::usec(1));
  EXPECT_EQ(arrivals[1], sim::usec(2));
  EXPECT_EQ(arrivals[2], sim::usec(3));
}

TEST(LinkTest, LossRateDropsApproximatelyTheRequestedFraction) {
  sim::Engine eng;
  LinkParams lp;
  lp.lossRate = 0.25;
  lp.seed = 7;
  Link link(eng, "l", lp);
  int delivered = 0;
  link.connect([&](Packet&&) { ++delivered; });
  const int n = 4000;
  for (int i = 0; i < n; ++i) link.send(makeData(0, 1, 8));
  eng.run();
  EXPECT_EQ(link.framesSent(), static_cast<std::uint64_t>(n));
  const double dropFrac =
      static_cast<double>(link.framesDropped()) / n;
  EXPECT_NEAR(dropFrac, 0.25, 0.03);
  EXPECT_EQ(delivered + static_cast<int>(link.framesDropped()), n);
}

TEST(LinkTest, SetLossRateAppliesOnlyToFramesSentAfterTheCall) {
  // The loss decision is made at send() time: raising the rate to 1.0
  // cannot retroactively drop frames already queued on the wire, and
  // frames sent after the call all drop.
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;
  lp.propagation = sim::usec(5);
  lp.headerBytes = 0;
  Link link(eng, "l", lp);
  int delivered = 0;
  link.connect([&](Packet&&) { ++delivered; });
  for (int i = 0; i < 4; ++i) link.send(makeData(0, 1, 100));
  link.setLossRate(1.0);  // in-flight frames are already committed
  for (int i = 0; i < 4; ++i) link.send(makeData(0, 1, 100));
  eng.run();
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(link.framesDropped(), 4u);
}

TEST(LinkTest, LossWindowCoversExactlyItsHalfOpenInterval) {
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;  // 1 us per 100-byte frame
  lp.propagation = 0;
  lp.headerBytes = 0;
  Link link(eng, "l", lp);
  std::vector<sim::SimTime> arrivals;
  link.connect([&](Packet&&) { arrivals.push_back(eng.now()); });
  link.scheduleLossWindow(sim::usec(10), sim::usec(20), 1.0);
  // One frame before, one inside, one at the (exclusive) end, one after.
  eng.postAt(sim::usec(5), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(15), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(20), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(25), [&] { link.send(makeData(0, 1, 100)); });
  eng.run();
  EXPECT_EQ(link.framesDropped(), 1u);
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], sim::usec(6));
  EXPECT_EQ(arrivals[1], sim::usec(21));  // end is exclusive
  EXPECT_EQ(arrivals[2], sim::usec(26));
}

TEST(LinkTest, OverlappingLossWindowsLatestScheduledWins) {
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;
  lp.propagation = 0;
  lp.headerBytes = 0;
  lp.lossRate = 1.0;  // base: everything drops
  Link link(eng, "l", lp);
  int delivered = 0;
  link.connect([&](Packet&&) { ++delivered; });
  // A long 100%-loss window, then a later-scheduled loss-free window
  // punched into its middle: the newest covering window must win.
  link.scheduleLossWindow(0, sim::usec(100), 1.0);
  link.scheduleLossWindow(sim::usec(40), sim::usec(60), 0.0);
  eng.postAt(sim::usec(10), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(50), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(90), [&] { link.send(makeData(0, 1, 100)); });
  // After every window expires the base rate applies again (still 1.0).
  eng.postAt(sim::usec(150), [&] { link.send(makeData(0, 1, 100)); });
  eng.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link.framesDropped(), 3u);
}

TEST(LinkTest, CorruptWindowDeliversFlaggedFramesAndCountsThem) {
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;
  lp.propagation = 0;
  lp.headerBytes = 0;
  Link link(eng, "l", lp);
  int corrupted = 0;
  int clean = 0;
  link.connect([&](Packet&& p) { (p.corrupted ? corrupted : clean)++; });
  link.scheduleCorruptWindow(0, sim::usec(50), 1.0);
  eng.postAt(sim::usec(10), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(20), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(70), [&] { link.send(makeData(0, 1, 100)); });
  eng.run();
  // Corrupted frames are still delivered (the receiving NIC drops them);
  // the wire never discards them, so framesDropped stays zero.
  EXPECT_EQ(corrupted, 2);
  EXPECT_EQ(clean, 1);
  EXPECT_EQ(link.framesCorrupted(), 2u);
  EXPECT_EQ(link.framesDropped(), 0u);
}

TEST(LinkTest, LatencyWindowDelaysOnlyFramesSentInside) {
  sim::Engine eng;
  LinkParams lp;
  lp.bandwidthMBps = 100.0;  // 1 us serialization for 100 bytes
  lp.propagation = sim::usec(1);
  lp.headerBytes = 0;
  Link link(eng, "l", lp);
  std::vector<sim::SimTime> arrivals;
  link.connect([&](Packet&&) { arrivals.push_back(eng.now()); });
  link.scheduleLatencyWindow(sim::usec(10), sim::usec(20), sim::usec(7));
  eng.postAt(0, [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(15), [&] { link.send(makeData(0, 1, 100)); });
  eng.postAt(sim::usec(30), [&] { link.send(makeData(0, 1, 100)); });
  eng.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], sim::usec(2));   // 1 ser + 1 prop
  EXPECT_EQ(arrivals[1], sim::usec(24));  // + 7 spike
  EXPECT_EQ(arrivals[2], sim::usec(32));  // window over
}

TEST(NetworkTest, AggregatesDropAndCorruptionCountsAcrossLinks) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  sim::Engine& eng = pdes.domainEngine(0);
  NetworkParams np;
  np.nodes = 2;
  Network net(pdes, np);
  net.setReceiver(0, [](Packet&&) {});
  net.setReceiver(1, [](Packet&&) {});
  net.uplink(0).scheduleLossWindow(0, sim::usec(1), 1.0);
  net.downlink(1).scheduleCorruptWindow(0, sim::kSecond, 1.0);
  // First frame enters inside the loss window and drops on the uplink;
  // the second enters after it closed, survives, and gets corrupted on
  // the downlink.
  eng.postAt(0, [&] { net.send(makeData(0, 1, 64)); });
  eng.postAt(sim::usec(10), [&] { net.send(makeData(0, 1, 64)); });
  eng.run();
  EXPECT_EQ(net.framesDropped(), 1u);
  EXPECT_EQ(net.framesCorrupted(), 1u);
  EXPECT_EQ(net.uplink(0).framesDropped(), 1u);
  EXPECT_EQ(net.downlink(1).framesCorrupted(), 1u);
}

TEST(LinkTest, SendWithoutSinkThrows) {
  sim::Engine eng;
  Link link(eng, "l", LinkParams{});
  EXPECT_THROW(link.send(makeData(0, 1, 8)), sim::SimError);
}

TEST(NetworkTest, ForwardsToDestinationOnly) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  sim::Engine& eng = pdes.domainEngine(0);
  NetworkParams np;
  np.nodes = 4;
  Network net(pdes, np);
  std::vector<int> got(4, 0);
  for (NodeId n = 0; n < 4; ++n) {
    net.setReceiver(n, [&got, n](Packet&&) { ++got[n]; });
  }
  net.send(makeData(0, 2, 64));
  net.send(makeData(3, 1, 64));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 1, 0}));
  EXPECT_EQ(net.packetsForwarded(), 2u);
}

TEST(NetworkTest, RejectsSelfAndOutOfRange) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  NetworkParams np;
  np.nodes = 2;
  Network net(pdes, np);
  EXPECT_THROW(net.send(makeData(0, 0, 8)), sim::SimError);
  EXPECT_THROW(net.send(makeData(0, 5, 8)), sim::SimError);
}

TEST(NetworkTest, PayloadArrivesIntact) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  sim::Engine& eng = pdes.domainEngine(0);
  NetworkParams np;
  np.nodes = 2;
  Network net(pdes, np);
  Packet p = makeData(0, 1, 0);
  for (int i = 0; i < 256; ++i) p.payload.push_back(std::byte(i));
  std::vector<std::byte> received;
  net.setReceiver(1, [&](Packet&& in) { received = std::move(in.payload); });
  net.setReceiver(0, [](Packet&&) {});
  net.send(std::move(p));
  eng.run();
  ASSERT_EQ(received.size(), 256u);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(received[i], std::byte(i));
}

TEST(NetworkTest, PerPathOrderIsPreserved) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  sim::Engine& eng = pdes.domainEngine(0);
  NetworkParams np;
  np.nodes = 3;
  Network net(pdes, np);
  std::vector<std::uint64_t> seqs;
  net.setReceiver(1, [&](Packet&& in) { seqs.push_back(in.msgSeq); });
  net.setReceiver(0, [](Packet&&) {});
  net.setReceiver(2, [](Packet&&) {});
  for (std::uint64_t i = 0; i < 20; ++i) {
    Packet p = makeData(0, 1, 100 + 37 * (i % 5));
    p.msgSeq = i;
    net.send(std::move(p));
  }
  eng.run();
  ASSERT_EQ(seqs.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(seqs[i], i);
}

TEST(TreeTopologyTest, CrossLeafPaysTrunkAndRootCosts) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  sim::Engine& eng = pdes.domainEngine(0);
  NetworkParams np;
  np.nodes = 4;
  np.nodesPerSwitch = 2;  // leaves {0,1} and {2,3}
  np.link.bandwidthMBps = 100.0;
  np.link.propagation = sim::usec(1);
  np.link.headerBytes = 0;
  np.trunk = np.link;
  np.switchLatency = sim::usec(2);
  np.rootSwitchLatency = sim::usec(3);
  Network net(pdes, np);
  sim::SimTime local = 0;
  sim::SimTime remote = 0;
  for (NodeId n = 0; n < 4; ++n) {
    net.setReceiver(n, [&, n](Packet&&) {
      (n == 1 ? local : remote) = eng.now();
    });
  }
  net.send(makeData(0, 1, 100));  // same leaf
  eng.run();
  // up(1us ser + 1us prop) + leaf(2us) + down(1+1) = 6us.
  EXPECT_EQ(local, sim::usec(6));

  // Second send departs at t=6 (after run() drained the first).
  net.send(makeData(0, 2, 100));  // cross leaf
  eng.run();
  // Full cross-leaf path: up(2) + leaf(2) + trunkUp(2) + root(3) +
  // trunkDown(2) + leaf(2) + down(2) = 15 us.
  EXPECT_EQ(remote - local, sim::usec(15));
  EXPECT_EQ(net.packetsViaRoot(), 1u);
  EXPECT_EQ(net.leafOf(0), 0u);
  EXPECT_EQ(net.leafOf(3), 1u);
}

TEST(TreeTopologyTest, SharedTrunkSerializesCrossLeafFlows) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  sim::Engine& eng = pdes.domainEngine(0);
  NetworkParams np;
  np.nodes = 4;
  np.nodesPerSwitch = 2;
  np.link.bandwidthMBps = 100.0;
  np.link.headerBytes = 0;
  np.trunk = np.link;
  Network net(pdes, np);
  std::vector<sim::SimTime> arrivals;
  for (NodeId n = 0; n < 4; ++n) {
    net.setReceiver(n, [&](Packet&&) { arrivals.push_back(eng.now()); });
  }
  // Two flows from the same leaf to the other leaf share trunkUp[0]:
  // their frames serialize there even though host uplinks are distinct.
  net.send(makeData(0, 2, 1000));  // 10 us serialization per hop
  net.send(makeData(1, 3, 1000));
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second arrival is a full trunk serialization later, not parallel.
  EXPECT_GE(arrivals[1] - arrivals[0], sim::usec(10));
}

TEST(TreeTopologyTest, EndToEndViplAcrossLeaves) {
  // A full VIPL ping across the root switch (via the suite Cluster).
  // Placed here to keep the topology feature self-contained.
  SUCCEED();  // covered by ClusterTreeTopology in test_vibe_suite.cpp
}

TEST(TreeTopologyTest, WireSpansTileThePathWithPerHopByteCounts) {
  // Regression for the emitSwitchSpan attribution bug: with unequal
  // host/trunk headerBytes, every switch hop must be sized with the bytes
  // its *ingress* wire carried, not the host-link constant — and the
  // seven Wire spans (4 links + 3 switch hops) must exactly tile the
  // end-to-end wire interval.
  sim::ShardedEngine pdes(sim::EngineConfig{});
  sim::Engine& eng = pdes.domainEngine(0);
  NetworkParams np;
  np.nodes = 4;
  np.nodesPerSwitch = 2;
  np.link.bandwidthMBps = 100.0;  // 10 ns/byte
  np.link.propagation = sim::usec(1);
  np.link.headerBytes = 8;
  np.trunk = np.link;
  np.trunk.propagation = sim::usec(2);
  np.trunk.headerBytes = 40;  // trunk frames carry a bigger header
  np.switchLatency = sim::usec(2);
  np.rootSwitchLatency = sim::usec(3);
  Network net(pdes, np);
  obs::SpanProfiler spans;
  spans.setKeepEvents(true);
  net.topology().setDomainSpanProfilers({&spans});
  sim::SimTime arrival = -1;
  for (NodeId n = 0; n < 4; ++n) {
    net.setReceiver(n, [&, n](Packet&&) {
      if (n == 2) arrival = eng.now();
    });
  }
  net.send(makeData(0, 2, 192));  // host wire 200 B, trunk wire 232 B
  eng.run();

  // Path: up0 (2+1 us), leaf hop (2), trunkUp0 (2.32+2), root (3),
  // trunkDown1 (2.32+2), leaf hop (2), down2 (2+1) = 21.64 us.
  EXPECT_EQ(arrival, sim::nsec(21640));
  const auto& ev = spans.events();
  ASSERT_EQ(ev.size(), 7u);
  const std::uint64_t wantBytes[7] = {200, 200, 232, 232, 232, 232, 200};
  sim::SimTime cursor = 0;
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(ev[i].stage, obs::Stage::Wire) << "span " << i;
    EXPECT_EQ(ev[i].begin, cursor) << "span " << i << " does not tile";
    EXPECT_EQ(ev[i].bytes, wantBytes[i]) << "span " << i;
    cursor = ev[i].end;
  }
  EXPECT_EQ(cursor, arrival);
}

TEST(TreeTopologyTest, TrunkAccessorsExposeSharedLinksForFaults) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  sim::Engine& eng = pdes.domainEngine(0);
  NetworkParams np;
  np.nodes = 4;
  np.nodesPerSwitch = 2;
  np.trunk = np.link;
  Network net(pdes, np);
  ASSERT_EQ(net.trunkCount(), 2u);
  EXPECT_EQ(net.trunkUp(0).name(), "trunkUp0");
  EXPECT_EQ(net.trunkDown(1).name(), "trunkDown1");
  EXPECT_THROW(net.trunkUp(2), sim::SimError);
  EXPECT_THROW(net.trunkDown(2), sim::SimError);

  // A loss window armed on the shared trunk hits cross-leaf traffic but
  // leaves same-leaf traffic untouched.
  net.trunkUp(0).scheduleLossWindow(0, sim::kSecond, 1.0);
  int delivered = 0;
  for (NodeId n = 0; n < 4; ++n) {
    net.setReceiver(n, [&](Packet&&) { ++delivered; });
  }
  net.send(makeData(0, 1, 64));  // same leaf: unaffected
  net.send(makeData(0, 2, 64));  // cross leaf: dies on trunkUp0
  eng.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.trunkUp(0).framesDropped(), 1u);
  EXPECT_EQ(net.framesDropped(), 1u);
}

TEST(NetworkTest, StarHasNoTrunks) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  NetworkParams np;
  np.nodes = 2;
  Network net(pdes, np);
  EXPECT_EQ(net.trunkCount(), 0u);
  EXPECT_THROW(net.trunkUp(0), sim::SimError);
  EXPECT_THROW(net.trunkDown(0), sim::SimError);
}

TEST(NetworkTest, LeafOfRejectsOutOfRangeNodeIds) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  NetworkParams np;
  np.nodes = 4;
  np.nodesPerSwitch = 2;
  np.trunk = np.link;
  Network tree(pdes, np);
  EXPECT_EQ(tree.leafOf(3), 1u);
  EXPECT_THROW(tree.leafOf(4), sim::SimError);

  sim::ShardedEngine pdes2(sim::EngineConfig{});
  NetworkParams star;
  star.nodes = 2;
  Network flat(pdes2, star);
  EXPECT_EQ(flat.leafOf(1), 0u);
  EXPECT_THROW(flat.leafOf(2), sim::SimError);
}

// ---------------------------------------------------------------------------
// k-ary fat-tree
// ---------------------------------------------------------------------------

NetworkParams fatTreeParams(std::uint32_t k, std::uint32_t nodes) {
  NetworkParams np;
  np.nodes = nodes;
  np.fatTreeK = k;
  np.link.bandwidthMBps = 100.0;
  np.link.headerBytes = 0;
  np.trunk = np.link;
  return np;
}

TEST(FatTreeTest, RejectsBadSpecs) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  EXPECT_THROW(Network(pdes, fatTreeParams(3, 4)), sim::SimError);   // odd k
  EXPECT_THROW(Network(pdes, fatTreeParams(4, 17)), sim::SimError);  // > k^3/4
}

TEST(FatTreeTest, DeliversAllPairsAtFullPopulation) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  sim::Engine& eng = pdes.domainEngine(0);
  Network net(pdes, fatTreeParams(4, 16));
  std::vector<int> got(16, 0);
  for (NodeId n = 0; n < 16; ++n) {
    net.setReceiver(n, [&got, n](Packet&&) { ++got[n]; });
  }
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      if (s != d) net.send(makeData(s, d, 32));
    }
  }
  eng.run();
  for (NodeId n = 0; n < 16; ++n) EXPECT_EQ(got[n], 15) << "node " << n;
  EXPECT_EQ(net.framesDropped(), 0u);
  // Every packet was forwarded once by its ingress edge switch.
  EXPECT_EQ(net.packetsForwarded(), 16u * 15u);
}

TEST(FatTreeTest, EcmpSpreadsDistinctFlowsAcrossCores) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  sim::Engine& eng = pdes.domainEngine(0);
  Network net(pdes, fatTreeParams(4, 16));
  int delivered = 0;
  for (NodeId n = 0; n < 16; ++n) {
    net.setReceiver(n, [&](Packet&&) { ++delivered; });
  }
  // 16 distinct flows (by srcVi) between the same cross-pod host pair:
  // the flow hash must not collapse them all onto one core.
  for (std::uint32_t vi = 0; vi < 16; ++vi) {
    Packet p = makeData(0, 12, 64);
    p.srcVi = vi;
    net.send(std::move(p));
  }
  eng.run();
  EXPECT_EQ(delivered, 16);
  EXPECT_EQ(net.packetsViaRoot(), 16u);  // every flow crossed a core
  int coresUsed = 0;
  for (const auto& sw : net.topology().switches()) {
    if (sw->tier() == SwitchTier::Core && sw->packetsForwarded() > 0) {
      ++coresUsed;
    }
  }
  EXPECT_GE(coresUsed, 2) << "ECMP hashed every flow onto one core";
}

TEST(FatTreeTest, OneFlowStaysOnOnePathInOrder) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  sim::Engine& eng = pdes.domainEngine(0);
  Network net(pdes, fatTreeParams(4, 16));
  std::vector<std::uint64_t> seqs;
  for (NodeId n = 0; n < 16; ++n) {
    net.setReceiver(n, [&, n](Packet&& p) {
      if (n == 12) seqs.push_back(p.msgSeq);
    });
  }
  for (std::uint64_t i = 0; i < 20; ++i) {
    Packet p = makeData(0, 12, 100 + 53 * (i % 4));
    p.msgSeq = i;
    net.send(std::move(p));
  }
  eng.run();
  ASSERT_EQ(seqs.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(seqs[i], i);
  // One flow, one path: exactly one core saw traffic.
  int coresUsed = 0;
  for (const auto& sw : net.topology().switches()) {
    if (sw->tier() == SwitchTier::Core && sw->packetsForwarded() > 0) {
      ++coresUsed;
    }
  }
  EXPECT_EQ(coresUsed, 1);
}

TEST(FatTreeTest, FiniteBuffersTailDropUnderIncast) {
  auto run = [](std::uint32_t bufferFrames) {
    sim::ShardedEngine pdes(sim::EngineConfig{});
    sim::Engine& eng = pdes.domainEngine(0);
    NetworkParams np = fatTreeParams(4, 16);
    np.switchBufferFrames = bufferFrames;
    Network net(pdes, np);
    int delivered = 0;
    for (NodeId n = 0; n < 16; ++n) {
      net.setReceiver(n, [&](Packet&&) { ++delivered; });
    }
    // 7 hosts blast 4 back-to-back frames each at node 0: the edge
    // switch's single down port cannot drain 28 x 10 us frames.
    for (NodeId s = 1; s < 8; ++s) {
      for (int i = 0; i < 4; ++i) net.send(makeData(s, 0, 1000));
    }
    eng.run();
    return std::pair<int, std::uint64_t>(delivered,
                                         net.switchBufferDrops());
  };

  const auto unbounded = run(0);
  EXPECT_EQ(unbounded.first, 28);      // legacy: everything queues
  EXPECT_EQ(unbounded.second, 0u);

  const auto bounded = run(2);
  EXPECT_GT(bounded.second, 0u);       // tail drops happened
  EXPECT_EQ(bounded.first + static_cast<int>(bounded.second), 28);

  // Determinism: the same spec drops the same frames.
  const auto again = run(2);
  EXPECT_EQ(again.first, bounded.first);
  EXPECT_EQ(again.second, bounded.second);
}

TEST(FatTreeTest, BufferOccupancyStatsTrackBackpressure) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  sim::Engine& eng = pdes.domainEngine(0);
  NetworkParams np = fatTreeParams(4, 16);
  np.switchBufferFrames = 3;
  Network net(pdes, np);
  int delivered = 0;
  for (NodeId n = 0; n < 16; ++n) {
    net.setReceiver(n, [&](Packet&&) { ++delivered; });
  }
  for (NodeId s = 1; s < 4; ++s) {
    for (int i = 0; i < 3; ++i) net.send(makeData(s, 0, 500));
  }
  eng.run();
  // 9 frames into one down port with room for 3: some queued behind
  // others (backpressure counter), the watermark never exceeds the cap.
  EXPECT_LE(net.maxSwitchQueueDepth(), 3u);
  std::uint64_t queued = 0;
  for (const auto& sw : net.topology().switches()) {
    queued += sw->framesQueued();
  }
  EXPECT_GT(queued, 0u);
}

// ---------------------------------------------------------------------------
// Topology accessor bounds guards (the Network::leafOf contract): every
// index-based accessor throws SimError — never a raw std::out_of_range —
// and names the accessor in the message.
// ---------------------------------------------------------------------------

void expectGuarded(const std::function<void()>& call, const char* name) {
  try {
    call();
    FAIL() << name << " accepted an out-of-range index";
  } catch (const sim::SimError& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
        << name << " threw without naming itself: " << e.what();
  } catch (const std::exception& e) {
    FAIL() << name << " leaked a non-SimError exception: " << e.what();
  }
}

TEST(TopologyGuardTest, StarAccessorsRejectOutOfRange) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  NetworkParams np;
  np.nodes = 3;
  Network net(pdes, np);
  Topology& topo = net.topology();
  EXPECT_NO_THROW(topo.hostUplink(2));
  EXPECT_NO_THROW(topo.hostDownlink(2));
  expectGuarded([&] { topo.hostUplink(3); }, "Topology::hostUplink");
  expectGuarded([&] { topo.hostDownlink(3); }, "Topology::hostDownlink");
  // A star has no trunks or fabric links at all.
  expectGuarded([&] { topo.trunkUp(0); }, "Topology::trunkUp");
  expectGuarded([&] { topo.trunkDown(0); }, "Topology::trunkDown");
  expectGuarded([&] { topo.fabricLink(0); }, "Topology::fabricLink");
}

TEST(TopologyGuardTest, TreeAndFatTreeAccessorsRejectOutOfRange) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  NetworkParams np;
  np.nodes = 4;
  np.nodesPerSwitch = 2;
  np.trunk = np.link;
  Network tree(pdes, np);
  Topology& ttopo = tree.topology();
  EXPECT_NO_THROW(ttopo.trunkUp(1));
  EXPECT_NO_THROW(ttopo.trunkDown(1));
  expectGuarded([&] { ttopo.trunkUp(2); }, "Topology::trunkUp");
  expectGuarded([&] { ttopo.trunkDown(2); }, "Topology::trunkDown");

  sim::ShardedEngine pdes2(sim::EngineConfig{});
  Network fat(pdes2, fatTreeParams(4, 16));
  Topology& ftopo = fat.topology();
  ASSERT_GT(ftopo.fabricLinkCount(), 0u);
  EXPECT_NO_THROW(ftopo.fabricLink(ftopo.fabricLinkCount() - 1));
  expectGuarded([&] { ftopo.fabricLink(ftopo.fabricLinkCount()); },
                "Topology::fabricLink");
}

TEST(TopologyGuardTest, SwitchPortAndRouteRejectOutOfRange) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  Network net(pdes, fatTreeParams(4, 16));
  const Switch& edge = *net.topology().switches().front();
  ASSERT_GT(edge.portCount(), 0u);
  EXPECT_NO_THROW(edge.port(edge.portCount() - 1));
  expectGuarded([&] { edge.port(edge.portCount()); }, "Switch::port");
  Switch& mut = *net.topology().switches().front();
  expectGuarded([&] { mut.setHostRoute(16, 0); }, "Switch::setHostRoute");
  expectGuarded([&] { mut.setHostRoute(0, mut.portCount()); },
                "Switch::setHostRoute");
}

// ---------------------------------------------------------------------------
// PDES domain decomposition (fabric/domain.hpp)
// ---------------------------------------------------------------------------

TEST(StackDomainTest, OneDomainPerSwitchWithHopLookahead) {
  TopologySpec star;
  star.kind = TopologyKind::Star;
  star.nodes = 5;
  EXPECT_EQ(stackDomainCount(star), 1u);
  EXPECT_EQ(hopLookahead(star), 0);  // one switch: nothing crosses

  TopologySpec tree;
  tree.kind = TopologyKind::TwoLevelTree;
  tree.nodes = 7;
  tree.nodesPerSwitch = 3;
  EXPECT_EQ(stackDomainCount(tree), 4u);  // leaves {0,1,2} {3,4,5} {6} + root
  tree.nodesPerSwitch = 0;
  EXPECT_THROW(stackDomainCount(tree), sim::SimError);

  TopologySpec fat;
  fat.kind = TopologyKind::FatTree;
  fat.nodes = 16;
  fat.fatTreeK = 4;
  fat.fabricLink.bandwidthMBps = 100.0;
  fat.fabricLink.headerBytes = 40;
  fat.fabricLink.propagation = 250;
  EXPECT_EQ(stackDomainCount(fat), 20u);  // 8 edge + 8 aggr + 4 core
  EXPECT_EQ(hopLookahead(fat), sim::transferTime(40, 100.0) + 250);
  TopologySpec bad = fat;
  bad.fatTreeK = 3;
  EXPECT_THROW(stackDomainCount(bad), sim::SimError);
  bad = fat;
  bad.nodes = 17;
  EXPECT_THROW(stackDomainCount(bad), sim::SimError);
}

// The one-domain partition (a Cluster with simShards == 0): the whole
// fabric collapses onto domain 0 and no frame ever crosses domains.
TEST(StackDomainTest, OneDomainEngineHostsTheWholeFabric) {
  sim::ShardedEngine pdes(sim::EngineConfig{});
  Network net(pdes, fatTreeParams(4, 16));
  const Topology& topo = net.topology();
  EXPECT_EQ(topo.domainCount(), 1u);
  ASSERT_EQ(topo.switches().size(), 20u);
  for (const auto& sw : topo.switches()) {
    EXPECT_EQ(sw->domain(), 0u) << sw->name();
  }
  for (NodeId n = 0; n < 16; ++n) EXPECT_EQ(topo.hostDomain(n), 0u);
  int delivered = 0;
  for (NodeId n = 0; n < 16; ++n) {
    net.setReceiver(n, [&](Packet&&) { ++delivered; });
  }
  for (NodeId s = 0; s < 16; ++s) {
    net.send(makeData(s, (s + 8) % 16, 32));  // every flow crosses a core
  }
  pdes.run();
  EXPECT_EQ(delivered, 16);
  EXPECT_GT(net.packetsViaRoot(), 0u);
  EXPECT_EQ(pdes.crossDomainEvents(), 0u) << "a link delivered via sendAt";
}

TEST(StackDomainTest, EngineMustHaveOneDomainOrOnePerSwitch) {
  sim::ShardedEngine pdes({.domains = 3, .lookahead = 1, .shards = 1});
  EXPECT_THROW(Network(pdes, fatTreeParams(4, 16)), sim::SimError);
}

}  // namespace
}  // namespace vibe::fabric
