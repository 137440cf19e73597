// VIA-stack-on-PDES equivalence wall: the whole stack (VIPL providers,
// reliability layer, sessions, RPC) runs on a hosted ShardedEngine with
// one domain per fat-tree switch, and every observable — per-node trace
// digests, NIC counters, metrics-registry text, span-profiler
// attribution, time-series CSV, end time — must be byte-identical to the
// classic serial engine, at every worker shard count.
//
// Two comparison contracts, deliberately distinct:
//
//   serial vs sharded    per-node tracers attached directly to each NIC
//                        device. A node's stream is totally ordered by
//                        its own domain schedule, so it is comparable
//                        across engine modes. (A single global tracer is
//                        NOT: serial interleaves same-timestamp records
//                        from different nodes by global execution order,
//                        which no deterministic sharded merge reproduces.)
//   sharded vs sharded   the Cluster-level shadow-replay tracer: its
//                        (time, node, record) merge order is a function
//                        of the simulation alone, so the global digest is
//                        identical at any shard count >= 1.
//
// Workloads cover the layers the port touches: raw VIPL ping-pong with
// frame loss (retransmission timers), a 15-client RPC fan-in through one
// server CQ, cross-pod multi-fragment streaming on three concurrent
// pairs, and a session flap driven by a host partition (reconnect +
// exactly-once replay under fault injection).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fabric/domain.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "nic/profiles.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "session/session.hpp"
#include "upper/rpc/rpc.hpp"
#include "vibe/cluster.hpp"
#include "vipl/vipl.hpp"

namespace vibe {
namespace {

using fault::FaultAction;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::LinkSide;
using session::Session;
using session::SessionConfig;
using suite::Cluster;
using suite::ClusterConfig;
using suite::NodeEnv;
using vipl::PendingConn;
using vipl::Provider;
using vipl::Vi;
using vipl::VipDescriptor;
using vipl::VipResult;

// k=4 fat-tree: 16 hosts, 2 per edge switch, 4 per pod, 20 PDES domains
// (8 edge + 8 aggr + 4 core). Small enough to run the matrix quickly,
// large enough that every path tier (same-edge, same-pod, cross-pod) and
// every switch tier carries traffic.
constexpr std::uint32_t kNodes = 16;
constexpr std::uint32_t kFatTreeK = 4;
constexpr sim::Duration kTimeout = sim::kSecond * 10;
constexpr std::uint64_t kDisc = 9;

std::uint32_t hwShards() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 2 : n;
}

// --- small VIPL helpers (same idiom as test_chaos) ---------------------

struct Buf {
  mem::VirtAddr va = 0;
  mem::MemHandle handle = 0;
};

Buf makeBuf(Provider& nic, mem::PtagId ptag, std::uint64_t len) {
  Buf b;
  b.va = nic.memory().alloc(len, mem::kPageSize);
  vipl::VipMemAttributes ma;
  ma.ptag = ptag;
  EXPECT_EQ(vipl::VipRegisterMem(nic, b.va, len, ma, b.handle),
            VipResult::VIP_SUCCESS);
  return b;
}

void fillSeeded(Provider& nic, mem::VirtAddr va, std::size_t len,
                std::uint8_t seed) {
  std::vector<std::byte> data(len);
  for (std::size_t i = 0; i < len; ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(seed ^ (i * 31)));
  }
  nic.memory().write(va, data);
}

bool checkSeeded(Provider& nic, mem::VirtAddr va, std::size_t len,
                 std::uint8_t seed) {
  std::vector<std::byte> data(len);
  nic.memory().read(va, data);
  for (std::size_t i = 0; i < len; ++i) {
    if (data[i] != std::byte(static_cast<std::uint8_t>(seed ^ (i * 31)))) {
      return false;
    }
  }
  return true;
}

Vi* makeVi(Provider& nic, mem::PtagId ptag, nic::Reliability rel) {
  vipl::VipViAttributes va;
  va.ptag = ptag;
  va.reliabilityLevel = rel;
  Vi* vi = nullptr;
  EXPECT_EQ(vipl::VipCreateVi(nic, va, nullptr, nullptr, vi),
            VipResult::VIP_SUCCESS);
  return vi;
}

std::vector<std::byte> pattern(std::size_t len, std::uint64_t seed) {
  std::vector<std::byte> out(len);
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = std::byte(static_cast<std::uint8_t>(seed * 7 + i * 13));
  }
  return out;
}

// --- workloads ---------------------------------------------------------

using Programs = std::vector<std::function<void(NodeEnv&)>>;

Programs idlePrograms() {
  return Programs(kNodes, [](NodeEnv&) {});
}

std::function<void(NodeEnv&)> pingPongRequester(fabric::NodeId peer,
                                                std::uint64_t disc,
                                                std::uint64_t seed,
                                                int rounds,
                                                std::size_t bytes) {
  return [=](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf tx = makeBuf(nic, ptag, bytes);
    Buf rx = makeBuf(nic, ptag, rounds * bytes);
    fillSeeded(nic, tx.va, bytes, static_cast<std::uint8_t>(seed));
    Vi* vi = makeVi(nic, ptag, nic::Reliability::ReliableDelivery);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < rounds; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(
          VipDescriptor::recv(rx.va + i * bytes, rx.handle, bytes)));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, recvs[i].get()),
                VipResult::VIP_SUCCESS);
    }
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {peer, disc}, kTimeout),
              VipResult::VIP_SUCCESS);
    for (int i = 0; i < rounds; ++i) {
      VipDescriptor d = VipDescriptor::send(tx.va, tx.handle, bytes);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      ASSERT_EQ(done, recvs[i].get()) << "pong out of order at round " << i;
    }
  };
}

std::function<void(NodeEnv&)> pingPongResponder(fabric::NodeId self,
                                                std::uint64_t disc,
                                                std::uint64_t seed,
                                                int rounds,
                                                std::size_t bytes) {
  return [=](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf tx = makeBuf(nic, ptag, bytes);
    Buf rx = makeBuf(nic, ptag, rounds * bytes);
    fillSeeded(nic, tx.va, bytes, static_cast<std::uint8_t>(seed + 1));
    Vi* vi = makeVi(nic, ptag, nic::Reliability::ReliableDelivery);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < rounds; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(
          VipDescriptor::recv(rx.va + i * bytes, rx.handle, bytes)));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, recvs[i].get()),
                VipResult::VIP_SUCCESS);
    }
    PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {self, disc}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);
    for (int i = 0; i < rounds; ++i) {
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      ASSERT_EQ(done, recvs[i].get()) << "ping out of order at round " << i;
      VipDescriptor d = VipDescriptor::send(tx.va, tx.handle, bytes);
      ASSERT_EQ(vipl::VipPostSend(nic, vi, &d), VipResult::VIP_SUCCESS);
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
    }
  };
}

/// Cross-pod request/response (node 0 in pod 0 <-> node 13 in pod 3):
/// every frame crosses edge, aggr, and core domains, and 2% frame loss
/// keeps the RTO retransmission timers hot.
void pingPongWorkload(Cluster& cluster, std::uint64_t seed) {
  Programs programs = idlePrograms();
  programs[0] = pingPongRequester(13, kDisc, seed, 40, 1024);
  programs[13] = pingPongResponder(13, kDisc, seed, 40, 1024);
  cluster.run(std::move(programs));
}

/// Every other node drives RPCs into one server CQ — 15 concurrent
/// connect dialogs plus request fan-in from every edge domain at once.
/// Clients stagger their start (same idiom as bench_ext_multiclient):
/// unstaggered, every cross-pod client's connect lands on the server
/// edge at the same timestamp, and the serial engine orders such
/// same-time arrivals from different source domains by global insertion
/// order where the hosted merge orders them by domain index — both valid
/// schedules, but not comparable. The stagger keeps the workload
/// tie-free so serial-vs-sharded identity is well-defined.
void rpcWorkload(Cluster& cluster, std::uint64_t seed) {
  constexpr int kCalls = 5;
  Programs programs = idlePrograms();
  programs[0] = [](NodeEnv& env) {
    upper::rpc::RpcServer srv(env);
    srv.registerMethod(1, [](std::span<const std::byte> in) {
      std::vector<std::byte> out(in.begin(), in.end());
      for (auto& b : out) b ^= std::byte{0x5a};
      return out;
    });
    srv.acceptClients(kNodes - 1);
    srv.serve();
    EXPECT_EQ(srv.requestsServed(),
              static_cast<std::uint64_t>(kCalls * (kNodes - 1)));
  };
  for (std::uint32_t n = 1; n < kNodes; ++n) {
    programs[n] = [n, seed](NodeEnv& env) {
      env.self.advance(sim::usec(23) * n, sim::CpuUse::Idle);
      upper::rpc::RpcClient cli(env, 0);
      for (int i = 0; i < kCalls; ++i) {
        const auto args = pattern(24, seed + n * 100 + i);
        const auto reply = cli.call(1, args);
        auto expect = args;
        for (auto& b : expect) b ^= std::byte{0x5a};
        EXPECT_EQ(reply, expect) << "node " << n << " call " << i;
      }
      cli.shutdown();
    };
  }
  cluster.run(std::move(programs));
}

std::function<void(NodeEnv&)> streamSender(fabric::NodeId peer,
                                           std::uint64_t disc,
                                           nic::Reliability rel,
                                           int messages, std::size_t bytes) {
  return [=](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, messages * bytes);
    for (int i = 0; i < messages; ++i) {
      fillSeeded(nic, buf.va + i * bytes, bytes,
                 static_cast<std::uint8_t>(i));
    }
    Vi* vi = makeVi(nic, ptag, rel);
    ASSERT_EQ(vipl::VipConnectRequest(nic, vi, {peer, disc}, kTimeout),
              VipResult::VIP_SUCCESS);
    std::vector<std::unique_ptr<VipDescriptor>> sends;
    for (int i = 0; i < messages; ++i) {
      sends.push_back(std::make_unique<VipDescriptor>(
          VipDescriptor::send(buf.va + i * bytes, buf.handle, bytes)));
      ASSERT_EQ(vipl::VipPostSend(nic, vi, sends[i].get()),
                VipResult::VIP_SUCCESS);
    }
    for (int i = 0; i < messages; ++i) {
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.sendWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      ASSERT_EQ(done, sends[i].get()) << "send completions out of order";
    }
  };
}

std::function<void(NodeEnv&)> streamReceiver(fabric::NodeId self,
                                             std::uint64_t disc,
                                             nic::Reliability rel,
                                             int messages,
                                             std::size_t bytes) {
  return [=](NodeEnv& env) {
    Provider& nic = env.nic;
    auto ptag = vipl::VipCreatePtag(nic);
    Buf buf = makeBuf(nic, ptag, messages * bytes);
    Vi* vi = makeVi(nic, ptag, rel);
    std::vector<std::unique_ptr<VipDescriptor>> recvs;
    for (int i = 0; i < messages; ++i) {
      recvs.push_back(std::make_unique<VipDescriptor>(
          VipDescriptor::recv(buf.va + i * bytes, buf.handle, bytes)));
      ASSERT_EQ(vipl::VipPostRecv(nic, vi, recvs[i].get()),
                VipResult::VIP_SUCCESS);
    }
    PendingConn conn;
    ASSERT_EQ(vipl::VipConnectWait(nic, {self, disc}, kTimeout, conn),
              VipResult::VIP_SUCCESS);
    ASSERT_EQ(vipl::VipConnectAccept(nic, conn, vi), VipResult::VIP_SUCCESS);
    for (int i = 0; i < messages; ++i) {
      VipDescriptor* done = nullptr;
      ASSERT_EQ(nic.recvWait(vi, kTimeout, done), VipResult::VIP_SUCCESS);
      ASSERT_EQ(done, recvs[i].get()) << "recv completions out of order";
      EXPECT_TRUE(checkSeeded(nic, buf.va + i * bytes, bytes,
                              static_cast<std::uint8_t>(i)))
          << "payload corrupted for message " << i;
    }
  };
}

/// Three concurrent multi-fragment streams (6000 B > MTU, so every
/// message exercises fragmentation/reassembly) crossing pods in both
/// directions, with both reliability levels in flight at once.
void streamingWorkload(Cluster& cluster, std::uint64_t seed) {
  (void)seed;
  constexpr int kMessages = 25;
  constexpr std::size_t kBytes = 6000;
  Programs programs = idlePrograms();
  struct Pair {
    fabric::NodeId src, dst;
    nic::Reliability rel;
  };
  const Pair pairs[] = {
      {1, 14, nic::Reliability::ReliableDelivery},
      {5, 10, nic::Reliability::ReliableReception},
      {8, 3, nic::Reliability::ReliableDelivery},
  };
  for (std::size_t p = 0; p < std::size(pairs); ++p) {
    const std::uint64_t disc = kDisc + 1 + p;
    programs[pairs[p].src] =
        streamSender(pairs[p].dst, disc, pairs[p].rel, kMessages, kBytes);
    programs[pairs[p].dst] = streamReceiver(pairs[p].dst, disc,
                                            pairs[p].rel, kMessages, kBytes);
  }
  cluster.run(std::move(programs));
}

SessionConfig sessionCfg(std::uint32_t sid, fabric::NodeId remote,
                         bool initiator, std::uint64_t seed) {
  SessionConfig c;
  c.sid = sid;
  c.remoteNode = remote;
  c.discriminator = 0x5345'5332;  // "SES2"
  c.initiator = initiator;
  c.policy.seed = seed;
  return c;
}

/// Host partition long enough to exhaust the RTO retry budget: the
/// session must notice the break inside its edge domain, tear down, and
/// reconnect through the full cross-domain fabric — the reliability-
/// timer restructure's acid test.
FaultPlan flapPlan(std::uint64_t seed, fabric::NodeId node) {
  FaultPlan plan;
  plan.seed = seed;
  FaultAction part;
  part.kind = FaultKind::Partition;
  part.node = node;
  part.side = LinkSide::Both;
  part.start = sim::msec(60);
  part.duration = sim::msec(400);
  part.rate = 1.0;
  plan.actions.push_back(part);
  return plan;
}

/// Cross-pod session (2 -> 13) producing through a 400ms partition of
/// the receiver's host links; reconnect + exactly-once replay must be
/// identical in every engine mode.
void sessionFlapWorkload(Cluster& cluster, std::uint64_t seed) {
  constexpr int kMsgs = 40;
  Programs programs = idlePrograms();
  programs[2] = [seed](NodeEnv& env) {
    Session s(env.nic, sessionCfg(1, 13, /*initiator=*/true, seed));
    ASSERT_TRUE(s.establish());
    for (int i = 0; i < kMsgs; ++i) {
      ASSERT_TRUE(s.send(pattern(300, i)));
      env.self.advance(sim::msec(8), sim::CpuUse::Idle);
      s.progress();
      ASSERT_FALSE(s.down());
    }
    ASSERT_TRUE(s.flush(sim::kSecond * 5));
    EXPECT_GE(s.stats().reconnects, 1u);
    EXPECT_GT(s.stats().replayed, 0u);
  };
  programs[13] = [seed](NodeEnv& env) {
    Session s(env.nic, sessionCfg(1, 2, /*initiator=*/false, seed));
    ASSERT_TRUE(s.establish());
    for (int i = 0; i < kMsgs; ++i) {
      std::vector<std::byte> msg;
      ASSERT_TRUE(s.recv(msg, sim::kSecond * 5)) << "message " << i;
      EXPECT_EQ(msg, pattern(300, i)) << "message " << i;
    }
    EXPECT_EQ(s.stats().delivered, static_cast<std::uint64_t>(kMsgs));
  };
  cluster.run(std::move(programs));
}

// --- the equivalence harness -------------------------------------------

using WorkloadFn = void (*)(Cluster&, std::uint64_t);

struct WorkloadCase {
  const char* name;
  WorkloadFn fn;
  double loss;      // Bernoulli frame loss on every link
  bool flap;        // arm flapPlan(seed, 13)
};

/// Everything a run exposes, rendered to comparable form. Every field
/// must be byte-identical between the serial engine and the hosted
/// ShardedEngine at any shard count.
struct StackOutcome {
  sim::SimTime endTime = 0;
  std::vector<std::uint64_t> nodeDigests;
  std::string nicStats;
  std::string metrics;
  std::string spans;
  std::string samplerCsv;
  std::uint64_t windows = 0;  // sharded runs only; 0 when serial
};

std::string renderNicStats(Cluster& cluster) {
  std::string out;
  for (std::uint32_t n = 0; n < cluster.nodeCount(); ++n) {
    const nic::NicStats s = cluster.node(n).device().stats();
    out += "node" + std::to_string(n) + " sp=" +
           std::to_string(s.sendsPosted) + " rp=" +
           std::to_string(s.recvsPosted) + " ftx=" +
           std::to_string(s.fragsTx) + " frx=" + std::to_string(s.fragsRx) +
           " btx=" + std::to_string(s.bytesTx) + " brx=" +
           std::to_string(s.bytesRx) + " atx=" + std::to_string(s.acksTx) +
           " arx=" + std::to_string(s.acksRx) + " rtx=" +
           std::to_string(s.retransmits) + " ooo=" +
           std::to_string(s.rxOutOfOrderDropped) + " perr=" +
           std::to_string(s.protocolErrors) + "\n";
  }
  return out;
}

/// One full run of `wc` on a 16-host k=4 fat-tree. `simShards` 0 = the
/// classic serial engine; >= 1 = hosted ShardedEngine with that many
/// worker threads (1 runs the identical window loop inline).
StackOutcome runStack(const WorkloadCase& wc, std::uint32_t simShards,
                      std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.nodes = kNodes;
  cfg.seed = seed;
  cfg.lossRate = wc.loss;
  cfg.fatTreeK = kFatTreeK;
  cfg.simShards = simShards;
  Cluster cluster(cfg);

  // Per-node tracers attached straight to each NIC device: each stream
  // is totally ordered by that node's own schedule, so its digest is the
  // serial-vs-sharded equivalence witness.
  std::vector<std::unique_ptr<sim::Tracer>> tracers;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    auto t = std::make_unique<sim::Tracer>(64);
    t->enableAll();
    cluster.node(n).device().setTracer(t.get());
    tracers.push_back(std::move(t));
  }

  obs::MetricsRegistry metrics;
  cluster.setMetricsRegistry(&metrics);
  obs::SpanProfiler spans;
  cluster.setSpanProfiler(&spans);
  obs::TimeSeriesSampler sampler;
  cluster.setSampler(&sampler, sim::msec(1));

  std::unique_ptr<FaultInjector> injector;
  if (wc.flap) {
    injector = std::make_unique<FaultInjector>(flapPlan(seed, 13));
    injector->arm(cluster);
  }

  wc.fn(cluster, seed);

  StackOutcome out;
  out.endTime = cluster.now();
  for (auto& t : tracers) out.nodeDigests.push_back(t->digest());
  out.nicStats = renderNicStats(cluster);
  out.metrics = metrics.renderText();
  out.spans = spans.renderAttribution();
  out.samplerCsv = sampler.renderCsv();
  if (cluster.sharded()) out.windows = cluster.shardedEngine().windowsExecuted();
  return out;
}

void expectSameOutcome(const StackOutcome& serial, const StackOutcome& got,
                       const std::string& label) {
  EXPECT_EQ(serial.endTime, got.endTime) << label;
  ASSERT_EQ(serial.nodeDigests.size(), got.nodeDigests.size()) << label;
  for (std::size_t n = 0; n < serial.nodeDigests.size(); ++n) {
    EXPECT_EQ(serial.nodeDigests[n], got.nodeDigests[n])
        << label << ": node " << n << " trace digest diverged";
  }
  EXPECT_EQ(serial.nicStats, got.nicStats) << label;
  EXPECT_EQ(serial.metrics, got.metrics) << label;
  EXPECT_EQ(serial.spans, got.spans) << label;
  EXPECT_EQ(serial.samplerCsv, got.samplerCsv) << label;
}

class PdesStackEquivalence : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(PdesStackEquivalence, SerialAndShardedAreByteIdentical) {
  const WorkloadCase wc = GetParam();
  const std::uint64_t seed = 1234;

  const StackOutcome serial = runStack(wc, /*simShards=*/0, seed);

  const std::uint32_t shardCounts[] = {1, 2, 7, hwShards()};
  std::uint64_t windows = 0;
  for (std::uint32_t shards : shardCounts) {
    const StackOutcome sharded = runStack(wc, shards, seed);
    expectSameOutcome(serial, sharded,
                      "shards=" + std::to_string(shards));
    // The window schedule is a function of the domain partition and
    // lookahead alone, so every sharded run executes the same windows.
    if (windows == 0) windows = sharded.windows;
    EXPECT_EQ(sharded.windows, windows)
        << "window count varies with worker shards=" << shards;
    EXPECT_GT(sharded.windows, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PdesStackEquivalence,
    ::testing::Values(
        WorkloadCase{"pingPongLossy", pingPongWorkload, 0.02, false},
        WorkloadCase{"multiclientRpc", rpcWorkload, 0.0, false},
        WorkloadCase{"streamingPairs", streamingWorkload, 0.0, false},
        WorkloadCase{"sessionFlap", sessionFlapWorkload, 0.0, true}),
    [](const auto& pi) { return std::string(pi.param.name); });

// --- the Cluster-level shadow tracer -----------------------------------

// The global replayed stream (per-node shadow tracers merged in
// (time, node, record) order after the run) is a function of the
// simulation alone: its digest must not move with the worker shard
// count. Serial is excluded on purpose — a serial global tracer
// interleaves same-timestamp records from different nodes in execution
// order, which is a different (equally valid) total order.
TEST(PdesStackShadowTracer, GlobalReplayDigestInvariantAcrossShardCounts) {
  const WorkloadCase wc{"pingPongLossy", pingPongWorkload, 0.02, false};
  const std::uint64_t seed = 77;

  std::uint64_t expected = 0;
  bool first = true;
  for (std::uint32_t shards : {1u, 2u, 7u}) {
    ClusterConfig cfg;
    cfg.profile = nic::profileByName("clan");
    cfg.nodes = kNodes;
    cfg.seed = seed;
    cfg.lossRate = wc.loss;
    cfg.fatTreeK = kFatTreeK;
    cfg.simShards = shards;
    Cluster cluster(cfg);
    sim::Tracer tracer(4096);
    tracer.enableAll();
    cluster.setTracer(&tracer);
    wc.fn(cluster, seed);
    if (first) {
      expected = tracer.digest();
      first = false;
      EXPECT_NE(expected, sim::Tracer::kDigestSeed) << "empty trace stream";
    } else {
      EXPECT_EQ(tracer.digest(), expected)
          << "global replay digest moved at shards=" << shards;
    }
  }
}

// --- mode accessors and domain placement --------------------------------

TEST(PdesStackCluster, ShardedAccessorsAndDomainPlacement) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.nodes = kNodes;
  cfg.fatTreeK = kFatTreeK;
  cfg.simShards = 2;
  Cluster cluster(cfg);

  EXPECT_TRUE(cluster.sharded());
  // k=4: 8 edge + 8 aggr + 4 core switches = 20 domains.
  EXPECT_EQ(cluster.shardedEngine().domainCount(), 20u);
  // Hosts land on their edge switch's domain: 2 hosts per edge at k=4.
  EXPECT_EQ(&cluster.nodeEngine(0), &cluster.nodeEngine(1));
  EXPECT_NE(&cluster.nodeEngine(0), &cluster.nodeEngine(2));
  EXPECT_EQ(&cluster.nodeEngine(14), &cluster.nodeEngine(15));
}

// simShards == 0 is the one-domain partition of the same engine type:
// every node shares domain 0's engine, and the cluster clock is its clock.
TEST(PdesStackCluster, SerialAccessors) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.nodes = 4;
  cfg.fatTreeK = kFatTreeK;
  Cluster cluster(cfg);

  EXPECT_FALSE(cluster.sharded());
  sim::ShardedEngine& pdes = cluster.shardedEngine();
  EXPECT_EQ(pdes.domainCount(), 1u);
  EXPECT_EQ(pdes.shards(), 1u);
  for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
    EXPECT_EQ(&cluster.nodeEngine(i), &pdes.domainEngine(0)) << "node " << i;
  }
  cluster.run({[](NodeEnv& env) { env.self.advance(sim::usec(5)); }});
  EXPECT_EQ(cluster.now(), sim::usec(5));
  EXPECT_EQ(cluster.now(), cluster.nodeEngine(0).now());
}

// Attach, run, detach, run again: the detached run must record nothing
// more, on the one-domain partition (direct attach) and on the sharded
// one (per-domain span shadows, per-node trace shadows).
TEST(PdesStackCluster, DetachedTracerAndSpansRecordNothingMore) {
  for (std::uint32_t shards : {0u, 2u}) {
    ClusterConfig cfg;
    cfg.profile = nic::profileByName("clan");
    cfg.nodes = kNodes;
    cfg.fatTreeK = kFatTreeK;
    cfg.simShards = shards;
    Cluster cluster(cfg);
    sim::Tracer tracer(4096);
    tracer.enableAll();
    obs::SpanProfiler spans;
    cluster.setTracer(&tracer);
    cluster.setSpanProfiler(&spans);
    auto pingPong = [&](std::uint64_t disc) {
      Programs programs = idlePrograms();
      programs[0] = pingPongRequester(13, disc, 77, 4, 1024);
      programs[13] = pingPongResponder(13, disc, 77, 4, 1024);
      cluster.run(std::move(programs));
    };
    pingPong(kDisc);
    const std::uint64_t digest = tracer.digest();
    const std::uint64_t spanCount = spans.totalSpans();
    EXPECT_NE(digest, sim::Tracer::kDigestSeed) << "shards=" << shards;
    EXPECT_GT(spanCount, 0u) << "shards=" << shards;

    cluster.setTracer(nullptr);
    cluster.setSpanProfiler(nullptr);
    EXPECT_EQ(cluster.tracer(), nullptr);
    EXPECT_EQ(cluster.spanProfiler(), nullptr);
    const std::uint64_t fragsBefore = cluster.node(0).device().stats().fragsTx;
    pingPong(kDisc + 1);
    EXPECT_GT(cluster.node(0).device().stats().fragsTx, fragsBefore)
        << "the second run must carry traffic; shards=" << shards;
    EXPECT_EQ(tracer.digest(), digest) << "shards=" << shards;
    EXPECT_EQ(spans.totalSpans(), spanCount) << "shards=" << shards;
  }
}

// Clearing the sampler also removes the engine's boundary hook, so a
// later run neither samples nor reaches through the cleared pointer.
TEST(PdesStackCluster, ClearedSamplerIsNotDriven) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName("clan");
  cfg.nodes = 2;
  Cluster cluster(cfg);
  obs::TimeSeriesSampler sampler;
  cluster.setSampler(&sampler, sim::usec(1));
  cluster.setSampler(nullptr, 0);
  cluster.run({[](NodeEnv& env) { env.self.advance(sim::usec(5)); }});
  EXPECT_EQ(cluster.now(), sim::usec(5));
  EXPECT_EQ(sampler.windowCount(), 0u);
}

// The hop lookahead the Cluster derives is the floor of any cross-domain
// delivery: header serialization + propagation of the fabric link. A
// zero or negative lookahead would serialize the PDES windows entirely.
TEST(PdesStackCluster, DerivedLookaheadIsPositive) {
  const nic::NicProfile prof = nic::profileByName("clan");
  fabric::NetworkParams np;
  np.nodes = kNodes;
  np.fatTreeK = kFatTreeK;
  np.link.bandwidthMBps = prof.linkMBps;
  np.link.propagation = prof.linkPropagation;
  np.link.headerBytes = prof.linkHeaderBytes;
  np.trunk = np.link;
  const fabric::TopologySpec spec = fabric::Network::specFor(np);
  EXPECT_GT(fabric::hopLookahead(spec), 0);
  EXPECT_EQ(fabric::stackDomainCount(spec), 20u);
}

// Regression for the cross-domain audit: the per-switch forwarding
// counters are mutated from frame events in whatever domain the switch
// lives in. If any of those mutations ran in a foreign domain's window
// (instead of through the mailbox merge), counts would race — and under
// the lockstep schedule they would drift with the shard count. Streaming
// pushes multi-fragment traffic through every tier, so every counter is
// nonzero and engine-mode-sensitive if the conversion regressed.
TEST(PdesStackCounters, FabricCountersAreEngineModeInvariant) {
  struct FabricCounts {
    std::uint64_t dropped, corrupted, forwarded, viaRoot, bufDrops;
    std::uint32_t maxDepth;
    bool operator==(const FabricCounts&) const = default;
  };
  auto runOnce = [](std::uint32_t simShards) {
    ClusterConfig cfg;
    cfg.profile = nic::profileByName("clan");
    cfg.nodes = kNodes;
    cfg.fatTreeK = kFatTreeK;
    cfg.lossRate = 0.02;
    cfg.seed = 77;
    cfg.simShards = simShards;
    Cluster cluster(cfg);
    streamingWorkload(cluster, 77);
    fabric::Network& net = cluster.network();
    return FabricCounts{net.framesDropped(),      net.framesCorrupted(),
                        net.packetsForwarded(),   net.packetsViaRoot(),
                        net.switchBufferDrops(),  net.maxSwitchQueueDepth()};
  };
  const FabricCounts serial = runOnce(0);
  EXPECT_GT(serial.forwarded, 0u);
  EXPECT_GT(serial.dropped, 0u);  // 2% loss keeps the drop path hot
  for (std::uint32_t shards : {1u, 2u, 7u}) {
    const FabricCounts sharded = runOnce(shards);
    EXPECT_TRUE(serial == sharded) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace vibe
