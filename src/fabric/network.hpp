// SAN fabric facade.
//
// `Network` is the endpoint-facing surface of the fabric: NICs register
// receivers and inject packets here, and fault/stat consumers reach links
// through it. The actual wiring — switches, routing tables, links — lives
// in the topology layer (fabric/topology.hpp); Network translates its
// params into a TopologySpec and delegates.
//
// Three topologies, selected by NetworkParams:
//
//   Star (default)      every host on one crossbar switch through a
//                       full-duplex link pair — the paper's testbeds
//                       (Myrinet, Gigabit Ethernet, cLAN5000 switches
//                       wiring a handful of PCs).
//   Two-level tree      `nodesPerSwitch > 0`: hosts on leaf switches,
//                       leaves on one root through shared trunk links.
//                       Cross-leaf traffic pays two extra link traversals
//                       plus the root's forwarding latency, and trunks are
//                       shared — the way a real multi-switch SAN
//                       oversubscribes.
//   k-ary fat-tree      `fatTreeK > 0` (even): a folded-Clos fabric with
//                       k pods, (k/2)^2 cores, up to k^3/4 hosts, and
//                       deterministic ECMP across the (k/2)^2 equal-cost
//                       inter-pod paths. `switchBufferFrames` bounds each
//                       switch port's output buffer (tail drop); 0 keeps
//                       the unbounded legacy wire.
//
// Star and tree behavior is byte-identical to the pre-topology Network:
// same link names and seed derivation, same event structure, same span
// and counter semantics. See docs/FABRIC.md for the determinism contract.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fabric/link.hpp"
#include "fabric/packet.hpp"
#include "fabric/topology.hpp"
#include "simcore/engine.hpp"

namespace vibe::fabric {

struct NetworkParams {
  std::uint32_t nodes = 2;
  LinkParams link;                      // applied to every host<->switch link
  sim::Duration switchLatency = 0;      // fixed cut-through forwarding delay
  std::uint64_t seed = 1;               // base seed; links derive from it

  // Two-level tree (0 = flat star). Hosts [k*nodesPerSwitch, ...) share
  // leaf switch k; leaves connect to a root switch via trunk links.
  std::uint32_t nodesPerSwitch = 0;
  LinkParams trunk;                     // inter-switch links (tree/fat-tree)
  sim::Duration rootSwitchLatency = 0;  // root / aggr / core forwarding

  // k-ary fat-tree (0 = star or tree above). Takes precedence over
  // nodesPerSwitch; k must be even and nodes <= k^3/4.
  std::uint32_t fatTreeK = 0;
  // Finite per-port switch output buffers, in frames (0 = unbounded).
  std::uint32_t switchBufferFrames = 0;
};

class Network {
 public:
  using Receiver = std::function<void(Packet&&)>;

  /// Builds the topology on `pdes`: one domain runs the whole fabric on
  /// domainEngine(0); otherwise size the engine with
  /// stackDomainCount(specFor(params)), one domain per switch. See the
  /// Topology ctor for the placement and lookahead contract.
  Network(sim::ShardedEngine& pdes, const NetworkParams& params);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The TopologySpec these params translate to — the single source of
  /// truth shared by the ctor and by callers that need to derive
  /// domain partitions or lookahead bounds before construction.
  static TopologySpec specFor(const NetworkParams& params);

  std::uint32_t nodeCount() const { return params_.nodes; }

  /// Registers the NIC RX handler for a node.
  void setReceiver(NodeId node, Receiver rx);

  /// Injects a packet from its source node's uplink. The destination must
  /// be a valid node other than the source (no loopback on the wire).
  void send(Packet&& p);

  /// Per-node links, exposed for failure injection and utilization stats.
  Link& uplink(NodeId node) { return topo_->hostUplink(node); }
  Link& downlink(NodeId node) { return topo_->hostDownlink(node); }

  /// Shared leaf<->root trunk links (two-level tree only), exposed for
  /// fault injection — the links most worth failing are the shared ones.
  /// Throws on a flat star or out-of-range leaf index.
  Link& trunkUp(std::uint32_t leaf);
  Link& trunkDown(std::uint32_t leaf);
  std::uint32_t trunkCount() const { return topo_->trunkCount(); }

  /// Frames dropped / corrupted summed across every link in the topology
  /// (host links, trunks, and fat-tree fabric links).
  std::uint64_t framesDropped() const { return topo_->framesDropped(); }
  std::uint64_t framesCorrupted() const { return topo_->framesCorrupted(); }
  /// Frames tail-dropped at finite switch output buffers (fat-tree with
  /// switchBufferFrames > 0; always 0 otherwise).
  std::uint64_t switchBufferDrops() const {
    return topo_->switchBufferDrops();
  }
  /// Deepest switch output-buffer occupancy seen anywhere, in frames.
  std::uint32_t maxSwitchQueueDepth() const { return topo_->maxQueueDepth(); }

  /// Packets forwarded by their host-ingress switch: one count per packet
  /// that entered the fabric.
  std::uint64_t packetsForwarded() const {
    return topo_->hostIngressForwards();
  }
  /// Packets that crossed a Core-tier switch (the tree root, or a
  /// fat-tree core on the inter-pod path).
  std::uint64_t packetsViaRoot() const { return topo_->coreForwards(); }

  bool hierarchical() const { return params_.nodesPerSwitch != 0; }
  bool fatTree() const { return params_.fatTreeK != 0; }

  /// Leaf switch index of a node (two-level tree; 0 on a star). Throws on
  /// out-of-range ids — same guard as send() — instead of silently
  /// computing a bogus leaf.
  std::uint32_t leafOf(NodeId node) const;

  /// The underlying topology graph (switch stats, fabric links).
  Topology& topology() { return *topo_; }
  const Topology& topology() const { return *topo_; }

 private:
  NetworkParams params_;
  std::vector<Receiver> receivers_;
  std::unique_ptr<Topology> topo_;
};

}  // namespace vibe::fabric
