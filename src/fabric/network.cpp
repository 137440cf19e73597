#include "fabric/network.hpp"

#include <memory>
#include <utility>

namespace vibe::fabric {

TopologySpec Network::specFor(const NetworkParams& p) {
  TopologySpec spec;
  if (p.fatTreeK != 0) {
    spec.kind = TopologyKind::FatTree;
  } else if (p.nodesPerSwitch != 0) {
    spec.kind = TopologyKind::TwoLevelTree;
  } else {
    spec.kind = TopologyKind::Star;
  }
  spec.nodes = p.nodes;
  spec.hostLink = p.link;
  spec.edgeLatency = p.switchLatency;
  spec.seed = p.seed;
  spec.nodesPerSwitch = p.nodesPerSwitch;
  spec.fabricLink = p.trunk;
  spec.coreLatency = p.rootSwitchLatency;
  spec.fatTreeK = p.fatTreeK;
  spec.portBufferFrames = p.switchBufferFrames;
  return spec;
}

Network::Network(sim::ShardedEngine& pdes, const NetworkParams& params)
    : params_(params), receivers_(params.nodes) {
  topo_ = std::make_unique<Topology>(
      pdes, specFor(params_), [this](NodeId n, Packet&& p) {
        if (!receivers_[n]) {
          throw sim::SimError("Network: no receiver registered for node " +
                              std::to_string(n));
        }
        receivers_[n](std::move(p));
      });
}

void Network::setReceiver(NodeId node, Receiver rx) {
  receivers_.at(node) = std::move(rx);
}

void Network::send(Packet&& p) {
  if (p.src >= params_.nodes || p.dst >= params_.nodes) {
    throw sim::SimError("Network::send: node id out of range");
  }
  if (p.src == p.dst) {
    throw sim::SimError("Network::send: wire loopback not supported");
  }
  topo_->inject(std::move(p));
}

Link& Network::trunkUp(std::uint32_t leaf) {
  if (leaf >= topo_->trunkCount()) {
    throw sim::SimError("Network::trunkUp: no trunk for leaf " +
                        std::to_string(leaf));
  }
  return topo_->trunkUp(leaf);
}

Link& Network::trunkDown(std::uint32_t leaf) {
  if (leaf >= topo_->trunkCount()) {
    throw sim::SimError("Network::trunkDown: no trunk for leaf " +
                        std::to_string(leaf));
  }
  return topo_->trunkDown(leaf);
}

std::uint32_t Network::leafOf(NodeId node) const {
  if (node >= params_.nodes) {
    throw sim::SimError("Network::leafOf: node id out of range");
  }
  return hierarchical() ? node / params_.nodesPerSwitch : 0;
}

}  // namespace vibe::fabric
