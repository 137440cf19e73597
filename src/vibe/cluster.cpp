#include "vibe/cluster.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "fabric/domain.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"

namespace vibe::suite {

namespace {

fabric::NetworkParams networkParams(const ClusterConfig& config) {
  fabric::NetworkParams np;
  np.nodes = config.nodes;
  np.link.bandwidthMBps = config.profile.linkMBps;
  np.link.propagation = config.profile.linkPropagation;
  np.link.headerBytes = config.profile.linkHeaderBytes;
  np.link.lossRate = config.lossRate;
  np.switchLatency = config.profile.switchLatency;
  np.seed = config.seed;
  if (config.nodesPerSwitch != 0 || config.fatTreeK != 0) {
    np.nodesPerSwitch = config.nodesPerSwitch;
    np.fatTreeK = config.fatTreeK;
    np.trunk = np.link;
    if (config.trunkMBps > 0.0) np.trunk.bandwidthMBps = config.trunkMBps;
    np.rootSwitchLatency = config.profile.switchLatency;
  }
  np.switchBufferFrames = config.switchBufferFrames;
  return np;
}

/// simShards == 0: one domain on one inline shard, the serial schedule.
/// Otherwise one domain per switch, windows bounded by the minimum
/// inter-switch hop (header serialization + propagation); every value
/// >= 1 runs the same per-domain schedules and only chooses how many
/// worker threads execute them.
sim::EngineConfig engineConfig(const ClusterConfig& config) {
  sim::EngineConfig ec;
  ec.shards = 1;
  if (config.simShards > 0) {
    const fabric::TopologySpec spec =
        fabric::Network::specFor(networkParams(config));
    ec.domains = fabric::stackDomainCount(spec);
    ec.lookahead = fabric::hopLookahead(spec);
    ec.shards = config.simShards;
  }
  return ec;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(config), pdes_(engineConfig(config)) {
  ns_ = std::make_shared<vipl::NameService>();
  net_ = std::make_unique<fabric::Network>(pdes_, networkParams(config_));

  providers_.reserve(config_.nodes);
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    providers_.push_back(std::make_unique<vipl::Provider>(
        nodeEngine(n), *net_, n, config_.profile, ns_,
        "node" + std::to_string(n)));
  }

  // Config-carried observability attachments (used by runners that build
  // the Cluster internally). All default to null = disabled.
  if (config_.tracer != nullptr) setTracer(config_.tracer);
  if (config_.spans != nullptr) setSpanProfiler(config_.spans);
  if (config_.metrics != nullptr) setMetricsRegistry(config_.metrics);
  if (config_.sampler != nullptr) {
    setSampler(config_.sampler, config_.samplePeriod);
  }
}

Cluster::~Cluster() = default;

sim::Engine& Cluster::nodeEngine(std::uint32_t i) {
  return pdes_.domainEngine(net_->topology().hostDomain(i));
}

void Cluster::setSampler(obs::TimeSeriesSampler* sampler,
                         sim::Duration period) {
  if (sampler == nullptr) {
    sampler_ = nullptr;
    pdes_.setBoundaryHook(0, nullptr);
    return;
  }
  if (period <= 0) {
    throw sim::SimError("Cluster::setSampler: samplePeriod must be > 0");
  }
  if (sampler_ != nullptr) {
    throw sim::SimError("Cluster::setSampler: a sampler is already set "
                        "(probes register once)");
  }
  sampler_ = sampler;
  samplePeriod_ = period;
  sampler_->setPeriod(period);
  // Every window end is clamped to the sample grid and the sampler
  // flushes at each window start, from the single-threaded barrier step,
  // where probes may safely read any domain's state.
  pdes_.setBoundaryHook(period, [this](sim::SimTime t) {
    sampler_->flushUntil(t);
  });
  // Aggregate probes: sums over nodes, so the series count stays O(1)
  // whether the cluster has 2 nodes or 1024. Probes only read.
  sampler_->addProbe("nic/tx_backlog", [this](sim::SimTime) {
    std::size_t n = 0;
    for (auto& p : providers_) n += p->device().txBacklog();
    return static_cast<double>(n);
  });
  sampler_->addProbe("nic/rx_backlog", [this](sim::SimTime) {
    std::size_t n = 0;
    for (auto& p : providers_) n += p->device().rxBacklog();
    return static_cast<double>(n);
  });
  sampler_->addProbe("nic/cq_depth", [this](sim::SimTime) {
    std::size_t n = 0;
    for (auto& p : providers_) n += p->cqDepthTotal();
    return static_cast<double>(n);
  });
  sampler_->addProbe("fabric/host_link_frames", [this](sim::SimTime at) {
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < config_.nodes; ++i) {
      n += net_->uplink(i).queuedFrames(at);
      n += net_->downlink(i).queuedFrames(at);
    }
    return static_cast<double>(n);
  });
  sampler_->addProbe("fabric/switch_queue_frames", [this](sim::SimTime at) {
    std::uint64_t n = 0;
    for (const auto& sw : net_->topology().switches()) {
      for (std::uint32_t i = 0; i < sw->portCount(); ++i) {
        const fabric::Switch::Port& port = sw->port(i);
        if (port.out != nullptr) n += port.out->queuedFrames(at);
      }
    }
    return static_cast<double>(n);
  });
  sampler_->addProbe("fabric/switch_buffer_drops", [this](sim::SimTime) {
    return static_cast<double>(net_->switchBufferDrops());
  });
}

void Cluster::setSpanProfiler(obs::SpanProfiler* spans) {
  spans_ = spans;
  shadowSpans_.clear();
  // One domain, or detach: every component emits straight into `spans`.
  // Otherwise per-domain shadows: each provider and switch emits into its
  // own domain's profiler (single-writer during a window); run() folds
  // them into the user profiler in domain order, which makes the merged
  // histograms and event buffer shard-count independent.
  fabric::Topology& topo = net_->topology();
  std::vector<obs::SpanProfiler*> byDomain(topo.domainCount(), spans);
  if (spans != nullptr && sharded()) {
    shadowSpans_.reserve(byDomain.size());
    for (obs::SpanProfiler*& slot : byDomain) {
      auto sp = std::make_unique<obs::SpanProfiler>();
      sp->setKeepEvents(true);  // mergeFrom copies events if the user keeps
      slot = sp.get();
      shadowSpans_.push_back(std::move(sp));
    }
  }
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    providers_[n]->setSpanProfiler(byDomain[topo.hostDomain(n)]);
  }
  topo.setDomainSpanProfilers(byDomain);
}

void Cluster::mergeShadowSpans() {
  if (spans_ == nullptr || shadowSpans_.empty()) return;
  for (auto& sp : shadowSpans_) {
    spans_->mergeFrom(*sp);
    sp->clear();  // repeated run() calls merge only the new spans
  }
}

void Cluster::publishStats() {
  if (metrics_ == nullptr) return;
  obs::MetricsRegistry& m = *metrics_;
  lastPublished_.resize(providers_.size());
  for (std::uint32_t n = 0; n < providers_.size(); ++n) {
    const nic::NicStats& s = providers_[n]->device().stats();
    nic::NicStats& prev = lastPublished_[n];
    const std::string scope = "node" + std::to_string(n);
    auto pub = [&](const char* name, std::uint64_t cur, std::uint64_t& last) {
      if (cur > last) {
        m.counter(obs::scoped(scope, name)).add(cur - last);
      }
      last = cur;
    };
    pub("nic.sends_posted", s.sendsPosted, prev.sendsPosted);
    pub("nic.recvs_posted", s.recvsPosted, prev.recvsPosted);
    pub("nic.frags_tx", s.fragsTx, prev.fragsTx);
    pub("nic.frags_rx", s.fragsRx, prev.fragsRx);
    pub("nic.bytes_tx", s.bytesTx, prev.bytesTx);
    pub("nic.bytes_rx", s.bytesRx, prev.bytesRx);
    pub("nic.acks_tx", s.acksTx, prev.acksTx);
    pub("nic.acks_rx", s.acksRx, prev.acksRx);
    pub("nic.retransmits", s.retransmits, prev.retransmits);
    pub("nic.rx_corrupted", s.rxCorrupted, prev.rxCorrupted);
    pub("nic.rx_dropped_no_descriptor", s.rxDroppedNoDescriptor,
        prev.rxDroppedNoDescriptor);
    pub("nic.rx_dropped_bad_endpoint", s.rxDroppedBadEndpoint,
        prev.rxDroppedBadEndpoint);
    pub("nic.rx_out_of_order_dropped", s.rxOutOfOrderDropped,
        prev.rxOutOfOrderDropped);
    pub("nic.protocol_errors", s.protocolErrors, prev.protocolErrors);
  }
  auto pubNet = [&](const char* name, std::uint64_t cur,
                    std::uint64_t& last) {
    if (cur > last) m.counter(obs::scoped("fabric", name)).add(cur - last);
    last = cur;
  };
  pubNet("frames_dropped", net_->framesDropped(), lastFramesDropped_);
  pubNet("frames_corrupted", net_->framesCorrupted(), lastFramesCorrupted_);
  pubNet("packets_forwarded", net_->packetsForwarded(), lastForwarded_);
  pubNet("switch_buffer_drops", net_->switchBufferDrops(), lastSwitchDrops_);
  // Per-switch congestion stats appear only when a finite buffer actually
  // queued or dropped something, so metric dumps for the star/tree
  // configurations (which never do) are unchanged.
  if (net_->maxSwitchQueueDepth() > 0) {
    m.gauge(obs::scoped("fabric", "switch_queue_depth_max"))
        .set(net_->maxSwitchQueueDepth());
    for (const auto& sw : net_->topology().switches()) {
      if (sw->bufferDrops() == 0 && sw->maxQueueDepth() == 0) continue;
      const std::string scope = "fabric." + sw->name();
      if (sw->bufferDrops() > 0) {
        // Delta against the counter's own value: switch names are unique
        // within a cluster, so the counter mirrors the lifetime total.
        auto& c = m.counter(obs::scoped(scope, "buffer_drops"));
        if (sw->bufferDrops() > c.value()) c.add(sw->bufferDrops() - c.value());
      }
      m.gauge(obs::scoped(scope, "queue_depth_max")).set(sw->maxQueueDepth());
    }
  }
}

void Cluster::setTracer(sim::Tracer* tracer) {
  tracer_ = tracer;
  shadowTracers_.clear();
  shadowTraceLogs_.clear();
  // One domain records straight into the user tracer, so its record order
  // is execution order (golden churn digests pin that order).
  if (tracer == nullptr || !sharded()) {
    for (auto& p : providers_) p->device().setTracer(tracer);
    return;
  }
  // Per-node shadows record everything (the user tracer's enablement is
  // applied at replay, so late enable() calls still work) into per-node
  // logs that stay single-writer inside the node's domain.
  shadowTracers_.clear();
  shadowTraceLogs_.assign(config_.nodes, {});
  shadowTracers_.reserve(config_.nodes);
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    auto shadow = std::make_unique<sim::Tracer>(/*capacity=*/1);
    shadow->enableAll();
    auto* log = &shadowTraceLogs_[n];
    shadow->setSink([log](const sim::TraceRecord& r) { log->push_back(r); });
    providers_[n]->device().setTracer(shadow.get());
    shadowTracers_.push_back(std::move(shadow));
  }
}

void Cluster::replayShadowTraces() {
  if (tracer_ == nullptr || shadowTraceLogs_.empty()) return;
  // Node-major concatenation + stable sort by time = (time, node, record
  // index) order: each node's log is already time-ordered, so the merged
  // interleaving depends only on the simulation, never the shard count.
  std::vector<const sim::TraceRecord*> merged;
  std::size_t total = 0;
  for (const auto& log : shadowTraceLogs_) total += log.size();
  merged.reserve(total);
  for (const auto& log : shadowTraceLogs_) {
    for (const sim::TraceRecord& r : log) merged.push_back(&r);
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const sim::TraceRecord* a, const sim::TraceRecord* b) {
                     return a->time < b->time;
                   });
  for (const sim::TraceRecord* r : merged) {
    if (tracer_->enabled(r->category)) {
      tracer_->record(r->time, r->category, r->component, r->message);
    }
  }
  for (auto& log : shadowTraceLogs_) log.clear();
}

void Cluster::run(std::vector<std::function<void(NodeEnv&)>> programs) {
  if (programs.size() > config_.nodes) {
    throw sim::SimError("Cluster::run: more programs than nodes");
  }
  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.reserve(programs.size());
  for (std::uint32_t i = 0; i < programs.size(); ++i) {
    if (!programs[i]) continue;
    procs.push_back(std::make_unique<sim::Process>(
        nodeEngine(i), "node" + std::to_string(i),
        [this, i, fn = std::move(programs[i])] {
          sim::Engine& eng = nodeEngine(i);
          NodeEnv env{i, *providers_[i], *eng.currentProcess(), eng};
          fn(env);
          // The program's stack frames (and any descriptors on them) are
          // dead once fn returns; abandon its pending work so completions
          // still in flight do not write through dangling pointers.
          providers_[i]->quiesce();
        }));
  }
  try {
    pdes_.run();
  } catch (...) {
    // Deadlock/error dumps still want the trace: replay whatever the
    // shadows captured before rethrowing.
    replayShadowTraces();
    throw;
  }
  if (sampler_ != nullptr) {
    // Capture remaining whole boundaries up to the drain time, so the
    // timeline's tail does not depend on whether a final event happened
    // to land past the last boundary.
    sampler_->flushUntil(pdes_.maxNow());
  }
  replayShadowTraces();
  mergeShadowSpans();
  publishStats();
}

}  // namespace vibe::suite
