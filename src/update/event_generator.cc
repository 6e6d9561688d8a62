#include "update/event_generator.h"

#include <algorithm>

#include "common/check.h"

namespace nu::update {

EventGenerator::EventGenerator(trace::TrafficGenerator& flow_source, Rng rng)
    : flow_source_(flow_source), rng_(rng) {}

UpdateEvent EventGenerator::Next(Seconds arrival_time,
                                 const SyntheticEventConfig& config) {
  NU_EXPECTS(config.min_flows >= 1);
  NU_EXPECTS(config.max_flows >= config.min_flows);
  const auto flow_count = static_cast<std::size_t>(
      rng_.UniformInt(static_cast<std::int64_t>(config.min_flows),
                      static_cast<std::int64_t>(config.max_flows)));
  std::vector<flow::Flow> flows;
  flows.reserve(flow_count);
  for (std::size_t i = 0; i < flow_count; ++i) {
    const trace::FlowSpec spec = flow_source_.Next();
    flow::Flow f;
    f.src = spec.src;
    f.dst = spec.dst;
    f.demand = spec.demand;
    f.duration = spec.duration;
    flows.push_back(std::move(f));
  }
  return UpdateEvent(EventId{next_id_++}, arrival_time, std::move(flows),
                     config.kind);
}

std::vector<UpdateEvent> EventGenerator::Batch(
    std::size_t count, const SyntheticEventConfig& config,
    Seconds mean_interarrival) {
  std::vector<UpdateEvent> events;
  events.reserve(count);
  Seconds t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    events.push_back(Next(t, config));
    if (mean_interarrival > 0.0) {
      t += rng_.Exponential(1.0 / mean_interarrival);
    }
  }
  return events;
}

std::vector<FlowId> FlowsThroughNode(const net::Network& network,
                                     NodeId node) {
  std::vector<FlowId> result;
  for (LinkId lid : network.graph().OutLinks(node)) {
    for (std::uint32_t rep : network.LinkFlowIds(lid)) {
      result.push_back(FlowId{rep});
    }
  }
  for (LinkId lid : network.graph().InLinks(node)) {
    for (std::uint32_t rep : network.LinkFlowIds(lid)) {
      result.push_back(FlowId{rep});
    }
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

UpdateEvent MakeSwitchUpgradeEvent(EventId id, Seconds arrival_time,
                                   const net::Network& network,
                                   NodeId switch_node) {
  const std::vector<FlowId> affected = FlowsThroughNode(network, switch_node);
  NU_EXPECTS(!affected.empty());
  std::vector<flow::Flow> replacements;
  replacements.reserve(affected.size());
  for (FlowId fid : affected) {
    const flow::Flow& original = network.FlowOf(fid);
    flow::Flow replacement;
    replacement.src = original.src;
    replacement.dst = original.dst;
    replacement.demand = original.demand;
    replacement.duration = original.duration;
    replacements.push_back(std::move(replacement));
  }
  return UpdateEvent(id, arrival_time, std::move(replacements),
                     EventKind::kSwitchUpgrade);
}

void RemoveFlows(net::Network& network, const std::vector<FlowId>& flows) {
  for (FlowId fid : flows) network.Remove(fid);
}

std::vector<FlowId> FlowsThroughLink(const net::Network& network,
                                     LinkId link) {
  std::vector<FlowId> result;
  const topo::Link& l = network.graph().link(link);
  const LinkId reverse = network.graph().FindLink(l.dst, l.src);
  for (const LinkId lid : {link, reverse}) {
    if (!lid.valid()) continue;
    for (std::uint32_t rep : network.LinkFlowIds(lid)) {
      result.push_back(FlowId{rep});
    }
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

UpdateEvent MakeLinkFailureEvent(EventId id, Seconds arrival_time,
                                 const net::Network& network,
                                 LinkId failed_link) {
  const std::vector<FlowId> affected = FlowsThroughLink(network, failed_link);
  NU_EXPECTS(!affected.empty());
  std::vector<flow::Flow> replacements;
  replacements.reserve(affected.size());
  for (FlowId fid : affected) {
    const flow::Flow& original = network.FlowOf(fid);
    flow::Flow replacement;
    replacement.src = original.src;
    replacement.dst = original.dst;
    replacement.demand = original.demand;
    replacement.duration = original.duration;
    replacements.push_back(std::move(replacement));
  }
  return UpdateEvent(id, arrival_time, std::move(replacements),
                     EventKind::kFailureReroute);
}

UpdateEvent MakeSwitchFailureEvent(EventId id, Seconds arrival_time,
                                   const net::Network& network,
                                   NodeId failed_node) {
  const std::vector<FlowId> affected = FlowsThroughNode(network, failed_node);
  NU_EXPECTS(!affected.empty());
  std::vector<flow::Flow> replacements;
  replacements.reserve(affected.size());
  for (FlowId fid : affected) {
    const flow::Flow& original = network.FlowOf(fid);
    flow::Flow replacement;
    replacement.src = original.src;
    replacement.dst = original.dst;
    replacement.demand = original.demand;
    replacement.duration = original.duration;
    replacements.push_back(std::move(replacement));
  }
  return UpdateEvent(id, arrival_time, std::move(replacements),
                     EventKind::kFailureReroute);
}

UpdateEvent MakeVmMigrationEvent(EventId id, Seconds arrival_time,
                                 NodeId old_host, NodeId new_host,
                                 const VmMigrationConfig& config) {
  NU_EXPECTS(config.streams >= 1);
  NU_EXPECTS(config.stream_demand > 0.0);
  NU_EXPECTS(config.vm_volume > 0.0);
  NU_EXPECTS(old_host != new_host);
  const Seconds duration =
      config.vm_volume /
      (config.stream_demand * static_cast<double>(config.streams));
  std::vector<flow::Flow> streams;
  streams.reserve(config.streams);
  for (std::size_t i = 0; i < config.streams; ++i) {
    flow::Flow f;
    f.src = old_host;
    f.dst = new_host;
    f.demand = config.stream_demand;
    f.duration = duration;
    streams.push_back(std::move(f));
  }
  return UpdateEvent(id, arrival_time, std::move(streams),
                     EventKind::kVmMigration);
}

}  // namespace nu::update
