#include "net/dataplane.h"

#include <algorithm>
#include <tuple>

#include "common/check.h"

namespace nu::net {

const char* ToString(RuleFault cause) {
  switch (cause) {
    case RuleFault::kAckLie:
      return "ack-lie";
    case RuleFault::kStraggler:
      return "straggler";
    case RuleFault::kRuleLoss:
      return "rule-loss";
  }
  return "?";
}

void DataplaneState::Account(const DivergentRule& entry, int delta) {
  std::size_t& bucket = entry.abandoned ? abandoned_ : active_;
  if (delta > 0) {
    bucket += static_cast<std::size_t>(delta);
  } else {
    NU_CHECK(bucket >= static_cast<std::size_t>(-delta));
    bucket -= static_cast<std::size_t>(-delta);
  }
}

bool DataplaneState::AddDivergence(NodeId node, FlowId flow, RuleFault cause,
                                   Seconds now) {
  auto& rules = by_node_[node.value()];
  auto [it, inserted] = rules.try_emplace(flow.value());
  if (!inserted) return false;
  it->second.cause = cause;
  it->second.since = now;
  Account(it->second, +1);
  auto& nodes = by_flow_[flow.value()];
  const auto pos = std::lower_bound(nodes.begin(), nodes.end(), node.value());
  nodes.insert(pos, node.value());
  return true;
}

bool DataplaneState::Resolve(NodeId node, FlowId flow) {
  const auto node_it = by_node_.find(node.value());
  if (node_it == by_node_.end()) return false;
  const auto rule_it = node_it->second.find(flow.value());
  if (rule_it == node_it->second.end()) return false;
  Account(rule_it->second, -1);
  node_it->second.erase(rule_it);
  if (node_it->second.empty()) by_node_.erase(node_it);
  const auto flow_it = by_flow_.find(flow.value());
  NU_CHECK(flow_it != by_flow_.end());
  auto& nodes = flow_it->second;
  nodes.erase(std::find(nodes.begin(), nodes.end(), node.value()));
  if (nodes.empty()) by_flow_.erase(flow_it);
  return true;
}

bool DataplaneState::IsDivergent(NodeId node, FlowId flow) const {
  return Find(node, flow) != nullptr;
}

const DivergentRule* DataplaneState::Find(NodeId node, FlowId flow) const {
  const auto node_it = by_node_.find(node.value());
  if (node_it == by_node_.end()) return nullptr;
  const auto rule_it = node_it->second.find(flow.value());
  if (rule_it == node_it->second.end()) return nullptr;
  return &rule_it->second;
}

void DataplaneState::MarkDetected(NodeId node, FlowId flow) {
  auto* entry = const_cast<DivergentRule*>(Find(node, flow));
  if (entry != nullptr) entry->detected = true;
}

void DataplaneState::SetPendingApply(NodeId node, FlowId flow, bool pending) {
  auto* entry = const_cast<DivergentRule*>(Find(node, flow));
  if (entry != nullptr) entry->pending_apply = pending;
}

std::uint32_t DataplaneState::RecordRepairAttempt(NodeId node, FlowId flow) {
  auto* entry = const_cast<DivergentRule*>(Find(node, flow));
  if (entry == nullptr) return 0;
  return ++entry->repair_attempts;
}

void DataplaneState::MarkAbandoned(NodeId node, FlowId flow) {
  auto* entry = const_cast<DivergentRule*>(Find(node, flow));
  if (entry == nullptr || entry->abandoned) return;
  Account(*entry, -1);
  entry->abandoned = true;
  Account(*entry, +1);
}

void DataplaneState::DropFlow(FlowId flow) {
  const auto flow_it = by_flow_.find(flow.value());
  if (flow_it == by_flow_.end()) return;
  for (const NodeId::rep_type node : flow_it->second) {
    const auto node_it = by_node_.find(node);
    NU_CHECK(node_it != by_node_.end());
    const auto rule_it = node_it->second.find(flow.value());
    NU_CHECK(rule_it != node_it->second.end());
    Account(rule_it->second, -1);
    node_it->second.erase(rule_it);
    if (node_it->second.empty()) by_node_.erase(node_it);
  }
  by_flow_.erase(flow_it);
}

void DataplaneState::DropNode(NodeId node) {
  const auto node_it = by_node_.find(node.value());
  if (node_it == by_node_.end()) return;
  for (const auto& [flow, entry] : node_it->second) {
    Account(entry, -1);
    const auto flow_it = by_flow_.find(flow);
    NU_CHECK(flow_it != by_flow_.end());
    auto& nodes = flow_it->second;
    nodes.erase(std::find(nodes.begin(), nodes.end(), node.value()));
    if (nodes.empty()) by_flow_.erase(flow_it);
  }
  by_node_.erase(node_it);
}

std::vector<NodeId> DataplaneState::DriftingNodes() const {
  std::vector<NodeId> out;
  out.reserve(by_node_.size());
  for (const auto& [node, rules] : by_node_) out.push_back(NodeId{node});
  return out;
}

std::vector<FlowId> DataplaneState::DivergentFlowsOn(NodeId node) const {
  std::vector<FlowId> out;
  const auto node_it = by_node_.find(node.value());
  if (node_it == by_node_.end()) return out;
  out.reserve(node_it->second.size());
  for (const auto& [flow, entry] : node_it->second) out.push_back(FlowId{flow});
  return out;
}

template <typename Ar, typename Self>
void DataplaneState::Section(Ar& ar, Self& self) {
  ar.Seq(self.by_node_, [](Ar& a, auto& node) {
    a.U32(node.first);
    a.Seq(node.second, [](Ar& b, auto& rule) {
      b.U64(rule.first);
      auto& entry = rule.second;
      b.Enum(entry.cause, RuleFault::kRuleLoss);
      b.F64(entry.since);
      b.Bool(entry.detected, entry.pending_apply);
      b.U32(entry.repair_attempts);
      b.Bool(entry.abandoned);
    });
    a.Check(!node.second.empty(), "switch without divergent rules");
  });
  if constexpr (Ar::kLoading) {
    // Derived from the entries: rebuilt, never written.
    self.by_flow_.clear();
    self.active_ = 0;
    self.abandoned_ = 0;
    for (const auto& [node, rules] : self.by_node_) {
      for (const auto& [flow, entry] : rules) {
        self.Account(entry, +1);
        self.by_flow_[flow].push_back(node);  // ascending: nodes come in order
      }
    }
  }
}

void DataplaneState::SaveState(BinWriter& w) const { Section(w, *this); }
void DataplaneState::LoadState(BinReader& r) { Section(r, *this); }

bool operator==(const DataplaneState& a, const DataplaneState& b) {
  auto tie = [](const DivergentRule& e) {
    return std::tuple(e.cause, e.since, e.detected, e.pending_apply,
                      e.repair_attempts, e.abandoned);
  };
  if (a.by_node_.size() != b.by_node_.size()) return false;
  auto ia = a.by_node_.begin();
  auto ib = b.by_node_.begin();
  for (; ia != a.by_node_.end(); ++ia, ++ib) {
    if (ia->first != ib->first) return false;
    if (ia->second.size() != ib->second.size()) return false;
    auto ja = ia->second.begin();
    auto jb = ib->second.begin();
    for (; ja != ia->second.end(); ++ja, ++jb) {
      if (ja->first != jb->first || tie(ja->second) != tie(jb->second)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace nu::net
