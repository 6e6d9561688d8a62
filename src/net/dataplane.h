// Controller-vs-dataplane divergence tracking for the grey-failure model.
//
// The controller's INTENDED state is the network's placement table (a flow's
// rules live on every non-host node of its path). The switches' APPLIED
// state can silently lag it: an ack-lie never applies the rule, a straggler
// applies it late, a rule loss evicts it after the fact. Rather than mirror
// the full applied rule table (O(flows x diameter), and redundant — applied
// state equals intended state almost everywhere), DataplaneState stores only
// the DIVERGENCE: the sparse set of (switch, flow) rules whose applied state
// differs from intent, with the cause and the time divergence began.
//
// Rule lifecycle (docs/model.md §16): issued -> acked -> applied ->
// verified. Every issue is acked (grey switches lie rather than reject —
// loud rejection is the flaky-install model's job); a rule is applied when
// the switch actually holds it, and verified once a reconcile pass has
// confirmed it. Divergence entries are exactly the issued-but-not-applied
// (or applied-then-evicted) rules.
//
// Everything here is plain deterministic bookkeeping: std::map keyed by raw
// ids so iteration order is canonical, which keeps reconcile passes (and the
// RNG draws they make) bit-identical across runs, snapshots, and shard
// counts.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/binio.h"
#include "common/types.h"

namespace nu::net {

/// Why a rule's applied state diverges from intent.
enum class RuleFault : std::uint8_t { kAckLie, kStraggler, kRuleLoss };

[[nodiscard]] const char* ToString(RuleFault cause);

/// One divergent rule on one switch.
struct DivergentRule {
  RuleFault cause = RuleFault::kAckLie;
  /// Virtual time the divergence began (issue time for lies/stragglers,
  /// eviction time for losses) — repair latency is measured from here.
  Seconds since = 0.0;
  /// True once a reconcile pass has observed this entry (read-back
  /// detection); only detected entries are repaired.
  bool detected = false;
  /// True while a straggler apply (original or repair re-issue) is
  /// scheduled to land; the reconciler does not re-issue a rule that is
  /// already in flight.
  bool pending_apply = false;
  /// Repair re-issues attempted so far.
  std::uint32_t repair_attempts = 0;
  /// True once the reconciler has given up (attempt budget exhausted).
  /// Abandoned rules stay divergent but no longer gate run drain — they
  /// are reported as residual drift instead of looping forever.
  bool abandoned = false;
};

/// Sparse divergence set with a per-flow reverse index. All mutators keep
/// the two maps consistent; iteration is ascending (switch, flow).
class DataplaneState {
 public:
  /// Records that `flow`'s rule on `node` is divergent. No-op if an entry
  /// already exists (first cause wins — a rule can't diverge twice without
  /// being repaired in between). Returns true when a new entry was added.
  bool AddDivergence(NodeId node, FlowId flow, RuleFault cause, Seconds now);

  /// Removes the entry (the applied state caught up with intent: straggler
  /// landed, repair succeeded). Returns the removed entry, or nullptr-like
  /// false if none existed.
  bool Resolve(NodeId node, FlowId flow);

  [[nodiscard]] bool IsDivergent(NodeId node, FlowId flow) const;
  [[nodiscard]] const DivergentRule* Find(NodeId node, FlowId flow) const;

  // Entry mutators (all no-ops on a missing entry). Abandonment must go
  // through MarkAbandoned so the active/abandoned counters stay exact.
  void MarkDetected(NodeId node, FlowId flow);
  void SetPendingApply(NodeId node, FlowId flow, bool pending);
  /// Increments and returns the entry's repair attempt count (0 if the
  /// entry does not exist).
  std::uint32_t RecordRepairAttempt(NodeId node, FlowId flow);
  void MarkAbandoned(NodeId node, FlowId flow);

  /// Drops every entry of `flow` (the flow left the network; intent is
  /// gone, so there is nothing to diverge from).
  void DropFlow(FlowId flow);

  /// Drops every entry on `node` (the switch was quarantined and drained;
  /// its residual drift is excused by the explicit quarantine).
  void DropNode(NodeId node);

  /// Entries whose divergence is still live, i.e. not abandoned. This is
  /// the quantity the simulator drains to zero before a grey run may end.
  [[nodiscard]] std::size_t active_count() const { return active_; }
  /// Abandoned entries (attempt budget exhausted; reported as residual).
  [[nodiscard]] std::size_t abandoned_count() const { return abandoned_; }
  [[nodiscard]] std::size_t total_count() const { return active_ + abandoned_; }
  [[nodiscard]] bool empty() const { return total_count() == 0; }

  /// Ascending switch ids that currently hold divergent rules.
  [[nodiscard]] std::vector<NodeId> DriftingNodes() const;

  /// Ascending flow ids divergent on `node`.
  [[nodiscard]] std::vector<FlowId> DivergentFlowsOn(NodeId node) const;

  /// Visits every entry in ascending (switch, flow) order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [node, rules] : by_node_) {
      for (const auto& [flow, entry] : rules) {
        fn(NodeId{node}, FlowId{flow}, entry);
      }
    }
  }

  /// The entries in ascending (switch, flow) order. LoadState rebuilds the
  /// per-flow index and the counters, and throws CorruptInput on a bad
  /// cause, a repeated switch or rule, or a switch without rules.
  void SaveState(BinWriter& w) const;
  void LoadState(BinReader& r);

  friend bool operator==(const DataplaneState& a, const DataplaneState& b);

 private:
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);
  void Account(const DivergentRule& entry, int delta);

  std::map<NodeId::rep_type, std::map<FlowId::rep_type, DivergentRule>>
      by_node_;
  std::map<FlowId::rep_type, std::vector<NodeId::rep_type>> by_flow_;
  std::size_t active_ = 0;
  std::size_t abandoned_ = 0;
};

}  // namespace nu::net
