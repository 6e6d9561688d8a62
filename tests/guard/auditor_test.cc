// Runtime invariant auditor: clean states pass, deliberately corrupted
// states (overcommitted links, blackholed paths, malformed paths, broken
// event conservation) are detected — throwing in fail-fast mode, counting
// in log-and-count mode — and the per-path memo never outlives what it
// describes.
#include "guard/auditor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/binio.h"
#include "support/network_payload.h"

namespace nu::guard {
namespace {

struct Fixture {
  Fixture() {
    a = graph.AddNode(topo::NodeRole::kHost);
    b = graph.AddNode(topo::NodeRole::kHost);
    graph.AddBidirectional(a, b, 100.0);
    network.emplace(graph);
  }

  [[nodiscard]] topo::Path AbPath() const {
    const std::array<NodeId, 2> seq{a, b};
    return graph.MakePath(seq);
  }

  /// Replaces the network's state with one flow a -> b placed verbatim on
  /// `path` (interned into the network's existing registry).
  void LoadCrafted(const topo::Path& path) {
    const test_support::CraftedPlacement placed{MakeFlow(10.0), path};
    const std::string payload =
        test_support::NetworkPayload(graph, {&placed, 1});
    BinReader r(payload);
    network->LoadState(r);
  }

  [[nodiscard]] flow::Flow MakeFlow(Mbps demand) const {
    flow::Flow f;
    f.src = a;
    f.dst = b;
    f.demand = demand;
    f.duration = 1.0;
    return f;
  }

  topo::Graph graph;
  NodeId a, b;
  std::optional<net::Network> network;
};

AuditorConfig Mode(AuditMode mode) {
  AuditorConfig config;
  config.enabled = true;
  config.mode = mode;
  return config;
}

/// Accounting where every arrived event sits in a legal bucket.
QueueAccounting Balanced() {
  QueueAccounting acct;
  acct.arrived = 3;
  acct.queued = 1;
  acct.completed = 1;
  acct.shed = 1;
  return acct;
}

TEST(AuditorTest, CleanStatePassesBothModes) {
  Fixture fx;
  fx.network->Place(fx.MakeFlow(60.0), fx.AbPath());
  for (const auto mode : {AuditMode::kLogAndCount, AuditMode::kFailFast}) {
    Auditor auditor(Mode(mode));
    EXPECT_EQ(auditor.Audit(*fx.network, Balanced()), 0u);
    EXPECT_EQ(auditor.audits_run(), 1u);
    EXPECT_TRUE(auditor.violations().empty());
  }
}

TEST(AuditorTest, FailFastThrowsOnOvercommittedLink) {
  // Deliberate corruption: force-place past capacity without the simulator
  // reporting a forced placement — the auditor must fire.
  Fixture fx;
  fx.network->ForcePlace(fx.MakeFlow(150.0), fx.AbPath());
  Auditor auditor(Mode(AuditMode::kFailFast));
  try {
    (void)auditor.Audit(*fx.network, Balanced());
    FAIL() << "expected AuditFailure";
  } catch (const AuditFailure& failure) {
    EXPECT_EQ(failure.violation().invariant, "capacity");
    EXPECT_NE(std::string(failure.what()).find("capacity"),
              std::string::npos);
  }
}

TEST(AuditorTest, LogAndCountSurvivesOvercommittedLink) {
  Fixture fx;
  fx.network->ForcePlace(fx.MakeFlow(150.0), fx.AbPath());
  Auditor auditor(Mode(AuditMode::kLogAndCount));
  // Overcommit is two capacity violations (reserved > capacity, negative
  // residual) on the a->b direction.
  EXPECT_EQ(auditor.Audit(*fx.network, Balanced()), 2u);
  EXPECT_EQ(auditor.violations().size(), 2u);
  for (const AuditViolation& v : auditor.violations()) {
    EXPECT_EQ(v.invariant, "capacity");
  }
}

TEST(AuditorTest, ForcedPlacementsRelaxCapacityChecks) {
  // When the simulator itself reports deadlock-breaking forced placements,
  // the resulting overcommit is expected and must not count as corruption.
  Fixture fx;
  fx.network->ForcePlace(fx.MakeFlow(150.0), fx.AbPath());
  Auditor auditor(Mode(AuditMode::kFailFast));
  EXPECT_EQ(auditor.Audit(*fx.network, Balanced(), /*forced_placements=*/1),
            0u);
}

TEST(AuditorTest, DetectsBlackholeThroughDownLink) {
  // Deliberate corruption: a placed flow's path crosses a link that went
  // down without the fault layer removing the flow.
  Fixture fx;
  fx.network->Place(fx.MakeFlow(40.0), fx.AbPath());
  fx.network->SetLinkUp(fx.AbPath().links[0], false);

  Auditor counting(Mode(AuditMode::kLogAndCount));
  EXPECT_EQ(counting.Audit(*fx.network, Balanced()), 1u);
  EXPECT_EQ(counting.violations()[0].invariant, "coherence");

  Auditor failing(Mode(AuditMode::kFailFast));
  EXPECT_THROW((void)failing.Audit(*fx.network, Balanced()), AuditFailure);
}

TEST(AuditorTest, DetectsEventConservationLeak) {
  Fixture fx;
  QueueAccounting acct;
  acct.arrived = 5;
  acct.completed = 2;
  acct.shed = 1;  // two events unaccounted for
  Auditor auditor(Mode(AuditMode::kLogAndCount));
  EXPECT_EQ(auditor.Audit(*fx.network, acct), 1u);
  EXPECT_EQ(auditor.violations()[0].invariant, "accounting");
}

TEST(AuditorTest, DetectsQueueBoundOverflow) {
  Fixture fx;
  QueueAccounting acct;
  acct.arrived = 5;
  acct.queued = 5;
  acct.queue_capacity = 3;
  Auditor auditor(Mode(AuditMode::kLogAndCount));
  EXPECT_EQ(auditor.Audit(*fx.network, acct), 1u);
  EXPECT_EQ(auditor.violations()[0].invariant, "accounting");
}

TEST(AuditorTest, ViolationsCarryRoundAndTopologyEpoch) {
  Fixture fx;
  fx.network->ForcePlace(fx.MakeFlow(150.0), fx.AbPath());
  Auditor auditor(Mode(AuditMode::kLogAndCount));
  ASSERT_GT(auditor.Audit(*fx.network, Balanced(), 0,
                          AuditContext{.round = 7, .topology_epoch = 3}),
            0u);
  for (const AuditViolation& v : auditor.violations()) {
    EXPECT_EQ(v.round, 7u);
    EXPECT_EQ(v.topology_epoch, 3u);
  }
  // A later pass stamps ITS context — records pin the pass that found them.
  (void)auditor.Audit(*fx.network, Balanced(), 0,
                      AuditContext{.round = 9, .topology_epoch = 4});
  EXPECT_EQ(auditor.violations().back().round, 9u);
  EXPECT_EQ(auditor.violations().back().topology_epoch, 4u);
  // The default context marks an out-of-round pass.
  Auditor fresh(Mode(AuditMode::kLogAndCount));
  (void)fresh.Audit(*fx.network, Balanced());
  EXPECT_EQ(fresh.violations().front().round, 0u);
}

TEST(AuditorTest, FailFastFailureCarriesContext) {
  Fixture fx;
  fx.network->ForcePlace(fx.MakeFlow(150.0), fx.AbPath());
  Auditor auditor(Mode(AuditMode::kFailFast));
  try {
    (void)auditor.Audit(*fx.network, Balanced(), 0,
                        AuditContext{.round = 5, .topology_epoch = 2});
    FAIL() << "expected AuditFailure";
  } catch (const AuditFailure& failure) {
    EXPECT_EQ(failure.violation().round, 5u);
    EXPECT_EQ(failure.violation().topology_epoch, 2u);
  }
}

TEST(AuditorTest, ViolationsAccumulateAcrossPasses) {
  Fixture fx;
  fx.network->ForcePlace(fx.MakeFlow(150.0), fx.AbPath());
  Auditor auditor(Mode(AuditMode::kLogAndCount));
  (void)auditor.Audit(*fx.network, Balanced());
  (void)auditor.Audit(*fx.network, Balanced());
  EXPECT_EQ(auditor.audits_run(), 2u);
  EXPECT_EQ(auditor.violations().size(), 4u);
}

/// Details of the violations `auditor` recorded after the first `skip`,
/// in order.
std::vector<std::string> Details(const Auditor& auditor,
                                 std::size_t skip = 0) {
  std::vector<std::string> out;
  for (std::size_t i = skip; i < auditor.violations().size(); ++i) {
    out.push_back(auditor.violations()[i].detail);
  }
  return out;
}

/// Violations a fresh auditor finds on `network`.
std::vector<std::string> FreshDetails(const net::Network& network) {
  Auditor fresh(Mode(AuditMode::kLogAndCount));
  (void)fresh.Audit(network, Balanced());
  return Details(fresh);
}

struct CoherenceCase {
  const char* name;
  std::vector<NodeId> nodes;
  std::vector<LinkId> links;
  /// Findings for the case's path on flow 0.
  std::vector<std::string> details;
};

// Network::Place rejects all of these, so each is planted through a
// crafted snapshot with in-range ids. Link 0 is a -> b, link 1 is b -> a.
// Network::LoadState itself refuses a path of the wrong shape or with the
// wrong endpoints (ShapeAndEndpointDefectsNeverReachTheAuditor), so the
// cases are the defects only the auditor reports.
std::vector<CoherenceCase> CoherenceCases(const Fixture& fx) {
  const LinkId ab{0};
  const LinkId ba{1};
  const NodeId a = fx.a;
  const NodeId b = fx.b;
  return {
      {"non-contiguous links", {a, b}, {ba},
       {"flow 0: path links do not connect its node sequence (blackhole)"}},
      {"forwarding loop", {a, b, a, b}, {ab, ba, ab},
       {"flow 0: forwarding loop (repeated node)"}},
      {"two defects", {a, b, a, b}, {ab, ab, ab},
       {"flow 0: path links do not connect its node sequence (blackhole)",
        "flow 0: forwarding loop (repeated node)"}},
  };
}

// The auditor's shape and endpoint findings cover in-run state only: a
// snapshot holding such a path is corrupt input.
TEST(AuditorTest, ShapeAndEndpointDefectsNeverReachTheAuditor) {
  const Fixture fx;
  const LinkId ab{0};
  const LinkId ba{1};
  const struct {
    const char* name;
    std::vector<NodeId> nodes;
    std::vector<LinkId> links;
  } cases[] = {
      {"malformed shape", {fx.a, fx.b}, {}},
      {"endpoint mismatch", {fx.b, fx.a}, {ba}},
      {"source mismatch", {fx.b}, {}},
      {"destination mismatch", {fx.a}, {}},
      {"endpoints and contiguity", {fx.b, fx.a}, {ab}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    Fixture crafted;
    topo::Path path;
    path.nodes = c.nodes;
    path.links = c.links;
    EXPECT_THROW(crafted.LoadCrafted(path), CorruptInput);
  }
}

TEST(AuditorTest, PinsCoherenceFindingTextAndOrder) {
  for (const CoherenceCase& c : CoherenceCases(Fixture())) {
    SCOPED_TRACE(c.name);
    Fixture crafted;
    topo::Path path;
    path.nodes = c.nodes;
    path.links = c.links;
    crafted.LoadCrafted(path);
    Auditor auditor(Mode(AuditMode::kLogAndCount));
    EXPECT_EQ(auditor.Audit(*crafted.network, Balanced()), c.details.size());
    EXPECT_EQ(Details(auditor), c.details);
    for (const AuditViolation& v : auditor.violations()) {
      EXPECT_EQ(v.invariant, "coherence");
    }
  }
}

// A pass walks the flow store in slot (memory) order, which a payload
// listing its records highest id first makes the reverse of id order.
// Flow i holds case i's path; the findings still come in ascending flow
// id, each flow's in PinsCoherenceFindingTextAndOrder's order.
TEST(AuditorTest, CoherenceFindingsFollowFlowIdNotSlotOrder) {
  Fixture fx;
  const std::vector<CoherenceCase> cases = CoherenceCases(fx);
  std::vector<test_support::CraftedPlacement> placements;
  std::vector<std::string> want;
  const std::string prefix = "flow 0";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    topo::Path path;
    path.nodes = cases[i].nodes;
    path.links = cases[i].links;
    placements.push_back({fx.MakeFlow(10.0), path});
    for (const std::string& detail : cases[i].details) {
      want.push_back("flow " + std::to_string(i) +
                     detail.substr(prefix.size()));
    }
  }
  test_support::NetworkFieldValues fields =
      test_support::NetworkFields(fx.graph, placements);
  std::reverse(fields.flows.begin(), fields.flows.end());
  std::reverse(fields.placed.begin(), fields.placed.end());
  const std::string payload = test_support::SerializeNetwork(fields);
  BinReader r(payload);
  fx.network->LoadState(r);
  r.ExpectEnd();
  std::vector<FlowId::rep_type> slot_order;
  fx.network->flows().ForEachInSlotOrder(
      [&slot_order](const flow::Flow& f, PathRef) {
        slot_order.push_back(f.id.value());
      });
  ASSERT_EQ(slot_order.size(), cases.size());
  EXPECT_TRUE(std::is_sorted(slot_order.rbegin(), slot_order.rend()));

  Auditor auditor(Mode(AuditMode::kLogAndCount));
  EXPECT_EQ(auditor.Audit(*fx.network, Balanced()), want.size());
  EXPECT_EQ(Details(auditor), want);
}

// Liveness is never carried over from an earlier pass. The unrelated b -> a
// link stays down throughout, so every pass evaluates liveness: the ref is
// alive first, then its dead-path finding appears, clears and reappears
// with its link.
TEST(AuditorMemoTest, DeadPathFindingFollowsLinkDownUpDown) {
  Fixture fx;
  fx.network->Place(fx.MakeFlow(40.0), fx.AbPath());
  const LinkId ab = fx.AbPath().links[0];
  const std::string dead =
      "flow 0: path crosses a down link or switch (blackhole)";
  Auditor auditor(Mode(AuditMode::kLogAndCount));
  fx.network->SetLinkUp(LinkId{1}, false);
  EXPECT_EQ(auditor.Audit(*fx.network, Balanced()), 0u);
  fx.network->SetLinkUp(ab, false);
  EXPECT_EQ(auditor.Audit(*fx.network, Balanced()), 1u);
  fx.network->SetLinkUp(ab, true);
  EXPECT_EQ(auditor.Audit(*fx.network, Balanced()), 0u);
  fx.network->SetLinkUp(ab, false);
  EXPECT_EQ(auditor.Audit(*fx.network, Balanced()), 1u);
  EXPECT_EQ(Details(auditor), (std::vector<std::string>{dead, dead}));
}

// One auditor over two networks with different graphs and registries, in
// which ref 0 runs between the same endpoints but is clean in one and a
// forwarding loop in the other: every pass must match a fresh auditor.
TEST(AuditorMemoTest, SharedAuditorMatchesFreshAcrossNetworks) {
  // Line a - s - b; the second graph adds a direct a - b link.
  topo::Graph line;
  const NodeId a = line.AddNode(topo::NodeRole::kHost);
  const NodeId s = line.AddNode(topo::NodeRole::kGeneric);
  const NodeId b = line.AddNode(topo::NodeRole::kHost);
  line.AddBidirectional(a, s, 100.0);  // links 0 (a -> s) and 1 (s -> a)
  line.AddBidirectional(s, b, 100.0);  // links 2 (s -> b) and 3 (b -> s)
  topo::Graph triangle = line;
  triangle.AddBidirectional(a, b, 100.0);
  flow::Flow flow;
  flow.src = a;
  flow.dst = b;
  flow.demand = 10.0;
  flow.duration = 1.0;

  net::Network clean(line);
  const std::array<NodeId, 3> via_s{a, s, b};
  clean.Place(flow, line.MakePath(via_s));
  topo::Path looped;
  looped.nodes = {a, s, a, s, b};
  looped.links = {LinkId{0}, LinkId{1}, LinkId{0}, LinkId{2}};
  const test_support::CraftedPlacement placed{flow, looped};
  const std::string payload =
      test_support::NetworkPayload(triangle, {&placed, 1});
  net::Network dirty(triangle);
  BinReader r(payload);
  dirty.LoadState(r);

  Auditor shared(Mode(AuditMode::kLogAndCount));
  for (const net::Network* network : {&clean, &dirty, &clean, &dirty}) {
    const std::size_t before = shared.violations().size();
    (void)shared.Audit(*network, Balanced());
    EXPECT_EQ(Details(shared, before), FreshDetails(*network));
  }
  EXPECT_EQ(shared.violations().size(), 2u);
}

// A network rebuilt in place over the same graph may get its predecessor's
// registry address; the memo must still start over.
TEST(AuditorMemoTest, RebuiltNetworkAtSameAddressStartsFreshMemo) {
  Fixture fx;
  fx.network->Place(fx.MakeFlow(10.0), fx.AbPath());
  Auditor auditor(Mode(AuditMode::kLogAndCount));
  EXPECT_EQ(auditor.Audit(*fx.network, Balanced()), 0u);
  // Same graph, same Network address, new registry; its ref 0 is a -> b
  // bouncing back to a over the a -> b link.
  fx.network.emplace(fx.graph);
  topo::Path bouncing;
  bouncing.nodes = {fx.a, fx.b, fx.a, fx.b};
  bouncing.links = {LinkId{0}, LinkId{0}, LinkId{0}};
  fx.LoadCrafted(bouncing);
  EXPECT_EQ(auditor.Audit(*fx.network, Balanced()), 2u);
  EXPECT_EQ(Details(auditor), FreshDetails(*fx.network));
}

// A path interned after a pass is checked on the next one.
TEST(AuditorMemoTest, PathInternedAfterPassIsChecked) {
  Fixture fx;
  fx.network->Place(fx.MakeFlow(10.0), fx.AbPath());
  Auditor auditor(Mode(AuditMode::kLogAndCount));
  EXPECT_EQ(auditor.Audit(*fx.network, Balanced()), 0u);
  topo::Path looped;
  looped.nodes = {fx.a, fx.b, fx.a, fx.b};
  looped.links = {LinkId{0}, LinkId{1}, LinkId{0}};
  fx.LoadCrafted(looped);  // same registry, one new ref
  EXPECT_EQ(auditor.Audit(*fx.network, Balanced()), 1u);
  EXPECT_EQ(Details(auditor), std::vector<std::string>{
                                 "flow 0: forwarding loop (repeated node)"});
}

}  // namespace
}  // namespace nu::guard
