#include "fault/fault_plan.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>

#include "common/text.h"

namespace nu::fault {
namespace {

[[noreturn]] void Fail(const std::string& what) { throw FaultPlanError(what); }

// Both are false for NaN and the infinities, which a bare comparison lets
// through (every comparison with NaN is false).
bool NonNegative(double value) { return std::isfinite(value) && value >= 0.0; }
bool Positive(double value) { return std::isfinite(value) && value > 0.0; }

double RealOrFail(std::string_view token, const std::string& context) {
  return Require<FaultPlanError>(ParseReal(token), token,
                                 context + ": bad number");
}

// An id or index that must fit its type T: a wider one is an error, not a
// silent wrap to another id.
template <typename T>
T CountOrFail(std::string_view token, const std::string& context) {
  return static_cast<T>(Require<FaultPlanError>(
      ParseCount(token, std::numeric_limits<T>::max()), token,
      context + ": bad id"));
}

// Splits "1,2,3" into ids; empty value means the empty list.
template <typename Id>
std::vector<Id> ParseIdList(std::string_view value, const std::string& context) {
  std::vector<Id> out;
  if (value.empty()) return out;
  for (const std::string_view item : Split(value, ',')) {
    out.push_back(Id{CountOrFail<typename Id::rep_type>(item, context)});
  }
  return out;
}

// "key=value" accessor; throws when the token does not start with `key=`.
std::string_view ExpectKey(std::string_view token, std::string_view key,
                           const std::string& context) {
  if (token.size() < key.size() + 1 || token.substr(0, key.size()) != key ||
      token[key.size()] != '=') {
    Fail(context + ": expected " + std::string(key) + "=..., got '" +
         std::string(token) + "'");
  }
  return token.substr(key.size() + 1);
}

template <typename Id>
std::string JoinIds(const std::vector<Id>& ids) {
  std::string out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids[i].value());
  }
  return out;
}

constexpr std::string_view kFormatHeader = "netupdate-fault-plan v1";

}  // namespace

const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown:
      return "link-down";
    case FaultKind::kLinkUp:
      return "link-up";
    case FaultKind::kSwitchDown:
      return "switch-down";
    case FaultKind::kSwitchUp:
      return "switch-up";
    case FaultKind::kGroupDown:
      return "group-down";
    case FaultKind::kGroupUp:
      return "group-up";
  }
  return "?";
}

FaultPlan& FaultPlan::Add(FaultSpec spec) {
  if (!NonNegative(spec.time)) {
    Fail("spec time must be finite and >= 0, got " + FormatReal(spec.time));
  }
  if (spec.IsGroupFault()) {
    if (spec.group >= groups_.size()) {
      Fail("group index " + std::to_string(spec.group) + " out of range (" +
           std::to_string(groups_.size()) + " groups declared)");
    }
  } else if (spec.IsLinkFault()) {
    if (!spec.link.valid()) Fail("link fault with invalid link id");
  } else {
    if (!spec.node.valid()) Fail("switch fault with invalid node id");
  }
  // Insert before the first later spec: stable order for equal times.
  const auto it = std::upper_bound(
      specs_.begin(), specs_.end(), spec.time,
      [](Seconds t, const FaultSpec& s) { return t < s.time; });
  specs_.insert(it, spec);
  return *this;
}

FaultPlan& FaultPlan::AddLinkDown(Seconds time, LinkId link) {
  return Add(FaultSpec{time, FaultKind::kLinkDown, link, NodeId::invalid()});
}

FaultPlan& FaultPlan::AddLinkUp(Seconds time, LinkId link) {
  return Add(FaultSpec{time, FaultKind::kLinkUp, link, NodeId::invalid()});
}

FaultPlan& FaultPlan::AddLinkOutage(Seconds time, Seconds outage,
                                    LinkId link) {
  if (!Positive(outage)) {
    Fail("link outage duration must be finite and > 0 (got " +
         FormatReal(outage) + "); use AddLinkDown for a permanent failure");
  }
  AddLinkDown(time, link);
  AddLinkUp(time + outage, link);
  return *this;
}

FaultPlan& FaultPlan::AddSwitchDown(Seconds time, NodeId node) {
  return Add(FaultSpec{time, FaultKind::kSwitchDown, LinkId::invalid(), node});
}

FaultPlan& FaultPlan::AddSwitchUp(Seconds time, NodeId node) {
  return Add(FaultSpec{time, FaultKind::kSwitchUp, LinkId::invalid(), node});
}

FaultPlan& FaultPlan::AddSwitchOutage(Seconds time, Seconds outage,
                                      NodeId node) {
  if (!Positive(outage)) {
    Fail("switch outage duration must be finite and > 0 (got " +
         FormatReal(outage) + "); use AddSwitchDown for a permanent failure");
  }
  AddSwitchDown(time, node);
  AddSwitchUp(time + outage, node);
  return *this;
}

std::size_t FaultPlan::AddGroup(SharedRiskGroup group) {
  if (group.empty()) Fail("shared-risk group '" + group.name + "' is empty");
  if (group.name.empty()) Fail("shared-risk group with empty name");
  for (char c : group.name) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      Fail("shared-risk group name '" + group.name +
           "' contains whitespace (names must be single tokens so plans "
           "serialize line-oriented)");
    }
  }
  groups_.push_back(std::move(group));
  return groups_.size() - 1;
}

FaultPlan& FaultPlan::AddGroupDown(Seconds time, std::size_t group) {
  return Add(FaultSpec{time, FaultKind::kGroupDown, LinkId::invalid(),
                       NodeId::invalid(), group});
}

FaultPlan& FaultPlan::AddGroupUp(Seconds time, std::size_t group) {
  return Add(FaultSpec{time, FaultKind::kGroupUp, LinkId::invalid(),
                       NodeId::invalid(), group});
}

FaultPlan& FaultPlan::AddGroupOutage(Seconds time, Seconds outage,
                                     std::size_t group) {
  if (!Positive(outage)) {
    Fail("group outage duration must be finite and > 0 (got " +
         FormatReal(outage) + "); use AddGroupDown for a permanent failure");
  }
  AddGroupDown(time, group);
  AddGroupUp(time + outage, group);
  return *this;
}

FaultPlan& FaultPlan::AddRollingDrain(Seconds time, Seconds stagger,
                                      Seconds outage, std::size_t group) {
  if (group >= groups_.size()) {
    Fail("rolling drain over undeclared group index " + std::to_string(group));
  }
  if (!NonNegative(stagger)) {
    Fail("rolling drain stagger must be finite and >= 0, got " +
         FormatReal(stagger));
  }
  if (!Positive(outage)) {
    Fail("rolling drain outage must be finite and > 0, got " +
         FormatReal(outage));
  }
  // Primitive per-element outages: each member is its own transition —
  // that's what distinguishes a drain from a power event. Nodes first, then
  // links, declaration order; the group is only a membership list here.
  const SharedRiskGroup& g = groups_[group];
  std::size_t i = 0;
  for (NodeId node : g.nodes) {
    AddSwitchOutage(time + static_cast<double>(i++) * stagger, outage, node);
  }
  for (LinkId link : g.links) {
    AddLinkOutage(time + static_cast<double>(i++) * stagger, outage, link);
  }
  return *this;
}

const FaultPlan& FaultPlan::Validate(const topo::Graph& graph) const {
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    if (!GroupIdsValid(groups_[gi], graph)) {
      Fail("group " + std::to_string(gi) + " ('" + groups_[gi].name +
           "') names a link/node id that does not exist in the topology");
    }
  }
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& s = specs_[i];
    if (s.IsLinkFault()) {
      if (s.link.value() >= graph.link_count()) {
        Fail("spec " + std::to_string(i) + " (" + ToString(s.kind) + " t=" +
             FormatReal(s.time) + ") names nonexistent link " +
             std::to_string(s.link.value()) + " (topology has " +
             std::to_string(graph.link_count()) + " links)");
      }
    } else if (!s.IsGroupFault()) {
      if (s.node.value() >= graph.node_count()) {
        Fail("spec " + std::to_string(i) + " (" + ToString(s.kind) + " t=" +
             FormatReal(s.time) + ") names nonexistent node " +
             std::to_string(s.node.value()) + " (topology has " +
             std::to_string(graph.node_count()) + " nodes)");
      }
    }
    // Group indices are range-checked at Add() time; member ids were just
    // checked above.
  }
  return *this;
}

void FaultPlan::SaveText(std::ostream& out) const {
  out << kFormatHeader << '\n';
  for (const SharedRiskGroup& g : groups_) {
    out << "group " << g.name << " nodes=" << JoinIds(g.nodes)
        << " links=" << JoinIds(g.links) << '\n';
  }
  for (const FaultSpec& s : specs_) {
    out << ToString(s.kind) << " t=" << FormatReal(s.time);
    if (s.IsGroupFault()) {
      out << " group=" << s.group;
    } else if (s.IsLinkFault()) {
      out << " link=" << s.link.value();
    } else {
      out << " node=" << s.node.value();
    }
    out << '\n';
  }
}

FaultPlan FaultPlan::LoadText(std::istream& in) {
  FaultPlan plan;
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string context = "line " + std::to_string(line_no);
    // Comments and blank lines are for hand-written plans; SaveText never
    // emits them.
    const auto tokens = Tokens(line);
    if (tokens.empty() || tokens[0].front() == '#') continue;
    if (!saw_header) {
      if (tokens != Tokens(kFormatHeader)) {
        Fail(context + ": expected header '" + std::string(kFormatHeader) +
             "'");
      }
      saw_header = true;
      continue;
    }
    const std::string_view head = tokens[0];
    if (head == "group") {
      if (tokens.size() != 4) {
        Fail(context + ": group line needs: group <name> nodes=... links=...");
      }
      SharedRiskGroup g;
      g.name = std::string(tokens[1]);
      g.nodes =
          ParseIdList<NodeId>(ExpectKey(tokens[2], "nodes", context), context);
      g.links =
          ParseIdList<LinkId>(ExpectKey(tokens[3], "links", context), context);
      plan.AddGroup(std::move(g));
      continue;
    }
    if (tokens.size() != 3) {
      Fail(context + ": fault line needs: <kind> t=<time> <target>=<id>");
    }
    FaultSpec spec;
    spec.time = RealOrFail(ExpectKey(tokens[1], "t", context), context);
    const auto kinds = {FaultKind::kLinkDown,   FaultKind::kLinkUp,
                        FaultKind::kSwitchDown, FaultKind::kSwitchUp,
                        FaultKind::kGroupDown,  FaultKind::kGroupUp};
    const auto kind = std::find_if(kinds.begin(), kinds.end(), [head](auto k) {
      return head == ToString(k);
    });
    if (kind == kinds.end()) {
      Fail(context + ": unknown fault kind '" + std::string(head) + "'");
    }
    spec.kind = *kind;
    if (spec.IsGroupFault()) {
      spec.group = CountOrFail<std::size_t>(
          ExpectKey(tokens[2], "group", context), context);
    } else if (spec.IsLinkFault()) {
      spec.link = LinkId{CountOrFail<LinkId::rep_type>(
          ExpectKey(tokens[2], "link", context), context)};
    } else {
      spec.node = NodeId{CountOrFail<NodeId::rep_type>(
          ExpectKey(tokens[2], "node", context), context)};
    }
    plan.Add(spec);
  }
  if (!saw_header) Fail("missing header '" + std::string(kFormatHeader) + "'");
  return plan;
}

void FaultPlan::SaveFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) Fail("cannot open '" + path + "' for writing");
  SaveText(out);
  out.flush();
  if (!out) Fail("write to '" + path + "' failed");
}

FaultPlan FaultPlan::LoadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("cannot open '" + path + "' for reading");
  return LoadText(in);
}

bool operator==(const FaultPlan& a, const FaultPlan& b) {
  return a.specs_ == b.specs_ && a.groups_ == b.groups_;
}

FaultPlan MakeRandomLinkFaultPlan(const topo::Graph& graph,
                                  const RandomLinkFaultOptions& options,
                                  Rng& rng) {
  // Candidate cables: one direction per pair (skip the reverse twin so a
  // cable is sampled once), optionally fabric-only.
  std::vector<LinkId> candidates;
  for (const topo::Link& l : graph.links()) {
    if (options.fabric_only &&
        (graph.node(l.src).role == topo::NodeRole::kHost ||
         graph.node(l.dst).role == topo::NodeRole::kHost)) {
      continue;
    }
    const LinkId reverse = graph.FindLink(l.dst, l.src);
    if (reverse.valid() && reverse < l.id) continue;  // twin already listed
    candidates.push_back(l.id);
  }
  FaultPlan plan;
  if (candidates.empty()) return plan;
  const std::size_t count = std::min(options.failures, candidates.size());
  const auto picks = rng.SampleWithoutReplacement(candidates.size(), count);
  for (std::size_t i = 0; i < picks.size(); ++i) {
    const Seconds at =
        options.first_failure + static_cast<double>(i) * options.spacing;
    if (options.outage <= 0.0) {
      plan.AddLinkDown(at, candidates[picks[i]]);  // permanent failure
    } else {  // a NaN outage lands here, and AddLinkOutage refuses it
      plan.AddLinkOutage(at, options.outage, candidates[picks[i]]);
    }
  }
  return plan;
}

FaultPlan MakeRandomSrlgFaultPlan(const std::vector<SharedRiskGroup>& catalog,
                                  const RandomSrlgFaultOptions& options,
                                  Rng& rng) {
  FaultPlan plan;
  if (catalog.empty()) return plan;
  if (!Positive(options.outage)) {
    Fail("random SRLG plans need outage > 0 (recovery must happen inside "
         "the run)");
  }
  const std::size_t count = std::min(options.incidents, catalog.size());
  const auto picks = rng.SampleWithoutReplacement(catalog.size(), count);
  for (std::size_t i = 0; i < picks.size(); ++i) {
    const std::size_t index = plan.AddGroup(catalog[picks[i]]);
    const Seconds at =
        options.first_failure + static_cast<double>(i) * options.spacing;
    if (rng.Bernoulli(options.drain_probability)) {
      plan.AddRollingDrain(at, options.drain_stagger, options.outage, index);
    } else {
      plan.AddGroupOutage(at, options.outage, index);
    }
  }
  return plan;
}

const char* ToString(GreyKind kind) {
  switch (kind) {
    case GreyKind::kAckLie:
      return "acklie";
    case GreyKind::kStraggler:
      return "straggler";
    case GreyKind::kRuleLoss:
      return "loss";
  }
  return "?";
}

namespace {

GreyKind ParseGreyKind(std::string_view token, const std::string& context) {
  if (token == "acklie") return GreyKind::kAckLie;
  if (token == "straggler") return GreyKind::kStraggler;
  if (token == "loss") return GreyKind::kRuleLoss;
  Fail(context + ": unknown grey kind '" + std::string(token) + "'");
}

}  // namespace

const GreyFailureModel& GreyFailureModel::Validate() const {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const GreyFailureSpec& s = specs[i];
    const std::string context =
        "grey spec " + std::to_string(i) + " (" + ToString(s.kind) + ")";
    if (!NonNegative(s.probability) || s.probability > 1.0) {
      Fail(context + ": probability must be in [0, 1]");
    }
    if (!NonNegative(s.min_delay) || !NonNegative(s.max_delay - s.min_delay)) {
      Fail(context + ": need finite 0 <= min_delay <= max_delay");
    }
    const bool delayed =
        s.kind == GreyKind::kStraggler || s.kind == GreyKind::kRuleLoss;
    if (delayed && s.max_delay <= 0.0) {
      Fail(context + ": delayed kinds need max_delay > 0");
    }
    if (!NonNegative(s.start) || !NonNegative(s.duration)) {
      Fail(context + ": window start and duration must be finite and >= 0");
    }
  }
  return *this;
}

GreyOutcome SampleGrey(const GreyFailureModel& model, NodeId node, Seconds now,
                       Rng& rng) {
  for (const GreyFailureSpec& s : model.specs) {
    if (!s.Covers(now) || !s.Targets(node)) continue;
    if (!rng.Bernoulli(s.probability)) continue;
    GreyOutcome out;
    switch (s.kind) {
      case GreyKind::kAckLie:
        out.kind = GreyOutcome::Kind::kAckLie;
        return out;
      case GreyKind::kStraggler:
        out.kind = GreyOutcome::Kind::kStraggler;
        out.delay = rng.Uniform(s.min_delay, s.max_delay);
        return out;
      case GreyKind::kRuleLoss:
        out.kind = GreyOutcome::Kind::kRuleLoss;
        out.delay = rng.Uniform(s.min_delay, s.max_delay);
        return out;
    }
  }
  return GreyOutcome{};
}

GreyFailureSpec ParseGreySpec(const std::string& text) {
  const std::string context = "grey spec '" + text + "'";
  const auto fields = Split(text, ':');
  if (fields.size() != 2 && fields.size() != 4 && fields.size() != 6 &&
      fields.size() != 7) {
    Fail(context + ": expected kind:prob[:min:max[:start:dur[:node]]]");
  }
  GreyFailureSpec spec;
  spec.kind = ParseGreyKind(fields[0], context);
  spec.probability = RealOrFail(fields[1], context);
  if (fields.size() >= 4) {
    spec.min_delay = RealOrFail(fields[2], context);
    spec.max_delay = RealOrFail(fields[3], context);
  }
  if (fields.size() >= 6) {
    spec.start = RealOrFail(fields[4], context);
    spec.duration = RealOrFail(fields[5], context);
  }
  if (fields.size() == 7 && fields[6] != "-1") {
    spec.node = NodeId{CountOrFail<NodeId::rep_type>(fields[6], context)};
  }
  GreyFailureModel probe;
  probe.specs.push_back(spec);
  probe.Validate();
  return spec;
}

std::string FormatGreySpec(const GreyFailureSpec& spec) {
  std::string out = ToString(spec.kind);
  auto append = [&out](const std::string& field) {
    out += ':';
    out += field;
  };
  append(FormatReal(spec.probability));
  const bool has_node = spec.node.valid();
  const bool has_window = spec.start != 0.0 || spec.duration != 0.0;
  const bool has_delay = spec.min_delay != 0.0 || spec.max_delay != 0.0;
  if (has_delay || has_window || has_node) {
    append(FormatReal(spec.min_delay));
    append(FormatReal(spec.max_delay));
  }
  if (has_window || has_node) {
    append(FormatReal(spec.start));
    append(FormatReal(spec.duration));
  }
  if (has_node) append(std::to_string(spec.node.value()));
  return out;
}

GreyFailureModel ParseGreyModel(const std::string& text) {
  GreyFailureModel model;
  for (const std::string_view piece : Split(text, '+')) {
    if (!piece.empty()) {
      model.specs.push_back(ParseGreySpec(std::string(piece)));
    }
  }
  model.Validate();
  return model;
}

std::string FormatGreyModel(const GreyFailureModel& model) {
  std::string out;
  for (const GreyFailureSpec& spec : model.specs) {
    if (!out.empty()) out += "+";
    out += FormatGreySpec(spec);
  }
  return out;
}

}  // namespace nu::fault
