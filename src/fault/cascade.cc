#include "fault/cascade.h"

#include <algorithm>

namespace nu::fault {

std::vector<CascadeEvent> CascadeEngine::Observe(const net::Network& network,
                                                 Seconds now) {
  std::vector<CascadeEvent> out;
  if (!enabled() || fired_ >= config_.max_secondary_failures) return out;
  const std::vector<LinkId> stressed = monitor_.Observe(network, now);
  if (stressed.empty()) return out;
  const topo::Graph& graph = network.graph();
  const std::size_t depth = std::max<std::size_t>(current_depth_, 1) + 1;
  for (LinkId link : stressed) {
    if (fired_ >= config_.max_secondary_failures) break;
    const topo::Link& l = graph.link(link);
    // Host uplinks never cascade: no alternative path exists, so failing
    // one strands flows instead of exercising recovery.
    if (graph.node(l.src).role == topo::NodeRole::kHost ||
        graph.node(l.dst).role == topo::NodeRole::kHost) {
      continue;
    }
    out.push_back(CascadeEvent{link, depth});
    ++fired_;
  }
  if (!out.empty()) {
    current_depth_ = depth;
    max_depth_ = std::max(max_depth_, depth);
  }
  return out;
}

template <typename Ar, typename Self>
void CascadeEngine::Section(Ar& ar, Self& self) {
  // U64, not Size: these are counters, and BinReader::Size() rejects values
  // larger than the remaining input (it is a length guard).
  ar.U64(self.current_depth_, self.fired_, self.max_depth_);
  ar.Part(self.monitor_);
}

void CascadeEngine::SaveState(BinWriter& w) const { Section(w, *this); }
void CascadeEngine::LoadState(BinReader& r) { Section(r, *this); }

}  // namespace nu::fault
