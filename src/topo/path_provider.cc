#include "topo/path_provider.h"

namespace nu::topo {
namespace {

/// The members of `base` that `keep` accepts, in base order.
template <typename Keep>
std::vector<Path> Filtered(const std::vector<Path>& base, Keep&& keep) {
  std::vector<Path> kept;
  for (const Path& p : base) {
    if (keep(p)) kept.push_back(p);
  }
  return kept;
}

/// A fresh index starts with 64 slots.
constexpr unsigned kInitialLog2Size = 6;

}  // namespace

PairIndex::Table::Table(unsigned log2)
    : log2_size(log2),
      mask((std::size_t{1} << log2) - 1),
      slots(std::make_unique<Slot[]>(mask + 1)) {}

PairIndex::PairIndex(std::size_t node_count) : node_count_(node_count) {
  table_.store(&tables_.emplace_back(kInitialLog2Size),
               std::memory_order_release);
}

void PairIndex::Insert(const Table& table, const Entry* entry) {
  std::size_t i = table.Home(entry->key);
  while (table.slots[i].load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & table.mask;
  }
  table.slots[i].store(entry, std::memory_order_release);
}

const PairIndex::Set& PairIndex::Publish(std::uint64_t key, Set set) {
  const Table* table = &tables_.back();
  if (2 * (entries_.size() + 1) > table->mask + 1) {
    // Fill a doubled copy, then publish it. Readers still probing the old
    // table miss only pairs filled from now on, and retry under the lock.
    const Table& old = *table;
    table = &tables_.emplace_back(old.log2_size + 1);
    for (std::size_t i = 0; i <= old.mask; ++i) {
      const Entry* entry = old.slots[i].load(std::memory_order_relaxed);
      if (entry != nullptr) Insert(*table, entry);
    }
    table_.store(table, std::memory_order_release);
  }
  const Entry& entry = entries_.emplace_back(Entry{key, std::move(set)});
  Insert(*table, &entry);
  return entry.set;
}

void PairIndex::Reset(std::uint64_t epoch) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (epoch_.load(std::memory_order_relaxed) == epoch) return;
  tables_.clear();
  entries_.clear();
  table_.store(&tables_.emplace_back(kInitialLog2Size),
               std::memory_order_release);
  epoch_.store(epoch, std::memory_order_release);
}

FatTreePathProvider::FatTreePathProvider(const FatTree& fat_tree)
    : fat_tree_(fat_tree), index_(fat_tree.graph().node_count()) {}

const std::vector<Path>& FatTreePathProvider::Paths(NodeId src,
                                                    NodeId dst) const {
  return index_.Get(src, dst, [&] { return fat_tree_.HostPaths(src, dst); });
}

const Graph& FatTreePathProvider::graph() const { return fat_tree_.graph(); }

LeafSpinePathProvider::LeafSpinePathProvider(const LeafSpine& leaf_spine)
    : leaf_spine_(leaf_spine), index_(leaf_spine.graph().node_count()) {}

const std::vector<Path>& LeafSpinePathProvider::Paths(NodeId src,
                                                      NodeId dst) const {
  return index_.Get(src, dst, [&] { return leaf_spine_.HostPaths(src, dst); });
}

const Graph& LeafSpinePathProvider::graph() const {
  return leaf_spine_.graph();
}

KspPathProvider::KspPathProvider(const Graph& graph, std::size_t k)
    : graph_(graph), k_(k), index_(graph.node_count()) {
  NU_EXPECTS(k >= 1);
}

const std::vector<Path>& KspPathProvider::Paths(NodeId src, NodeId dst) const {
  return index_.Get(src, dst,
                    [&] { return YenKShortestPaths(graph_, src, dst, k_); });
}

LinkAvoidingPathProvider::LinkAvoidingPathProvider(const PathProvider& base,
                                                   LinkId link)
    : base_(base), avoided_(link), index_(base.graph().node_count()) {
  const Link& l = base.graph().link(link);
  avoided_reverse_ = base.graph().FindLink(l.dst, l.src);
}

const std::vector<Path>& LinkAvoidingPathProvider::Paths(NodeId src,
                                                         NodeId dst) const {
  return index_.Get(src, dst, [&] {
    return Filtered(base_.Paths(src, dst), [&](const Path& p) {
      for (LinkId lid : p.links) {
        if (lid == avoided_ ||
            (avoided_reverse_.valid() && lid == avoided_reverse_)) {
          return false;
        }
      }
      return true;
    });
  });
}

NodeAvoidingPathProvider::NodeAvoidingPathProvider(const PathProvider& base,
                                                   NodeId avoided)
    : base_(base), avoided_(avoided), index_(base.graph().node_count()) {}

const std::vector<Path>& NodeAvoidingPathProvider::Paths(NodeId src,
                                                         NodeId dst) const {
  return index_.Get(src, dst, [&] {
    return Filtered(base_.Paths(src, dst), [&](const Path& p) {
      for (NodeId n : p.nodes) {
        if (n == avoided_) return false;
      }
      return true;
    });
  });
}

PredicatePathProvider::PredicatePathProvider(const PathProvider& base,
                                             Predicate keep, EpochFn epoch)
    : base_(base),
      keep_(std::move(keep)),
      epoch_(std::move(epoch)),
      index_(base.graph().node_count()) {
  NU_EXPECTS(keep_ != nullptr);
  NU_EXPECTS(epoch_ != nullptr);
}

const std::vector<Path>& PredicatePathProvider::Paths(NodeId src,
                                                      NodeId dst) const {
  const std::uint64_t epoch = epoch_();
  if (epoch != index_.epoch()) index_.Reset(epoch);
  return index_.Get(src, dst,
                    [&] { return Filtered(base_.Paths(src, dst), keep_); });
}

}  // namespace nu::topo
