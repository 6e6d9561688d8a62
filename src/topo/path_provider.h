// PathProvider abstracts "the feasible path set P(f) of a flow" from the
// paper's model. The planner and migration optimizer only see this interface,
// so they work identically on Fat-Trees (analytic equal-cost enumeration),
// leaf-spines, and arbitrary graphs (Yen's KSP). Path sets are static for a
// fixed topology, so every provider memoizes them in one PairIndex: reads of
// a filled pair are lock-free (parallel cost probes and shard workers call
// Paths() concurrently), fills take the index's one mutex, and a returned
// reference stays valid until the index is reset or destroyed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "topo/fat_tree.h"
#include "topo/ksp.h"
#include "topo/leaf_spine.h"

namespace nu::topo {

/// Maps (src, dst) node pairs to filled candidate sets: an open-addressing
/// table of pointers to (pair, set) entries. A read of a filled pair is
/// acquire loads only (the table pointer, then a short linear probe); a
/// miss fills the pair under the mutex and publishes it with release
/// stores. The table stays at most half full and grows by publishing a
/// doubled copy; replaced tables are kept until Reset() so a reader still
/// probing one stays safe, and their sizes halve down the chain, so
/// storage is O(filled pairs).
class PairIndex {
 public:
  using Set = std::vector<Path>;

  explicit PairIndex(std::size_t node_count);
  PairIndex(const PairIndex&) = delete;
  PairIndex& operator=(const PairIndex&) = delete;

  /// The set of (src, dst), built by `fill()` on the pair's first lookup.
  /// `fill` runs under the fill mutex, so each pair is built once between
  /// resets.
  template <typename Fill>
  const Set& Get(NodeId src, NodeId dst, Fill&& fill) {
    const std::uint64_t key = Key(src, dst);
    if (const Set* set = Find(key)) return *set;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const Set* set = Find(key)) return *set;
    return Publish(key, fill());
  }

  /// The epoch the filled sets belong to (0 until the first Reset).
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Drops every set and records `epoch`, unless the index already holds
  /// `epoch`. References returned before a reset dangle, so no thread may
  /// hold one or read the index while another resets it.
  void Reset(std::uint64_t epoch);

 private:
  /// Immutable once a slot points to it.
  struct Entry {
    std::uint64_t key;
    Set set;
  };
  using Slot = std::atomic<const Entry*>;
  struct Table {
    explicit Table(unsigned log2);
    /// Home slot of `key`: the top log2_size bits of a Fibonacci hash.
    [[nodiscard]] std::size_t Home(std::uint64_t key) const {
      return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                      (64 - log2_size));
    }
    const unsigned log2_size;
    const std::size_t mask;
    const std::unique_ptr<Slot[]> slots;  // null = free
  };

  [[nodiscard]] std::uint64_t Key(NodeId src, NodeId dst) const {
    NU_EXPECTS(src.value() < node_count_ && dst.value() < node_count_);
    return (std::uint64_t{src.value()} << 32) | dst.value();
  }

  [[nodiscard]] const Set* Find(std::uint64_t key) const {
    const Table* table = table_.load(std::memory_order_acquire);
    for (std::size_t i = table->Home(key);; i = (i + 1) & table->mask) {
      const Entry* entry = table->slots[i].load(std::memory_order_acquire);
      if (entry == nullptr) return nullptr;
      if (entry->key == key) return &entry->set;
    }
  }

  /// Stores `set` as the pair's set. Requires the mutex.
  const Set& Publish(std::uint64_t key, Set set);
  /// Points a free slot of `table` at `entry`.
  static void Insert(const Table& table, const Entry* entry);

  const std::size_t node_count_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<const Table*> table_{nullptr};
  std::mutex mutex_;
  // Guarded by mutex_. The deques own every table (current last) and
  // entry; appending never moves an element a reader may hold.
  std::deque<Table> tables_;
  std::deque<Entry> entries_;
};

class PathProvider {
 public:
  virtual ~PathProvider() = default;

  /// The candidate path set P(f) for an (src, dst) host pair, deterministic
  /// order. Must return at least one path for connected pairs.
  [[nodiscard]] virtual const std::vector<Path>& Paths(NodeId src,
                                                       NodeId dst) const = 0;

  [[nodiscard]] virtual const Graph& graph() const = 0;
};

/// Equal-cost shortest paths of a Fat-Tree, memoized per host pair.
class FatTreePathProvider final : public PathProvider {
 public:
  explicit FatTreePathProvider(const FatTree& fat_tree);

  [[nodiscard]] const std::vector<Path>& Paths(NodeId src,
                                               NodeId dst) const override;
  [[nodiscard]] const Graph& graph() const override;

 private:
  const FatTree& fat_tree_;
  mutable PairIndex index_;
};

/// Equal-cost shortest paths of a leaf-spine fabric, memoized per host pair.
class LeafSpinePathProvider final : public PathProvider {
 public:
  explicit LeafSpinePathProvider(const LeafSpine& leaf_spine);

  [[nodiscard]] const std::vector<Path>& Paths(NodeId src,
                                               NodeId dst) const override;
  [[nodiscard]] const Graph& graph() const override;

 private:
  const LeafSpine& leaf_spine_;
  mutable PairIndex index_;
};

/// K-shortest paths on an arbitrary graph via Yen's algorithm, memoized.
class KspPathProvider final : public PathProvider {
 public:
  KspPathProvider(const Graph& graph, std::size_t k);

  [[nodiscard]] const std::vector<Path>& Paths(NodeId src,
                                               NodeId dst) const override;
  [[nodiscard]] const Graph& graph() const override { return graph_; }

 private:
  const Graph& graph_;
  std::size_t k_;
  mutable PairIndex index_;
};

/// Filters another provider's path sets down to paths avoiding one node —
/// e.g. "all paths not crossing the switch being upgraded". Pairs whose
/// every candidate path crosses the node get an empty set.
class NodeAvoidingPathProvider final : public PathProvider {
 public:
  NodeAvoidingPathProvider(const PathProvider& base, NodeId avoided);

  [[nodiscard]] const std::vector<Path>& Paths(NodeId src,
                                               NodeId dst) const override;
  [[nodiscard]] const Graph& graph() const override { return base_.graph(); }

  [[nodiscard]] NodeId avoided() const { return avoided_; }

 private:
  const PathProvider& base_;
  NodeId avoided_;
  mutable PairIndex index_;
};

/// Filters another provider's path sets down to paths avoiding one link and
/// its reverse — e.g. "all paths not crossing the failed cable". Pairs whose
/// every candidate crosses the link get an empty set.
class LinkAvoidingPathProvider final : public PathProvider {
 public:
  /// Avoids `link` and, when present in the graph, its reverse direction
  /// (a cable failure kills both).
  LinkAvoidingPathProvider(const PathProvider& base, LinkId link);

  [[nodiscard]] const std::vector<Path>& Paths(NodeId src,
                                               NodeId dst) const override;
  [[nodiscard]] const Graph& graph() const override { return base_.graph(); }

  [[nodiscard]] LinkId avoided() const { return avoided_; }
  [[nodiscard]] LinkId avoided_reverse() const { return avoided_reverse_; }

 private:
  const PathProvider& base_;
  LinkId avoided_;
  LinkId avoided_reverse_;
  mutable PairIndex index_;
};

/// Filters another provider's path sets through an arbitrary keep-predicate
/// with epoch-based invalidation: filtered sets are memoized per host pair
/// while `epoch()` is stable, and the index is reset when it changes. This
/// is how the planner sees only surviving paths under fault injection — the
/// predicate is net::Network::PathAlive and the epoch is the network's
/// topology epoch, without topo depending on net. Pairs whose every
/// candidate is rejected get an empty set (the flow must wait for repair).
/// The epoch may change only while no other thread calls Paths() or holds
/// a set it returned (the simulator changes it between rounds).
class PredicatePathProvider final : public PathProvider {
 public:
  using Predicate = std::function<bool(const Path&)>;
  using EpochFn = std::function<std::uint64_t()>;

  PredicatePathProvider(const PathProvider& base, Predicate keep,
                        EpochFn epoch);

  [[nodiscard]] const std::vector<Path>& Paths(NodeId src,
                                               NodeId dst) const override;
  [[nodiscard]] const Graph& graph() const override { return base_.graph(); }

  /// The unfiltered provider (deadlock-breaking force placement falls back
  /// to it when no surviving path exists).
  [[nodiscard]] const PathProvider& base() const { return base_; }

 private:
  const PathProvider& base_;
  Predicate keep_;
  EpochFn epoch_;
  mutable PairIndex index_;
};

}  // namespace nu::topo
