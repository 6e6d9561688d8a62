// The benchmark's four workloads. Each is built from one seed: the
// benchmark generates the fabric's background traffic, the update events or
// serve arrivals, and the fault plan itself and hands them to the
// simulator, so two builds of the simulator see identical inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "exp/workload.h"
#include "net/network.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"
#include "update/update_event.h"

namespace perfbench {

enum class WorkloadKind : std::uint8_t { kScale, kPaper, kRobust };

[[nodiscard]] std::optional<WorkloadKind> ParseWorkload(std::string_view name);
[[nodiscard]] const char* ToString(WorkloadKind kind);

/// Everything one simulation of a workload needs. `paths` and `network`
/// point into the owned fabric (scale) or into `workload` (paper,
/// robust).
struct Instance {
  std::unique_ptr<nu::topo::FatTree> fat_tree;
  std::unique_ptr<nu::topo::FatTreePathProvider> fat_tree_paths;
  std::unique_ptr<nu::net::Network> own_network;
  std::unique_ptr<nu::exp::Workload> workload;

  const nu::topo::PathProvider* paths = nullptr;
  const nu::net::Network* network = nullptr;
  std::vector<nu::update::UpdateEvent> events;
  nu::sim::SimConfig sim;
  /// `scale` only: the same run on the pod-sharded engine, whose records
  /// must equal the unsharded run's.
  std::optional<nu::sim::SimConfig> sharded;
  /// Each run checkpoints into a fresh directory, deleted afterwards.
  bool checkpointed = false;
  /// Empty when background churn is off.
  nu::sim::Simulator::ChurnFactory churn;
  std::function<std::unique_ptr<nu::sched::Scheduler>()> make_scheduler;
};

[[nodiscard]] std::unique_ptr<Instance> BuildInstance(WorkloadKind kind,
                                                      std::uint64_t seed);

/// A run simulates a panel of instances whose seeds derive from the run's
/// seed, so that its metrics average over inputs instead of hanging on one
/// draw. Returns the panel's instance seeds.
[[nodiscard]] std::vector<std::uint64_t> PanelSeeds(WorkloadKind kind,
                                                    std::uint64_t seed);

}  // namespace perfbench
