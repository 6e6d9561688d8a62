// The checkpoint subsystem's determinism oracle: crash a fixed-seed run at
// ANY round (pre-round and mid-round), recover it, and require the final
// per-event records CSV to be byte-identical — and the report CSV identical
// after normalizing the per-process wall-clock/recovery columns — to the
// uninterrupted run. Swept across fifo/lmtf/p-lmtf with fault injection and
// the guard subsystem enabled, so recovery is exercised against the
// gnarliest state the simulator can hold (deferred flows, retries, watchdog
// generations, fault timelines).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/journal.h"
#include "ckpt/snapshot.h"
#include "common/binio.h"
#include "exp/serve.h"
#include "fault/fault_plan.h"
#include "metrics/export.h"
#include "sched/factory.h"
#include "sim/simulator.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"

namespace nu::sim {
namespace {

namespace fs = std::filesystem;

struct Fixture {
  Fixture()
      : ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0}),
        provider(ft),
        network(ft.graph()) {}

  [[nodiscard]] flow::Flow MakeFlow(std::size_t src, std::size_t dst,
                                    Mbps demand, Seconds duration) const {
    flow::Flow f;
    f.src = ft.host(src);
    f.dst = ft.host(dst);
    f.demand = demand;
    f.duration = duration;
    return f;
  }

  topo::FatTree ft;
  topo::FatTreePathProvider provider;
  net::Network network;
};

/// A workload wide enough to produce several rounds under every scheduler:
/// staggered arrivals, mixed flow counts, overlapping lifetimes.
std::vector<update::UpdateEvent> MakeEvents(const Fixture& fx) {
  std::vector<update::UpdateEvent> events;
  std::uint64_t id = 0;
  for (std::size_t wave = 0; wave < 4; ++wave) {
    for (std::size_t i = 0; i < 2; ++i) {
      std::vector<flow::Flow> flows;
      const std::size_t count = 2 + (wave + i) % 3;
      for (std::size_t f = 0; f < count; ++f) {
        flows.push_back(fx.MakeFlow((id + f) % 16, (id + f + 5) % 16,
                                    8.0 + static_cast<double>(f),
                                    20.0 + static_cast<double>(wave) * 5.0));
      }
      events.emplace_back(EventId{id}, 0.4 * static_cast<double>(wave) +
                                           0.1 * static_cast<double>(i),
                          std::move(flows));
      ++id;
    }
  }
  return events;
}

/// Faults + guard on: the determinism oracle must hold in the lossy regime
/// too, where flows die mid-install and the watchdog rolls attempts back.
SimConfig OracleConfig(const Fixture& fx) {
  SimConfig config;
  config.seed = 20260805;
  config.cost_model.plan_time_per_flow = 0.002;
  config.cost_model.install_time_per_flow = 0.05;
  config.faults.plan.AddLinkOutage(0.6, 2.0,
                                   fx.ft.graph().OutLinks(fx.ft.host(0))[0]);
  config.faults.flaky.failure_probability = 0.2;
  config.faults.flaky.latency_jitter_frac = 0.15;
  config.faults.retry.max_attempts = 3;
  config.faults.retry.base_delay = 0.05;
  config.guard.overload.max_queue_length = 6;
  config.guard.deadline.base_deadline = 5.0;
  config.guard.deadline.per_flow_deadline = 1.0;
  config.guard.deadline.requeue_backoff = 0.5;
  config.guard.deadline.max_failures = 3;
  config.guard.auditor = {.enabled = true,
                          .mode = guard::AuditMode::kFailFast,
                          .cadence = 1};
  return config;
}

std::string RecordsCsv(const SimResult& result) {
  std::ostringstream out;
  metrics::WriteRecordsCsv(out, result.records);
  return out.str();
}

/// Report CSV with the per-process columns zeroed: real wall-clock and
/// what-this-process-did recovery counters legitimately differ between an
/// uninterrupted run and a crash+recover pair. Every OTHER column —
/// including the deterministic ckpt_snapshots/ckpt_wal_records totals and
/// all probe counters — must match exactly.
std::string NormalizedReportCsv(const SimResult& result) {
  metrics::Report report = result.report;
  report.ckpt_recoveries = 0;
  report.ckpt_wal_replayed = 0;
  report.ckpt_snapshot_bytes = 0.0;
  report.ckpt_snapshot_wall_seconds = 0.0;
  report.ckpt_recovery_wall_seconds = 0.0;
  std::ostringstream out;
  metrics::WriteReportCsv(out, report);
  return out.str();
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() / ("nu_crash_recovery_" + tag)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

SimResult RunWith(const Fixture& fx, const SimConfig& config,
                  sched::SchedulerKind kind,
                  std::span<const update::UpdateEvent> events) {
  Simulator sim(fx.network, fx.provider, config);
  const auto scheduler = sched::MakeScheduler(kind);
  return sim.Run(*scheduler, events);
}

class CrashRecoveryTest : public ::testing::TestWithParam<sched::SchedulerKind> {
};

/// Enabling checkpointing (without crashing) must not change any scheduling
/// outcome: the per-event records are byte-identical to the plain run, and
/// nothing is drawn from any Rng.
TEST_P(CrashRecoveryTest, CheckpointingIsObservationallyTransparent) {
  const Fixture fx;
  const auto events = MakeEvents(fx);
  const SimConfig plain = OracleConfig(fx);
  const SimResult baseline = RunWith(fx, plain, GetParam(), events);

  TempDir dir("transparent_" + std::string(ToString(GetParam())));
  SimConfig with_ckpt = plain;
  with_ckpt.checkpoint.dir = dir.path().string();
  with_ckpt.checkpoint.cadence = 1;
  const SimResult checkpointed = RunWith(fx, with_ckpt, GetParam(), events);

  EXPECT_EQ(RecordsCsv(checkpointed), RecordsCsv(baseline));
  EXPECT_EQ(checkpointed.rounds, baseline.rounds);
  EXPECT_GT(checkpointed.report.ckpt_snapshots, 0u);
  EXPECT_GT(checkpointed.report.ckpt_wal_records, 0u);
  EXPECT_FALSE(checkpointed.recovery.recovered);
}

/// The oracle proper: for every crash round and both crash points, the
/// crashed-and-recovered run reproduces the uninterrupted checkpointed run
/// bit-for-bit.
TEST_P(CrashRecoveryTest, CrashAtAnyRoundRecoversBitIdentical) {
  const Fixture fx;
  const auto events = MakeEvents(fx);
  const sched::SchedulerKind kind = GetParam();

  TempDir ref_dir("ref_" + std::string(ToString(kind)));
  SimConfig ref_config = OracleConfig(fx);
  ref_config.checkpoint.dir = ref_dir.path().string();
  ref_config.checkpoint.cadence = 2;
  const SimResult reference = RunWith(fx, ref_config, kind, events);
  const std::string want_records = RecordsCsv(reference);
  const std::string want_report = NormalizedReportCsv(reference);
  ASSERT_GE(reference.rounds, 3u);

  for (const fault::CrashPoint point :
       {fault::CrashPoint::kBeforeRound, fault::CrashPoint::kMidRound}) {
    for (std::size_t crash_round = 1; crash_round <= reference.rounds;
         ++crash_round) {
      const std::string tag =
          std::string(ToString(kind)) + "_r" + std::to_string(crash_round) +
          (point == fault::CrashPoint::kMidRound ? "_mid" : "_pre");
      TempDir dir(tag);
      SimConfig config = ref_config;
      config.checkpoint.dir = dir.path().string();
      config.faults.crash.at_round = crash_round;
      config.faults.crash.point = point;

      Simulator sim(fx.network, fx.provider, config);
      const auto scheduler = sched::MakeScheduler(kind);
      EXPECT_THROW((void)sim.Run(*scheduler, events), fault::ControllerCrash)
          << tag;

      // Recover with a FRESH simulator and scheduler — nothing survives the
      // crash in memory, only the checkpoint directory.
      Simulator recovered_sim(fx.network, fx.provider, config);
      const auto recovered_sched = sched::MakeScheduler(kind);
      const SimResult recovered =
          recovered_sim.Resume(*recovered_sched, events);

      EXPECT_TRUE(recovered.recovery.recovered) << tag;
      EXPECT_EQ(RecordsCsv(recovered), want_records) << tag;
      EXPECT_EQ(NormalizedReportCsv(recovered), want_report) << tag;
      EXPECT_EQ(recovered.report.ckpt_recoveries, 1u) << tag;
      if (point == fault::CrashPoint::kMidRound) {
        // kMidRound tears the record being written; recovery must have
        // truncated it rather than replayed it.
        EXPECT_GT(recovered.recovery.torn_bytes_truncated, 0u) << tag;
      }
    }
  }
}

/// Crash-during-repair: the oracle with a lying dataplane and the
/// reconciler on. Mid-repair state (tracked divergence, retry backoff,
/// health EWMAs, in-flight grey applies, the armed reconcile tick) all
/// rides the snapshot; killing the run at every round must still replay to
/// identical bytes.
TEST_P(CrashRecoveryTest, CrashDuringRepairRecoversBitIdentical) {
  const Fixture fx;
  const auto events = MakeEvents(fx);
  const sched::SchedulerKind kind = GetParam();

  TempDir ref_dir("grey_ref_" + std::string(ToString(kind)));
  SimConfig ref_config = OracleConfig(fx);
  ref_config.faults.grey = fault::ParseGreyModel(
      "acklie:0.25+straggler:0.3:0.1:0.5+loss:0.15:0.5:1.5");
  ref_config.recon.enabled = true;
  // Audit every 4th occurrence: the count since the last pass then rides
  // the snapshot, and a wrong restore of it shifts `audits_run`.
  ref_config.guard.auditor = {.enabled = true,
                              .mode = guard::AuditMode::kLogAndCount,
                              .cadence = 4};
  ref_config.checkpoint.dir = ref_dir.path().string();
  ref_config.checkpoint.cadence = 2;
  const SimResult reference = RunWith(fx, ref_config, kind, events);
  const std::string want_records = RecordsCsv(reference);
  const std::string want_report = NormalizedReportCsv(reference);
  ASSERT_GE(reference.rounds, 3u);
  EXPECT_TRUE(reference.violations.empty());
  // The run must actually have been drifting, or this proves nothing.
  ASSERT_GT(reference.report.drift_rules_detected, 0u);
  ASSERT_GT(reference.report.drift_repairs, 0u);

  for (const fault::CrashPoint point :
       {fault::CrashPoint::kBeforeRound, fault::CrashPoint::kMidRound}) {
    for (std::size_t crash_round = 1; crash_round <= reference.rounds;
         ++crash_round) {
      const std::string tag =
          "grey_" + std::string(ToString(kind)) + "_r" +
          std::to_string(crash_round) +
          (point == fault::CrashPoint::kMidRound ? "_mid" : "_pre");
      TempDir dir(tag);
      SimConfig config = ref_config;
      config.checkpoint.dir = dir.path().string();
      config.faults.crash.at_round = crash_round;
      config.faults.crash.point = point;

      Simulator sim(fx.network, fx.provider, config);
      const auto scheduler = sched::MakeScheduler(kind);
      EXPECT_THROW((void)sim.Run(*scheduler, events), fault::ControllerCrash)
          << tag;

      Simulator recovered_sim(fx.network, fx.provider, config);
      const auto recovered_sched = sched::MakeScheduler(kind);
      const SimResult recovered =
          recovered_sim.Resume(*recovered_sched, events);

      EXPECT_TRUE(recovered.recovery.recovered) << tag;
      EXPECT_EQ(RecordsCsv(recovered), want_records) << tag;
      EXPECT_EQ(NormalizedReportCsv(recovered), want_report) << tag;
      EXPECT_TRUE(recovered.violations.empty()) << tag;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, CrashRecoveryTest,
                         ::testing::Values(sched::SchedulerKind::kFifo,
                                           sched::SchedulerKind::kLmtf,
                                           sched::SchedulerKind::kPlmtf));

/// A corrupt newest snapshot must not end recovery: the restore falls back
/// to the previous snapshot and replays its (longer) journal instead.
TEST(CrashRecoveryFallbackTest, CorruptNewestSnapshotFallsBackAndRecovers) {
  const Fixture fx;
  const auto events = MakeEvents(fx);

  TempDir ref_dir("fallback_ref");
  SimConfig config = OracleConfig(fx);
  config.checkpoint.dir = ref_dir.path().string();
  config.checkpoint.cadence = 1;
  const SimResult reference =
      RunWith(fx, config, sched::SchedulerKind::kLmtf, events);
  ASSERT_GE(reference.rounds, 4u);

  TempDir dir("fallback");
  config.checkpoint.dir = dir.path().string();
  config.faults.crash.at_round = 4;
  {
    Simulator sim(fx.network, fx.provider, config);
    const auto scheduler = sched::MakeScheduler(sched::SchedulerKind::kLmtf);
    EXPECT_THROW((void)sim.Run(*scheduler, events), fault::ControllerCrash);
  }
  const auto rounds = ckpt::ListSnapshotRounds(dir.path());
  ASSERT_GE(rounds.size(), 2u);
  // Flip one payload byte of the newest snapshot.
  const fs::path newest = ckpt::SnapshotPath(dir.path(), rounds.front());
  {
    std::fstream f(newest, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(30);
    char c = 0;
    f.seekg(30);
    f.get(c);
    f.seekp(30);
    f.put(static_cast<char>(c ^ 0x20));
  }

  Simulator sim(fx.network, fx.provider, config);
  const auto scheduler = sched::MakeScheduler(sched::SchedulerKind::kLmtf);
  const SimResult recovered = sim.Resume(*scheduler, events);
  EXPECT_TRUE(recovered.recovery.recovered);
  EXPECT_EQ(recovered.recovery.snapshots_skipped, 1u);
  EXPECT_EQ(recovered.recovery.snapshot_round, rounds[1]);
  EXPECT_EQ(RecordsCsv(recovered), RecordsCsv(reference));
}

/// A newest snapshot that passes its CRC but is inconsistent inside must
/// fall back too: here its second flow record repeats the first one's id,
/// which LoadState rejects as CorruptInput instead of aborting.
TEST(CrashRecoveryFallbackTest, InconsistentNewestSnapshotFallsBack) {
  const Fixture fx;
  const auto events = MakeEvents(fx);

  TempDir ref_dir("inconsistent_ref");
  SimConfig config = OracleConfig(fx);
  config.checkpoint.dir = ref_dir.path().string();
  config.checkpoint.cadence = 1;
  const SimResult reference =
      RunWith(fx, config, sched::SchedulerKind::kLmtf, events);
  ASSERT_GE(reference.rounds, 4u);

  TempDir dir("inconsistent");
  config.checkpoint.dir = dir.path().string();
  config.faults.crash.at_round = 4;
  {
    Simulator sim(fx.network, fx.provider, config);
    const auto scheduler = sched::MakeScheduler(sched::SchedulerKind::kLmtf);
    EXPECT_THROW((void)sim.Run(*scheduler, events), fault::ControllerCrash);
  }
  const auto rounds = ckpt::ListSnapshotRounds(dir.path());
  ASSERT_GE(rounds.size(), 2u);
  const fs::path newest = ckpt::SnapshotPath(dir.path(), rounds.front());
  std::string payload = ckpt::ReadSnapshotFile(newest);
  // The payload opens with Network::SaveState: a u32 topology fingerprint,
  // then FlowTable::SaveState's u64 next id, u64 record count and 41-byte
  // records, each led by its u64 flow id.
  constexpr std::size_t kFirstRecord = 4 + 8 + 8;
  constexpr std::size_t kRecordBytes = 8 + 4 + 4 + 8 + 8 + 1 + 8;
  {
    BinReader r(payload);
    (void)r.U32();
    (void)r.U64();
    ASSERT_GE(r.Size(), 2u) << "snapshot holds too few flows to duplicate";
  }
  std::copy_n(payload.begin() + kFirstRecord, 8,
              payload.begin() + kFirstRecord + kRecordBytes);
  (void)ckpt::WriteSnapshotFile(newest, payload);  // fresh, valid CRC

  Simulator sim(fx.network, fx.provider, config);
  const auto scheduler = sched::MakeScheduler(sched::SchedulerKind::kLmtf);
  const SimResult recovered = sim.Resume(*scheduler, events);
  EXPECT_TRUE(recovered.recovery.recovered);
  EXPECT_EQ(recovered.recovery.snapshots_skipped, 1u);
  EXPECT_EQ(recovered.recovery.snapshot_round, rounds[1]);
  EXPECT_EQ(RecordsCsv(recovered), RecordsCsv(reference));
}

/// Crashes the lmtf oracle run at round 4, applies `edit` to the newest
/// snapshot's payload and rewrites it with a valid CRC. Recovery must fall
/// back past it to the previous snapshot and still finish like the
/// uninterrupted run.
void ExpectFallbackPastEditedNewest(
    const std::string& tag,
    const std::function<void(const Fixture&, std::string&)>& edit) {
  const Fixture fx;
  const auto events = MakeEvents(fx);

  TempDir ref_dir(tag + "_ref");
  SimConfig config = OracleConfig(fx);
  config.checkpoint.dir = ref_dir.path().string();
  config.checkpoint.cadence = 1;
  const SimResult reference =
      RunWith(fx, config, sched::SchedulerKind::kLmtf, events);
  ASSERT_GE(reference.rounds, 4u);

  TempDir dir(tag);
  config.checkpoint.dir = dir.path().string();
  config.faults.crash.at_round = 4;
  {
    Simulator sim(fx.network, fx.provider, config);
    const auto scheduler = sched::MakeScheduler(sched::SchedulerKind::kLmtf);
    EXPECT_THROW((void)sim.Run(*scheduler, events), fault::ControllerCrash);
  }
  const auto rounds = ckpt::ListSnapshotRounds(dir.path());
  ASSERT_GE(rounds.size(), 2u);
  const fs::path newest = ckpt::SnapshotPath(dir.path(), rounds.front());
  std::string payload = ckpt::ReadSnapshotFile(newest);
  edit(fx, payload);
  (void)ckpt::WriteSnapshotFile(newest, payload);  // fresh, valid CRC

  Simulator sim(fx.network, fx.provider, config);
  const auto scheduler = sched::MakeScheduler(sched::SchedulerKind::kLmtf);
  const SimResult recovered = sim.Resume(*scheduler, events);
  EXPECT_TRUE(recovered.recovery.recovered);
  EXPECT_EQ(recovered.recovery.snapshots_skipped, 1u);
  EXPECT_EQ(recovered.recovery.snapshot_round, rounds[1]);
  EXPECT_EQ(RecordsCsv(recovered), RecordsCsv(reference));
}

/// A newest snapshot whose flow record names a source past the node count
/// passes its CRC but disagrees with the flow's path, so recovery falls
/// back instead of aborting when the flow's candidate paths are first
/// asked for.
TEST(CrashRecoveryFallbackTest, FlowSourcePastNodeCountFallsBack) {
  ExpectFallbackPastEditedNewest(
      "foreign_src", [](const Fixture& fx, std::string& payload) {
        // The first flow record follows the u32 fingerprint, the u64 next
        // id and the u64 record count; its u32 source follows its u64 id.
        constexpr std::size_t kFirstSource = 4 + 8 + 8 + 8;
        BinWriter source;
        source.U32(static_cast<std::uint32_t>(fx.ft.graph().node_count() + 5));
        payload.replace(kFirstSource, 4, source.buffer());
      });
}

/// The collector section follows the network section: a u64 record count,
/// then 81-byte records, each led by its u64 event id and holding its u64
/// flow count at byte 40. Returns the offset of the count.
std::size_t CollectorOffset(const Fixture& fx, const std::string& payload) {
  net::Network scratch(fx.ft.graph());
  BinReader r(payload);
  scratch.LoadState(r);
  return r.position();
}

constexpr std::size_t kRecordBytes = 10 * 8 + 1;

/// Arrivals are recorded only as they are ingested, in arrival order, so a
/// collector section whose records disagree with the ingested arrivals is
/// corrupt: each edit below used to load and then abort in Collector::Find
/// or skew the records.
TEST(CrashRecoveryFallbackTest, CollectorRecordForAnUnknownEventFallsBack) {
  ExpectFallbackPastEditedNewest(
      "collector_unknown", [](const Fixture& fx, std::string& payload) {
        const std::size_t first = CollectorOffset(fx, payload) + 8;
        BinWriter id;
        id.U64(999);
        payload.replace(first, 8, id.buffer());
      });
}

TEST(CrashRecoveryFallbackTest, CollectorRecordWithOtherFlowCountFallsBack) {
  ExpectFallbackPastEditedNewest(
      "collector_flows", [](const Fixture& fx, std::string& payload) {
        const std::size_t flow_count = CollectorOffset(fx, payload) + 8 + 40;
        ++payload[flow_count];
      });
}

TEST(CrashRecoveryFallbackTest, CollectorRecordsOutOfArrivalOrderFallBack) {
  ExpectFallbackPastEditedNewest(
      "collector_order", [](const Fixture& fx, std::string& payload) {
        const std::size_t first = CollectorOffset(fx, payload) + 8;
        const std::string second = payload.substr(first + kRecordBytes,
                                                  kRecordBytes);
        payload.replace(first + kRecordBytes, kRecordBytes,
                        payload.substr(first, kRecordBytes));
        payload.replace(first, kRecordBytes, second);
      });
}

TEST(CrashRecoveryFallbackTest, CollectorMissingARecordFallsBack) {
  ExpectFallbackPastEditedNewest(
      "collector_short", [](const Fixture& fx, std::string& payload) {
        const std::size_t at = CollectorOffset(fx, payload);
        BinReader r(std::string_view(payload).substr(at));
        const std::uint64_t count = r.U64();
        ASSERT_GE(count, 2u);
        BinWriter fewer;
        fewer.U64(count - 1);
        payload.replace(at, 8, fewer.buffer());
        payload.erase(at + 8 + (count - 1) * kRecordBytes, kRecordBytes);
      });
}

/// Snapshots of another topology are corrupt input: resuming a k=4 run's
/// checkpoint directory over a k=6 fabric skips every snapshot and ends in
/// RecoveryError, not an abort.
TEST(CrashRecoveryFallbackTest, ForeignTopologyCheckpointIsARecoveryError) {
  const Fixture fx;
  const auto events = MakeEvents(fx);
  TempDir dir("foreign_topology");
  SimConfig config = OracleConfig(fx);
  config.checkpoint.dir = dir.path().string();
  config.checkpoint.cadence = 1;
  config.faults.crash.at_round = 3;
  {
    Simulator sim(fx.network, fx.provider, config);
    const auto scheduler = sched::MakeScheduler(sched::SchedulerKind::kFifo);
    EXPECT_THROW((void)sim.Run(*scheduler, events), fault::ControllerCrash);
  }
  ASSERT_GE(ckpt::ListSnapshotRounds(dir.path()).size(), 2u);

  const topo::FatTree big(topo::FatTreeConfig{.k = 6, .link_capacity = 100.0});
  const topo::FatTreePathProvider big_paths(big);
  const net::Network big_network(big.graph());
  Simulator sim(big_network, big_paths, config);
  const auto scheduler = sched::MakeScheduler(sched::SchedulerKind::kFifo);
  EXPECT_THROW((void)sim.Resume(*scheduler, events), RecoveryError);
}

/// Two identical runs in one process write byte-identical snapshots: no
/// host clock reading, and no sample of process-wide state (the path
/// registry earlier runs filled), rides in the payload. The shard setting
/// is not state either, so a sharded third run writes the same bytes.
TEST(CrashRecoverySnapshotTest, IdenticalRunsWriteIdenticalBytes) {
  const Fixture fx;
  const auto events = MakeEvents(fx);
  std::vector<std::vector<std::string>> runs;
  for (int run = 0; run < 3; ++run) {
    TempDir dir("identical_" + std::to_string(run));
    SimConfig config = OracleConfig(fx);
    config.checkpoint.dir = dir.path().string();
    config.checkpoint.cadence = 1;
    if (run == 2) {
      config.shards = fx.ft.pod_count();
      config.shard_threads = 2;
    }
    (void)RunWith(fx, config, sched::SchedulerKind::kLmtf, events);
    std::vector<std::string> snapshots;
    for (const std::uint64_t round : ckpt::ListSnapshotRounds(dir.path())) {
      std::ifstream in(ckpt::SnapshotPath(dir.path(), round),
                       std::ios::binary);
      snapshots.emplace_back(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
    }
    runs.push_back(std::move(snapshots));
  }
  ASSERT_GE(runs[0].size(), 4u);
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[0].size(), runs[run].size()) << "run " << run;
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[0][i], runs[run][i])
          << "run " << run << " snapshot " << i << " differs";
    }
  }
}

/// Every snapshot file of one small run that writes every section — serve
/// (brownout, budgets, ledger, sketch, timeseries), the grey model and the
/// reconciler, flaky installs, a link and a pod outage with cascades, the
/// bounded queue, the watchdog and the auditor, and churn — keeps the
/// length and CRC-32 the payload format pins (snapshot format v10).
TEST(CrashRecoverySnapshotTest, EveryFileMatchesPinnedLengthAndCrc) {
  TempDir dir("pinned_bytes");
  exp::ServeCampaignConfig campaign = exp::DefaultServeCampaign(1.0);
  campaign.exp.seed = 27;
  campaign.serve.arrivals.duration = 12.0;
  campaign.offered_load = 2.0;
  campaign.pod_outage = true;
  campaign.pod_outage_time = 4.0;
  campaign.pod_outage_duration = 3.0;
  fault::FaultConfig& faults = campaign.exp.sim.faults;
  const topo::FatTree ft(topo::FatTreeConfig{.k = 4});
  faults.plan.AddLinkOutage(2.0, 4.0, ft.graph().OutLinks(ft.core(0))[0]);
  faults.cascade = {.max_secondary_failures = 2,
                    .utilization_threshold = 0.9,
                    .hold_time = 0.3,
                    .outage = 2.0};
  faults.flaky.failure_probability = 0.2;
  faults.flaky.latency_jitter_frac = 0.1;
  faults.retry.max_attempts = 3;
  faults.retry.base_delay = 0.05;
  faults.grey = fault::ParseGreyModel(
      "acklie:0.05+straggler:0.1:0.1:0.5+loss:0.05:0.5:1.5");
  campaign.exp.sim.recon.enabled = true;
  campaign.exp.sim.checkpoint.dir = dir.path().string();
  campaign.exp.sim.checkpoint.cadence = 2;
  const SimResult result = exp::RunServeCampaign(campaign);

  ASSERT_GE(result.report.drift_checks, 1u);

  struct File {
    std::uint64_t round;
    std::size_t length;
    std::uint32_t crc;
    bool operator==(const File&) const = default;
  };
  const std::vector<File> want = {
      {16, 71635, 0x47c08254u}, {14, 91232, 0x8b56dee2u},
      {12, 87749, 0x6beaca11u}, {10, 84313, 0x6c979cf5u},
      {8, 79823, 0x317be717u},  {6, 77293, 0x4bc69627u},
      {4, 72208, 0x9c16924du},  {2, 65305, 0xb05a56b8u},
      {0, 95792, 0x5045b522u},
  };
  std::vector<File> got;
  for (const std::uint64_t round : ckpt::ListSnapshotRounds(dir.path())) {
    std::ifstream in(ckpt::SnapshotPath(dir.path(), round), std::ios::binary);
    const std::string file{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    got.push_back({round, file.size(), Crc32(file)});
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i])
        << "snapshot of round " << got[i].round << ": " << got[i].length
        << " bytes, CRC-32 0x" << std::hex << got[i].crc;
  }
}

/// Because the snapshot carries no shard state, a run crashed under one
/// shard setting resumes under the other — sharded to unsharded and back —
/// and still reproduces the uninterrupted run byte for byte.
TEST(CrashRecoveryShardTest, ResumesAcrossShardModes) {
  const Fixture fx;
  const auto events = MakeEvents(fx);
  const sched::SchedulerKind kind = sched::SchedulerKind::kLmtf;
  SimConfig plain = OracleConfig(fx);
  plain.checkpoint.cadence = 2;
  SimConfig sharded = plain;
  sharded.shards = fx.ft.pod_count();
  sharded.shard_threads = 2;

  TempDir ref_dir("shard_modes_ref");
  SimConfig ref_config = plain;
  ref_config.checkpoint.dir = ref_dir.path().string();
  const SimResult reference = RunWith(fx, ref_config, kind, events);
  ASSERT_GE(reference.rounds, 4u);
  const std::string want_records = RecordsCsv(reference);
  const std::string want_report = NormalizedReportCsv(reference);

  const struct {
    const char* tag;
    const SimConfig& crashed;
    const SimConfig& resumed;
  } legs[] = {{"sharded_to_plain", sharded, plain},
              {"plain_to_sharded", plain, sharded}};
  for (const auto& leg : legs) {
    TempDir dir(std::string("shard_modes_") + leg.tag);
    SimConfig crash_config = leg.crashed;
    crash_config.checkpoint.dir = dir.path().string();
    crash_config.faults.crash.at_round = 3;
    crash_config.faults.crash.point = fault::CrashPoint::kMidRound;
    {
      Simulator sim(fx.network, fx.provider, crash_config);
      const auto scheduler = sched::MakeScheduler(kind);
      EXPECT_THROW((void)sim.Run(*scheduler, events), fault::ControllerCrash)
          << leg.tag;
    }
    SimConfig resume_config = leg.resumed;
    resume_config.checkpoint.dir = dir.path().string();
    Simulator sim(fx.network, fx.provider, resume_config);
    const auto scheduler = sched::MakeScheduler(kind);
    const SimResult recovered = sim.Resume(*scheduler, events);
    EXPECT_TRUE(recovered.recovery.recovered) << leg.tag;
    EXPECT_EQ(recovered.shard_stats.enabled, leg.resumed.shards >= 2)
        << leg.tag;
    EXPECT_EQ(RecordsCsv(recovered), want_records) << leg.tag;
    EXPECT_EQ(NormalizedReportCsv(recovered), want_report) << leg.tag;
  }
}

/// A corrupted journal record must fail recovery loudly — an older snapshot
/// would silently skip verification, so this is not a fallback case.
TEST(CrashRecoveryFallbackTest, CorruptJournalFailsLoudly) {
  const Fixture fx;
  const auto events = MakeEvents(fx);

  TempDir dir("wal_corrupt");
  SimConfig config = OracleConfig(fx);
  config.checkpoint.dir = dir.path().string();
  config.checkpoint.cadence = 10'000;  // one snapshot, one long journal
  config.faults.crash.at_round = 3;
  {
    Simulator sim(fx.network, fx.provider, config);
    const auto scheduler = sched::MakeScheduler(sched::SchedulerKind::kFifo);
    EXPECT_THROW((void)sim.Run(*scheduler, events), fault::ControllerCrash);
  }
  const fs::path wal = ckpt::JournalPath(dir.path(), 0);
  ASSERT_GT(fs::file_size(wal), 20u);
  {
    // Flip a payload byte of the FIRST record (offset 10 sits inside its
    // payload: 8 bytes of framing + op + subject).
    std::fstream f(wal, std::ios::binary | std::ios::in | std::ios::out);
    char c = 0;
    f.seekg(10);
    f.get(c);
    f.seekp(10);
    f.put(static_cast<char>(c ^ 0x01));
  }
  Simulator sim(fx.network, fx.provider, config);
  const auto scheduler = sched::MakeScheduler(sched::SchedulerKind::kFifo);
  EXPECT_THROW((void)sim.Resume(*scheduler, events), ckpt::JournalCorruption);
}

/// A journal record that passes its CRC but does not match re-execution is
/// a divergence: the oracle's whole point is that this throws rather than
/// silently producing different results.
TEST(CrashRecoveryFallbackTest, TamperedJournalRecordIsADivergence) {
  const Fixture fx;
  const auto events = MakeEvents(fx);

  TempDir dir("wal_tamper");
  SimConfig config = OracleConfig(fx);
  config.checkpoint.dir = dir.path().string();
  config.checkpoint.cadence = 10'000;
  config.faults.crash.at_round = 3;
  {
    Simulator sim(fx.network, fx.provider, config);
    const auto scheduler = sched::MakeScheduler(sched::SchedulerKind::kFifo);
    EXPECT_THROW((void)sim.Run(*scheduler, events), fault::ControllerCrash);
  }
  const fs::path wal = ckpt::JournalPath(dir.path(), 0);
  const ckpt::JournalContents contents = ckpt::ReadJournal(wal);
  ASSERT_FALSE(contents.records.empty());
  // Re-frame the first record with a modified value and a VALID checksum.
  ckpt::WalRecord tampered = contents.records.front();
  tampered.value += 1.0;
  std::string bytes = ckpt::EncodeWalFrame(tampered);
  {
    std::fstream f(wal, std::ios::binary | std::ios::in | std::ios::out);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Simulator sim(fx.network, fx.provider, config);
  const auto scheduler = sched::MakeScheduler(sched::SchedulerKind::kFifo);
  EXPECT_THROW((void)sim.Resume(*scheduler, events), RecoveryError);
}

TEST(CrashRecoveryFallbackTest, ResumeWithoutCheckpointDirThrows) {
  const Fixture fx;
  const auto events = MakeEvents(fx);
  SimConfig config = OracleConfig(fx);
  Simulator sim(fx.network, fx.provider, config);
  const auto scheduler = sched::MakeScheduler(sched::SchedulerKind::kFifo);
  EXPECT_THROW((void)sim.Resume(*scheduler, events), RecoveryError);
}

TEST(CrashRecoveryFallbackTest, ResumeFromEmptyDirThrows) {
  const Fixture fx;
  const auto events = MakeEvents(fx);
  TempDir dir("empty");
  SimConfig config = OracleConfig(fx);
  config.checkpoint.dir = dir.path().string();
  Simulator sim(fx.network, fx.provider, config);
  const auto scheduler = sched::MakeScheduler(sched::SchedulerKind::kFifo);
  EXPECT_THROW((void)sim.Resume(*scheduler, events), RecoveryError);
}

}  // namespace
}  // namespace nu::sim
