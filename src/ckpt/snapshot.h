// Snapshot file framing for crash-consistent checkpointing.
//
// A snapshot file is an opaque serialized payload (produced by the
// simulator's state serializer) wrapped in a self-validating frame:
//
//   u64 magic "NUSNAP01"  | u32 format version | u64 payload size
//   u32 CRC32(payload)    | payload bytes
//
// Writes are atomic: the frame is written to `<path>.tmp` and renamed into
// place, so a crash during a snapshot write leaves at most a stray .tmp
// file and never a half-visible snapshot. Readers validate magic, version,
// size, and checksum and throw SnapshotCorruption on any mismatch —
// recovery treats that as "fall back to an older snapshot", never as data.
//
// Version policy: the version is bumped on ANY payload layout change and
// readers require an exact match. Snapshots are short-lived run artifacts
// (a crashed run is resumed by the same binary), not archives, so there is
// deliberately no cross-version migration path.
#pragma once

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>

namespace nu::ckpt {

/// Current snapshot payload format version.
/// v2: network section stores canonically sorted link-flow id lists and an
/// interned used-paths table (paths written once, placements reference them
/// by table index) instead of a deep path per placement.
/// v4: serve-mode runs append a serve section (brownout state machine,
/// tenant budgets/ledgers, percentile sketch, timeseries rows) after the
/// dynamic-fault list; absent when SimConfig::serve is disabled.
/// v5: sharded runs append a shard section (partition fingerprint + the
/// engine's logical counters) after the serve section; absent when
/// SimConfig::shards < 2. Thread count never affects the payload.
/// v6: grey-failure/reconciliation runs append a recon section (dataplane
/// divergence set, reconciler health/backoff/streaks/stats, grey RNG
/// state) after the shard section; absent when both SimConfig::faults.grey
/// and SimConfig::recon are disabled. The shard section gains the recon
/// fan-out counters, and the timeline accepts the three appended
/// occurrence kinds (kGreyApply, kRuleLoss, kReconcile).
/// v7: each state owner writes its own section in a fixed order
/// (docs/model.md §11); per-process probe fields, the removed probe paths'
/// counters and the fan-out counters left the payload.
/// v8: the shard section is gone; a sharded run writes the same bytes as
/// an unsharded one, so a run may resume with a different shard setting.
/// v9: the network section drops the per-link flow lists (LoadState
/// rebuilds them from the placements), and the serve timeseries stores
/// typed fixed-width rows instead of formatted CSV strings.
inline constexpr std::uint32_t kSnapshotVersion = 9;

/// Thrown when a snapshot file fails frame validation (bad magic, version
/// mismatch, truncation, or checksum failure).
class SnapshotCorruption : public std::runtime_error {
 public:
  explicit SnapshotCorruption(const std::string& what)
      : std::runtime_error("snapshot corruption: " + what) {}
};

/// Atomically writes `payload` to `path` (tmp file + rename) framed with
/// magic, version, length, and CRC32. Returns total bytes on disk.
std::uint64_t WriteSnapshotFile(const std::filesystem::path& path,
                                std::string_view payload);

/// Reads and validates a snapshot file, returning the raw payload.
/// Throws SnapshotCorruption on any frame violation and
/// std::runtime_error when the file cannot be opened.
[[nodiscard]] std::string ReadSnapshotFile(const std::filesystem::path& path);

}  // namespace nu::ckpt
