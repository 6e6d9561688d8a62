// Scheduler construction by name/kind — shared by benches, examples, and the
// experiment runner so configurations can name the policy textually.
#pragma once

#include <memory>
#include <string>

#include "sched/fifo.h"
#include "sched/lmtf.h"
#include "sched/plmtf.h"
#include "sched/reorder.h"
#include "sched/sjf.h"

namespace nu::sched {

enum class SchedulerKind : std::uint8_t {
  kFifo,
  kReorder,
  kLmtf,
  kPlmtf,
  kSjf,
};

[[nodiscard]] const char* ToString(SchedulerKind kind);

/// Parses "fifo" | "reorder" | "lmtf" | "p-lmtf" (or "plmtf") | "sjf-size"
/// (or "sjf"). Throws CorruptInput on unknown names.
[[nodiscard]] SchedulerKind ParseSchedulerKind(const std::string& name);

[[nodiscard]] std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind,
                                                       LmtfConfig config = {});

}  // namespace nu::sched
