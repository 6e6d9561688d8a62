#include "sched/factory.h"

#include "common/text.h"

namespace nu::sched {

const char* ToString(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo:
      return "fifo";
    case SchedulerKind::kReorder:
      return "reorder";
    case SchedulerKind::kLmtf:
      return "lmtf";
    case SchedulerKind::kPlmtf:
      return "p-lmtf";
    case SchedulerKind::kSjf:
      return "sjf-size";
  }
  return "?";
}

SchedulerKind ParseSchedulerKind(const std::string& name) {
  if (name == "fifo") return SchedulerKind::kFifo;
  if (name == "reorder") return SchedulerKind::kReorder;
  if (name == "lmtf") return SchedulerKind::kLmtf;
  if (name == "p-lmtf" || name == "plmtf") return SchedulerKind::kPlmtf;
  if (name == "sjf-size" || name == "sjf") return SchedulerKind::kSjf;
  throw CorruptInput("unknown scheduler '" + name + "'");
}

std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind,
                                         LmtfConfig config) {
  switch (kind) {
    case SchedulerKind::kFifo:
      return std::make_unique<FifoScheduler>();
    case SchedulerKind::kReorder:
      return std::make_unique<ReorderScheduler>();
    case SchedulerKind::kLmtf:
      return std::make_unique<LmtfScheduler>(config);
    case SchedulerKind::kPlmtf:
      return std::make_unique<PlmtfScheduler>(config);
    case SchedulerKind::kSjf:
      return std::make_unique<SjfScheduler>(config);
  }
  return nullptr;
}

}  // namespace nu::sched
