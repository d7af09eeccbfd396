#include "lightzone/backend.h"

namespace lz::core {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kTtbrPan: return "ttbr_pan";
    case BackendKind::kPoe: return "poe";
    case BackendKind::kCca: return "cca";
    case BackendKind::kWatchpoint: return "watchpoint";
    case BackendKind::kLwc: return "lwc";
  }
  return "?";
}

std::optional<BackendKind> backend_from_string(std::string_view name) {
  for (const BackendKind k :
       {BackendKind::kTtbrPan, BackendKind::kPoe, BackendKind::kCca,
        BackendKind::kWatchpoint, BackendKind::kLwc}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

int max_domains(BackendKind kind) {
  return kind == BackendKind::kWatchpoint ? 17 : 1 << 16;
}

Cycles TtbrPanBackend::access(VirtAddr va) {
  // The real mechanism executes a real load: the access goes through the
  // active domain table (and stage-2), hitting or walking the TLBs.
  auto& m = module_->machine();
  const Cycles start = m.cycles();
  m.core().mem_read(va, 8);
  return m.cycles() - start;
}

}  // namespace lz::core
