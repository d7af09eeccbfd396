// Allocator for a hardware tag space (kernel ASIDs, VMIDs): IDs 1..max_id,
// 0 reserved (ASID 0 and VMID 0 belong to the host).
//
// A freed ID may still tag TLB entries: a process or VM can die without
// one invalidation per ID, and a remote core may hold entries for it. So a
// freed ID is not handed out again within the current generation. A
// bitmap marks every ID taken in this generation (live or freed since);
// alloc() hands out the first untaken ID at or after a next-fit cursor.
// When none is left the generation rolls over: the caller's covering TLBI
// (every ID of the space) runs first, then only the live IDs stay taken
// and the cursor restarts at 1 — the scheme of Linux arm64's new_context,
// with the rollover flush as the one invalidation recycling needs.
//
// Thread-safe: alloc() and free() serialize on one mutex, and the rollover
// flush runs under it, so no ID is handed out before its flush completes.
#pragma once

#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "support/types.h"

namespace lz {

class IdAllocator {
 public:
  // `flush_all` is the covering TLBI a rollover issues.
  IdAllocator(u32 max_id, std::function<void()> flush_all);

  // A fresh ID, or nullopt when every ID in 1..max_id is live.
  std::optional<u32> alloc();
  // Returns a live ID; it becomes reusable after the next rollover.
  void free(u32 id);

 private:
  // First ID in [from, max_] not set in taken_, or 0.
  u32 find_untaken(u32 from) const;

  const u32 max_;
  const std::function<void()> flush_all_;
  std::mutex mu_;
  std::vector<u64> live_;   // bit id: handed out and not freed
  std::vector<u64> taken_;  // bit id: live, or freed in this generation
  u32 cursor_ = 1;
};

}  // namespace lz
