// Fault-injecting ByteStorage decorator: the durable layer's failure
// modes, driven by the same deterministic Injector as the block-device
// faults.
//
// Two sites:
//   * kTornWriteSite — when it fires, only a PREFIX of the write (the
//     first half: kTornWriteKeepDivisor) reaches the inner storage and the
//     caller sees kTransientFailure. This is the real-disk torn write:
//     bytes landed, the syscall "failed", and only the caller's framing
//     (WAL record CRC, manifest slot CRC) makes the damage detectable.
//   * kShortSyncSite — when it fires, the sync does NOT reach the
//     inner storage and reports kTransientFailure: an fsync that
//     returned without making anything durable. A caller that treats
//     the commit as failed (DurableStore does) stays correct; the
//     crash-recovery tests pin that.
//
// Truncates pass through un-faulted (they are metadata ops the
// protocols already order around); reads are infallible at this layer
// by the ByteStorage contract.

#ifndef TOPK_FAULT_FAULTY_STORAGE_H_
#define TOPK_FAULT_FAULTY_STORAGE_H_

#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "em/block_device.h"
#include "em/storage.h"
#include "fault/failpoint.h"

namespace topk::fault {

inline constexpr const char kTornWriteSite[] = "storage.torn_write";
inline constexpr const char kShortSyncSite[] = "storage.short_sync";

// A torn write lands its first len / kTornWriteKeepDivisor bytes.
inline constexpr size_t kTornWriteKeepDivisor = 2;

class FaultyStorage final : public em::ByteStorage {
 public:
  FaultyStorage(em::ByteStorage* inner, Injector* injector)
      : inner_(inner), injector_(injector) {
    TOPK_CHECK(inner_ != nullptr);
    TOPK_CHECK(injector_ != nullptr);
  }

  uint64_t size() const override { return inner_->size(); }

  void Read(uint64_t offset, size_t len, uint8_t* out) const override {
    inner_->Read(offset, len, out);
  }

  [[nodiscard]] em::IoResult Write(uint64_t offset, const uint8_t* data,
                                   size_t len) override {
    if (injector_->Trigger(kTornWriteSite)) {
      ++torn_writes_;
      const size_t keep = len / kTornWriteKeepDivisor;
      if (keep > 0) {
        // The prefix lands regardless of what the inner storage says —
        // the torn bytes are already gone from the caller's control.
        (void)inner_->Write(offset, data, keep);
      }
      return em::IoResult::kTransientFailure;
    }
    return inner_->Write(offset, data, len);
  }

  [[nodiscard]] em::IoResult Sync() override {
    if (injector_->Trigger(kShortSyncSite)) {
      ++short_syncs_;
      return em::IoResult::kTransientFailure;
    }
    return inner_->Sync();
  }

  [[nodiscard]] em::IoResult Truncate(uint64_t new_size) override {
    return inner_->Truncate(new_size);
  }

  uint64_t torn_writes() const { return torn_writes_; }
  uint64_t short_syncs() const { return short_syncs_; }

 private:
  em::ByteStorage* inner_;
  Injector* injector_;
  uint64_t torn_writes_ = 0;
  uint64_t short_syncs_ = 0;
};

}  // namespace topk::fault

#endif  // TOPK_FAULT_FAULTY_STORAGE_H_
