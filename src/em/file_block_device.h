// File-backed persistence: FileStorage (a ByteStorage over a POSIX
// file descriptor) and FileBlockDevice (a BlockDevice whose pages live
// in a ByteStorage instead of in-memory vectors).
//
// Substitution rule (the tentpole contract): FileBlockDevice sits
// behind the exact same virtual TryRead/TryWrite surface as the
// in-memory simulator and charges its counters identically — one read
// per successful page-in, one write per successful page-out, nothing
// for Allocate (a fresh page is paid for at first write-back, the
// Aggarwal–Vitter accounting the simulator pins in tests). A BufferPool
// or fault-decorator chain stacked on either backend therefore produces
// the SAME I/O counts for the same operation sequence; bench_persist
// (E26) measures that equivalence on a live workload, and the
// in-memory simulator stays the default backend everywhere I/O counts
// are asserted exactly.
//
// Page i occupies bytes [i * page_size, (i+1) * page_size) of the
// storage, so reopening a device over an existing storage recovers the
// page count from the byte size — that is the whole reopen path; which
// pages MEAN something is the checkpoint manifest's job
// (em/checkpoint.h).
//
// This header (with its .cc) is the sanctioned home for raw file I/O —
// tools/analyze.py's `io` rule keeps open/pread/pwrite/fsync from leaking
// into other modules, so every durability decision stays behind
// ByteStorage.

#ifndef TOPK_EM_FILE_BLOCK_DEVICE_H_
#define TOPK_EM_FILE_BLOCK_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/check.h"
#include "em/block_device.h"
#include "em/storage.h"

namespace topk::em {

// ByteStorage over a real file: pread/pwrite/fsync/ftruncate. Write and
// Truncate report kTransientFailure on a failed or short syscall; Sync
// reports fsync failure (after which nothing new is promised durable —
// callers treat the commit as not having happened). Read aborts on
// syscall failure: the durable read path has its fault story one level
// up (poisoned frames / FallibleTopK), not at the syscall.
class FileStorage final : public ByteStorage {
 public:
  // Opens (creating if absent) the file at `path` read-write.
  explicit FileStorage(const std::string& path);
  ~FileStorage() override;

  FileStorage(const FileStorage&) = delete;
  FileStorage& operator=(const FileStorage&) = delete;

  uint64_t size() const override { return size_; }
  void Read(uint64_t offset, size_t len, uint8_t* out) const override;
  [[nodiscard]] IoResult Write(uint64_t offset, const uint8_t* data,
                               size_t len) override;
  [[nodiscard]] IoResult Sync() override;
  [[nodiscard]] IoResult Truncate(uint64_t new_size) override;

 private:
  int fd_ = -1;
  uint64_t size_ = 0;  // tracked, not fstat'd per call
};

// BlockDevice whose page store is a ByteStorage. Over a FileStorage
// this is the real durable device; over a MemStorage it is the
// crash-simulable device the deterministic crash-point harness drives.
class FileBlockDevice final : public BlockDevice {
 public:
  // Adopts the storage's existing whole pages (reopen); a torn final
  // fragment — possible after a crash mid page-write — is ignored and
  // overwritten by the next Allocate. An empty storage starts at zero
  // pages.
  FileBlockDevice(ByteStorage* storage, size_t page_size);

  size_t num_pages() const override { return num_pages_; }

  // Extends the storage by one zero page via Truncate. Charges no I/O —
  // identical to the simulator's Allocate (the write is charged when
  // the page content is first flushed).
  uint64_t Allocate() override;

  [[nodiscard]] IoResult TryRead(uint64_t page_id, uint8_t* out) override;
  [[nodiscard]] IoResult TryWrite(uint64_t page_id,
                                  const uint8_t* data) override;

  // Durability barrier for the page store (checkpoint payload pages are
  // synced before the manifest that references them is committed).
  [[nodiscard]] IoResult Sync() { return storage_->Sync(); }

  ByteStorage* storage() const { return storage_; }

 private:
  ByteStorage* storage_;
  uint64_t num_pages_ = 0;
};

}  // namespace topk::em

#endif  // TOPK_EM_FILE_BLOCK_DEVICE_H_
