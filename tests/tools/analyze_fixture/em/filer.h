// Analyzer fixture (analyzed, never compiled): files under an
// em/ directory are the sanctioned home for raw file I/O (the
// ByteStorage / BlockDevice implementations live there) — the io rule
// must stay quiet here.

#ifndef TOPK_EM_FILER_H_
#define TOPK_EM_FILER_H_

#include <fcntl.h>
#include <unistd.h>

namespace topk {

inline int SanctionedOpen(const char* path) {
  return ::open(path, O_RDWR | O_CREAT, 0644);
}

inline int SanctionedSync(int fd) { return ::fsync(fd); }

}  // namespace topk

#endif  // TOPK_EM_FILER_H_
