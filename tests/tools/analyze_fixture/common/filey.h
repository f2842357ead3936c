// Analyzer fixture (analyzed, never compiled): the io rule must
// flag the raw ::open below (raw file I/O outside an em/ directory),
// and honor the one-line suppression.

#ifndef TOPK_COMMON_FILEY_H_
#define TOPK_COMMON_FILEY_H_

#include <fcntl.h>
#include <unistd.h>

namespace topk {

inline int BadOpen(const char* path) {
  return ::open(path, O_RDONLY);
}

inline int JustifiedSync(int fd) {
  return ::fsync(fd);  // analyze: io-ok fixture suppression
}

}  // namespace topk

#endif  // TOPK_COMMON_FILEY_H_
