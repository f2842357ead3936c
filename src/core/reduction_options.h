// Tunables of the two reductions.
//
// Defaults follow the paper's constants, except that an unset block size
// B reads a RAM constant (below); every constant can be overridden so
// the ablation benchmarks (E15) can measure how much headroom the paper's
// worst-case constants leave on realistic inputs.

#ifndef TOPK_CORE_REDUCTION_OPTIONS_H_
#define TOPK_CORE_REDUCTION_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <optional>

namespace topk {

// The B each reduction reads when ReductionOptions::block_size is unset,
// i.e. over an in-memory substrate. There a block is not a unit of cost:
// fetching f elements touches f elements, so B only scales the
// reductions' budgets. Theorem 1's f = 12*lambda*B*Q_pri(n) falls from
// 4352 to 1632 at n = 2^17 on a PST. 16 is the smallest B with 0
// fallbacks in E15's sweep (bench_ablation) whose serve-thm1 rss_mb
// stays within 5% of B = 64's.
inline constexpr size_t kRamBlockSizeThm1 = 16;
// Theorem 2 keeps the EM value until its sample levels get cheaper in
// space: at B = 16 they hold ~2.7x the elements of B = 64's (E15).
inline constexpr size_t kRamBlockSizeThm2 = 64;

struct ReductionOptions {
  // The external-memory block size B, in words. Set it for an
  // external-memory substrate, to the device block in words; the paper
  // assumes B >= 64 (its inequalities (10) and (11) rely on it). Leave
  // it unset in RAM: each reduction then reads its kRamBlockSize*
  // constant above. Answers are exact at every B. (The initializer keeps
  // designated initializers that omit the field clear of
  // -Wmissing-field-initializers.)
  std::optional<size_t> block_size = std::nullopt;

  // Multiplies the paper's structural constants: the core-set parameter
  // f = 12*lambda*B*Q_pri(n) of Theorem 1 and the core-set rank
  // ceil(8*lambda*ln n) of Lemma 2. Values < 1 trade the w.h.p.
  // guarantees for speed; correctness is unaffected because queries
  // verify their answer and fall back when a sample proves unlucky.
  double constant_scale = 1.0;

  // Theorem 2's geometric spacing sigma (paper: 1/20). K_i grows by
  // (1 + sigma) per level.
  double sigma = 0.05;

  // Seed for all sampling. Two structures built with the same data and
  // seed are identical.
  uint64_t seed = 0x7074'6f70'6b31ULL;
};

}  // namespace topk

#endif  // TOPK_CORE_REDUCTION_OPTIONS_H_
