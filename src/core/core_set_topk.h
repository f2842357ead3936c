// Theorem 1: the worst-case reduction from top-k to prioritized
// reporting.
//
// Given any prioritized structure with geometrically converging space and
// Q_pri(n) >= log_B n, on a polynomially bounded problem, this structure
// answers top-k queries in O(Q_pri(n) * log_{g sqrt(B)} n + k/B) I/Os
// with g = Q_pri(n)/log_B n — i.e. within an O(log_B n) factor of the
// prioritized query cost — using O(S_pri(n)) space.
//
// Composition (Section 3.2):
//   * f = 12*lambda*B*Q_pri(n), with B the options' block_size, or
//     kRamBlockSizeThm1 when it is unset (an in-memory substrate);
//   * a TopFChain on D serves queries with k <= f;
//   * core-sets R[i] of D with K = 2^i*f (i = 1..h, while K <= n), each
//     carrying its own TopFChain, serve queries with k > f: the pivot
//     element of weight rank ceil(8*lambda*ln n) in q(R[i]) has weight
//     rank [K, 4K] in q(D), so one prioritized fetch plus k-selection
//     finishes. That rung is one Lemma2Step (core/top_f.h), the same
//     function every chain level runs, with K and k_out = k: it walks
//     R[i]'s chain first and probes D with tau = -inf (budget 4K + 1)
//     only when there is no usable pivot, or outright when n <= 4K;
//   * queries with k >= n/2 scan.
//
// Correctness is unconditional: every sampled shortcut verifies its
// output cardinality and falls back to the binary-search reduction
// (O((Q_pri + k/B) log n), always correct) on failure. Failures are
// counted in QueryStats::fallbacks and occur with probability O(n^-1)
// per query with the paper constants.

#ifndef TOPK_CORE_CORE_SET_TOPK_H_
#define TOPK_CORE_CORE_SET_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/kselect.h"
#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/binary_search_topk.h"
#include "core/core_set.h"
#include "core/factory.h"
#include "core/problem.h"
#include "core/reduction_options.h"
#include "core/sink.h"
#include "core/top_f.h"
#include "parallel/context.h"
#include "trace/tracer.h"

namespace topk {

template <typename Problem, typename Pri>
  requires PrioritizedStructure<Pri, Problem>
class CoreSetTopK {
 public:
  using Element = typename Problem::Element;
  using Predicate = typename Problem::Predicate;
  // Substrate export, consumed by serve/shareable.h's recursive
  // thread-shareability check.
  using Prioritized = Pri;

  template <typename Factory = DirectFactory<Pri>>
    requires StructureFactory<Factory, Pri, typename Problem::Element>
  explicit CoreSetTopK(std::vector<Element> data,
                       const ReductionOptions& options = {},
                       const Factory& factory = {})
      : options_(options), n_(data.size()) {
    Rng rng(options_.seed);
    f_ = ComputeF(n_, options_);

    // Core-sets R[i] of D with K = 2^i * f, for every K <= n. Draw them
    // before `data` is consumed by the main chain.
    std::vector<std::vector<Element>> samples;
    for (double K = static_cast<double>(f_) * 2.0;
         K <= static_cast<double>(n_); K *= 2.0) {
      samples.push_back(BuildCoreSet(data, K, Problem::kLambda,
                                     options_.constant_scale, &rng));
    }

    weights_desc_ = SortedWeightsDesc(data);
    chain_.emplace(std::move(data), f_, options_.constant_scale, &rng,
                   factory);
    large_k_chains_.reserve(samples.size());
    for (std::vector<Element>& s : samples) {
      large_k_chains_.emplace_back(std::move(s), f_,
                                   options_.constant_scale, &rng, factory);
    }
  }

  size_t size() const { return n_; }
  size_t f() const { return f_; }
  size_t num_chain_levels() const { return chain_->num_levels(); }
  size_t num_large_k_core_sets() const { return large_k_chains_.size(); }
  // The small-k chain on D and the large-k chain on core-set R[i + 1].
  const TopFChain<Problem, Pri>& small_k_chain() const { return *chain_; }
  const TopFChain<Problem, Pri>& large_k_chain(size_t i) const {
    return large_k_chains_[i];
  }

  // Audit hook (src/audit/, -DTOPK_AUDIT=ON test sweeps): Theorem 1
  // composition invariants — the f clamp of inequality (11), the sorted
  // global weight list, the Lemma 2 nesting of every chain, and a
  // large-k ladder exactly matching the K = 2^i f, K <= n schedule.
  // Aborts via TOPK_CHECK on violation.
  void AuditInvariants() const {
    if (n_ == 0) return;
    TOPK_CHECK(f_ >= CoreSetRank(n_, Problem::kLambda,
                                 options_.constant_scale));
    AuditSortedWeights(weights_desc_, n_);
    TOPK_CHECK(chain_.has_value());
    TOPK_CHECK_EQ(chain_->level0().size(), n_);
    chain_->AuditInvariants();
    size_t expected_ladder = 0;
    for (double K = static_cast<double>(f_) * 2.0;
         K <= static_cast<double>(n_); K *= 2.0) {
      ++expected_ladder;
    }
    TOPK_CHECK_EQ(large_k_chains_.size(), expected_ladder);
    for (const TopFChain<Problem, Pri>& chain : large_k_chains_) {
      TOPK_CHECK_EQ(chain.f(), f_);
      chain.AuditInvariants();
    }
  }

  // The k heaviest elements of q(D), heaviest first, into *out (cleared
  // first; all of q(D) when |q(D)| < k). Exact for every input and every
  // random draw. Every candidate pool across the small-k chain, the
  // large-k ladder, the full scan, and the binary-search fallback lives
  // in a buffer borrowed from `scratch`, so a warm arena and a warm *out
  // serve the query with zero heap allocations. `par` (nullable) shards the
  // degenerate monitored fetches — the full scan, an unreachable probe
  // budget, the oversized ladder fetch, and the chain's level walks —
  // across intra-query workers; results are bit-identical either way.
  void QueryInto(const Predicate& q, size_t k, Scratch* scratch,
                 std::vector<Element>* out, QueryStats* stats = nullptr,
                 trace::Tracer* tracer = nullptr,
                 parallel::Context* par = nullptr) const {
    out->clear();
    if (k == 0 || n_ == 0) return;
    trace::Span span(tracer, "thm1_query", stats);
    span.Arg("k", k);

    if (k > f_ && k >= n_ / 2) {
      // Read everything: O(n/B) = O(k/B).
      span.Arg("full_scan", 1);
      if (stats != nullptr) ++stats->full_scans;
      FetchTopKInto<Problem>(chain_->level0(), q,
                             -std::numeric_limits<double>::infinity(),
                             n_ + 1, k, scratch, out, stats, tracer, par);
      return;
    }
    std::optional<ScratchVec<Element>> top;
    if (k <= f_) {
      top = chain_->QueryTopF(q, scratch, stats, tracer, par);
    } else {
      // The first rung i >= 1 (k > f) whose K = 2^i f reaches k; k < n/2
      // guarantees K <= n, so core-set R[i] exists unless the
      // constant-scale ablation truncated the ladder — then the step
      // fails and the query falls back.
      size_t i = 1;
      size_t K = 2 * f_;
      while (K < k) {
        K *= 2;
        ++i;
      }
      // Which rung of the large-k ladder this query probed — the
      // per-query attribution E23 cares about.
      span.Arg("core_set_level", i);
      top = Lemma2Step<Problem>(
          chain_->level0(), options_.constant_scale, q, K, k,
          [&]() -> std::optional<ScratchVec<Element>> {
            if (i > large_k_chains_.size()) return std::nullopt;
            return large_k_chains_[i - 1].QueryTopF(q, scratch, stats,
                                                    tracer, par);
          },
          scratch, stats, tracer, par);
    }
    if (!top.has_value()) {
      FallbackInto(q, k, scratch, out, stats, tracer, par);
      return;
    }
    // The one selection and sort: `top` is an unordered heaviest prefix
    // of q(D), at least min(k, |q(D)|) long; order only the k that leave.
    SelectTopK(&top->vec(), k, scratch);
    out->assign(top->begin(), top->end());
  }

 private:
  // f = 12 * lambda * B * Q_pri(n) (eq. (9)), with B resolved as in
  // reduction_options.h, scaled for ablation and clamped so that
  // f >= ceil(8*lambda*ln n) (inequality (11)) — the top-f result must
  // always be deep enough to expose the Lemma 2 pivot.
  static size_t ComputeF(size_t n, const ReductionOptions& options) {
    const size_t b = options.block_size.value_or(kRamBlockSizeThm1);
    const double q_pri = std::max(1.0, Pri::QueryCostBound(n, b));
    double f = options.constant_scale * 12.0 * Problem::kLambda *
               static_cast<double>(b) * q_pri;
    const double min_f = static_cast<double>(
        CoreSetRank(n, Problem::kLambda, options.constant_scale));
    if (f < min_f) f = min_f;
    if (f < 1.0) f = 1.0;
    return static_cast<size_t>(f);
  }

  void FallbackInto(const Predicate& q, size_t k, Scratch* scratch,
                    std::vector<Element>* out, QueryStats* stats,
                    trace::Tracer* tracer, parallel::Context* par) const {
    trace::Instant(tracer, "fallback");
    if (stats != nullptr) ++stats->fallbacks;
    const Pri& pri = chain_->level0();
    BinarySearchTopKQueryInto<Problem>(
        pri, weights_desc_, q, k,
        ProbeReachesK(pri, q, k, scratch, stats, tracer), scratch, out,
        stats, tracer, par);
  }

  ReductionOptions options_;
  size_t n_;
  size_t f_;
  std::vector<double> weights_desc_;
  // optional<> delays construction until f_ and the core-set samples are
  // ready; always engaged after the constructor.
  std::optional<TopFChain<Problem, Pri>> chain_;
  std::vector<TopFChain<Problem, Pri>> large_k_chains_;
};

}  // namespace topk

#endif  // TOPK_CORE_CORE_SET_TOPK_H_
