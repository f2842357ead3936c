// Theorem 2: the expected-cost reduction from top-k to prioritized +
// max reporting, with no asymptotic degradation.
//
// Structure (Section 4): a prioritized structure on D, plus for each
// i = 1..h a (1/K_i)-sample R_i of D carrying a max structure, where
// K_i = B * Q_max(n) * (1+sigma)^{i-1} (sigma = kThm2Sigma = 1/20) and
// h is the largest i with K_i <= n/4. B is the options' block_size, or
// kRamBlockSizeThm2 when it is unset (an in-memory substrate); both
// constants live in core/reduction_options.h.
//
// Query (round protocol): starting at the smallest i with K_i >= k, each
// round j
//   1. probes |q(D)| <= 4K_j with a cost-monitored prioritized query
//      (success: k-selection finishes);
//   2. asks the max structure on R_j for the heaviest sampled element e
//      in q(R_j);
//   3. fetches {w >= w(e)} cost-monitored with budget 4K_j + 1;
//   4. succeeds iff the fetch completed with more than K_j elements
//      (Lemma 3: probability >= 0.09 per round), else moves to round
//      j + 1; the terminal round scans D.
// Expected cost: O(Q_pri + Q_max + k/B); rounds have geometric tails
// (validated by experiment E13). The protocol is deterministic-correct —
// no fallback is ever needed.
//
// Sampling: e lands in R_i iff a hash of (e.id, salt, i) falls below
// 2^64 / K_i (ForEachLevelOf), so membership is a pure function of the
// id, recomputed wherever it is needed and stored nowhere. Each (re)build
// draws a fresh salt, so it redraws every sample.
//
// Updates: an element appears in O(1) sampled sets in expectation, so
// Insert/Erase forward to the prioritized structure plus the max
// structures whose level test selects the element, at expected cost
// O(U_pri + U_max). Available when both structures are dynamic.

#ifndef TOPK_CORE_SAMPLED_TOPK_H_
#define TOPK_CORE_SAMPLED_TOPK_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/factory.h"
#include "core/problem.h"
#include "core/reduction_options.h"
#include "core/sink.h"
#include "parallel/context.h"
#include "trace/tracer.h"

namespace topk {

template <typename Problem, typename Pri, typename Max,
          typename PriFactory = DirectFactory<Pri>,
          typename MaxFactory = DirectFactory<Max>>
  requires PrioritizedStructure<Pri, Problem> &&
           MaxStructure<Max, Problem> &&
           StructureFactory<PriFactory, Pri, typename Problem::Element> &&
           StructureFactory<MaxFactory, Max, typename Problem::Element>
class SampledTopK {
 public:
  using Element = typename Problem::Element;
  using Predicate = typename Problem::Predicate;
  // Substrate exports, consumed by serve/shareable.h's recursive
  // thread-shareability check.
  using Prioritized = Pri;
  using MaxSubstrate = Max;

  // Verdict codes recorded on "thm2_round" trace spans.
  static constexpr uint64_t kRoundSuccess = 0;        // step-4 fetch won
  static constexpr uint64_t kRoundProbeComplete = 1;  // step-1 probe won
  static constexpr uint64_t kRoundEmptySample = 2;    // q(R_j) was empty
  static constexpr uint64_t kRoundMiss = 3;           // advance to j + 1

  explicit SampledTopK(std::vector<Element> data,
                       const ReductionOptions& options = {},
                       PriFactory pri_factory = {},
                       MaxFactory max_factory = {})
      : options_(options),
        rng_(options.seed),
        pri_factory_(std::move(pri_factory)),
        max_factory_(std::move(max_factory)) {
    Build(std::move(data));
  }

  size_t size() const { return n_; }
  size_t num_sample_levels() const { return levels_.size(); }
  size_t sample_level_size(size_t i) const { return levels_[i].max.size(); }
  double base_k() const { return base_k_; }

  // Audit hook (src/audit/, -DTOPK_AUDIT=ON test sweeps): Theorem 2
  // composition invariants — the K_i ladder exactly matches the
  // K_i = B * Q_max * (1+sigma)^{i-1}, K_i <= n/4 schedule frozen at the
  // last (re)build, with one level test per level, and — under
  // TOPK_AUDIT, where both structures enumerate — each level's max
  // structure holds exactly the live elements its test selects: no
  // stale element left by an Erase, none missed by an Insert. Aborts via
  // TOPK_CHECK on violation.
  void AuditInvariants() const {
    TOPK_CHECK(pri_.has_value());
    TOPK_CHECK_EQ(pri_->size(), n_);
    size_t expected_levels = 0;
    double K = base_k_;
    for (; K <= static_cast<double>(built_n_) / 4.0;
         K *= 1.0 + kThm2Sigma) {
      TOPK_CHECK(expected_levels < levels_.size());
      TOPK_CHECK_EQ(levels_[expected_levels].K, K);
      // E|R_i| = n/K_i; a sample can never exceed its source set.
      TOPK_CHECK_LE(levels_[expected_levels].max.size(), n_);
      ++expected_levels;
    }
    TOPK_CHECK_EQ(levels_.size(), expected_levels);
    TOPK_CHECK_EQ(cutoffs_.size(), expected_levels);
#ifdef TOPK_AUDIT
    // O(n h log n) — audit builds only: derive each level's id set from
    // the live elements and compare it with what the level stores.
    if constexpr (requires(const Pri& p, const Max& m) {
                    p.ForEach([](const Element&) {});
                    m.ForEach([](const Element&) {});
                  }) {
      std::vector<std::vector<uint64_t>> want(levels_.size());
      pri_->ForEach([&](const Element& e) {
        ForEachLevelOf(e.id, [&](size_t j) { want[j].push_back(e.id); });
      });
      for (size_t j = 0; j < levels_.size(); ++j) {
        std::vector<uint64_t> held;
        levels_[j].max.ForEach(
            [&held](const Element& e) { held.push_back(e.id); });
        std::sort(held.begin(), held.end());
        std::sort(want[j].begin(), want[j].end());
        TOPK_CHECK(held == want[j]);
      }
    }
#endif  // TOPK_AUDIT
  }

  // The k heaviest elements of q(D), heaviest first, into *out (cleared
  // first). Exact always; expected cost O(Q_pri + Q_max + k/B). Every
  // round's probe and fetch pool is borrowed from `scratch` and
  // recycled, so a warm arena and a warm *out serve the query with zero
  // heap allocations.
  void QueryInto(const Predicate& q, size_t k, Scratch* scratch,
                 std::vector<Element>* out, QueryStats* stats = nullptr,
                 trace::Tracer* tracer = nullptr,
                 parallel::Context* par = nullptr) const {
    out->clear();
    if (k == 0 || n_ == 0) return;
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    trace::Span span(tracer, "thm2_query", stats);
    span.Arg("k", k);

    // Queries below B*Q_max are served as top-(B*Q_max) + k-selection.
    const double k_eff =
        std::max(static_cast<double>(k), base_k_);

    // Smallest level i with K_i >= k_eff; none (or k too large) => scan.
    size_t i = levels_.size();
    for (size_t j = 0; j < levels_.size(); ++j) {
      if (levels_[j].K >= k_eff) {
        i = j;
        break;
      }
    }
    if (i == levels_.size()) {
      ScanAllInto(q, k, scratch, out, stats, tracer, par);
      return;
    }

    for (size_t j = i; j < levels_.size(); ++j) {
      if (stats != nullptr) ++stats->rounds;
      const Level& level = levels_[j];
      const size_t budget = static_cast<size_t>(4.0 * level.K) + 1;
      // One Lemma 3 round: sample level, K_j, and how it ended
      // (kRound* below) are the per-round attribution E23 cares about.
      trace::Span round(tracer, "thm2_round", stats);
      round.Arg("level", j);
      round.Arg("K", static_cast<uint64_t>(level.K));

      // Step 1: if |q(D)| <= 4K_j the monitored query completes. A
      // degenerate round (4K_j + 1 > n: the budget is unreachable) always
      // completes here, so steps 2-4 (whose fetch shares this budget)
      // never see a fetch the primitive would shard.
      if (!FetchTopKInto<Problem>(*pri_, q, kNegInf, budget, k, scratch, out,
                                  stats, tracer, par)
               .hit_budget) {
        round.Arg("verdict", kRoundProbeComplete);
        return;
      }

      // Step 2: heaviest sampled element under q.
      if (stats != nullptr) ++stats->max_queries;
      std::optional<Element> e = level.max.QueryMax(q, stats);
      if (!e.has_value()) {
        // tau = -inf would just repeat step 1.
        round.Arg("verdict", kRoundEmptySample);
        continue;
      }

      // Step 3: fetch everything at least as heavy as the sample max.
      // Step 4: succeeded iff completed with |S| > K_j (Lemma 3's rank
      // window guarantees the top-k are inside S then).
      const size_t min_matched = static_cast<size_t>(level.K) + 1;
      const FetchVerdict fetched =
          FetchTopKInto<Problem>(*pri_, q, e->weight, budget, k, scratch,
                                 out, stats, tracer, par, min_matched);
      if (!fetched.hit_budget && fetched.matched >= min_matched) {
        round.Arg("verdict", kRoundSuccess);
        return;
      }
      round.Arg("verdict", kRoundMiss);
    }
    // Terminal: read the whole D.
    ScanAllInto(q, k, scratch, out, stats, tracer, par);
  }

  // --- Dynamic interface (requires dynamic Pri and Max) -----------------

  // `e.id` must not be live (common/weighted.h). Erase finds e's levels
  // by the same test, so an erased element leaves no level behind.
  void Insert(const Element& e)
    requires requires(Pri& p, Max& m) {
      p.Insert(e);
      m.Insert(e);
    }
  {
    pri_->Insert(e);
    ++n_;
    ForEachLevelOf(e.id, [&](size_t j) { levels_[j].max.Insert(e); });
    MaybeRebuild();
  }

  void Erase(const Element& e)
    requires requires(Pri& p, Max& m) {
      p.Erase(e);
      m.Erase(e);
    }
  {
    pri_->Erase(e);
    TOPK_CHECK(n_ > 0);
    --n_;
    ForEachLevelOf(e.id, [&](size_t j) { levels_[j].max.Erase(e); });
    MaybeRebuild();
  }

 private:
  struct Level {
    double K;
    Max max;
  };

  void Build(std::vector<Element> data) {
    n_ = data.size();
    built_n_ = n_;
    levels_.clear();
    cutoffs_.clear();
    salt_ = rng_.Next();

    const size_t b = options_.block_size.value_or(kRamBlockSizeThm2);
    const double q_max = std::max(1.0, Max::QueryCostBound(n_, b));
    base_k_ = static_cast<double>(b) * q_max;

    for (double K = base_k_; K <= static_cast<double>(n_) / 4.0;
         K *= 1.0 + kThm2Sigma) {
      cutoffs_.push_back(K > 1.0 ? static_cast<uint64_t>(0x1p64 / K)
                                 : ~uint64_t{0});
    }
    std::vector<std::vector<Element>> samples(cutoffs_.size());
    for (const Element& e : data) {
      ForEachLevelOf(e.id, [&](size_t j) { samples[j].push_back(e); });
    }
    double K = base_k_;
    for (std::vector<Element>& sample : samples) {
      levels_.push_back(Level{K, max_factory_(std::move(sample))});
      K *= 1.0 + kThm2Sigma;
    }
    pri_.emplace(pri_factory_(std::move(data)));
  }

  // Level j's sample test, Lemma 3's premise: with h = Mix64(id ^ salt_),
  // e is in R_j iff Mix64(h + (j+1) * kGoldenGamma) < cutoffs_[j] =
  // floor(2^64 / K_j). That is the (j+1)-th SplitMix64 output seeded at
  // h, so each level draws its own bits: probability 1/K_j, independent
  // across levels and across distinct ids. Calls f(j) for each level j
  // holding e.
  template <typename F>
  void ForEachLevelOf(uint64_t id, F&& f) const {
    uint64_t x = Mix64(id ^ salt_);
    for (size_t j = 0; j < cutoffs_.size(); ++j) {
      x += kGoldenGamma;
      if (Mix64(x) < cutoffs_[j]) f(j);
    }
  }

  void ScanAllInto(const Predicate& q, size_t k, Scratch* scratch,
                   std::vector<Element>* out, QueryStats* stats,
                   trace::Tracer* tracer = nullptr,
                   parallel::Context* par = nullptr) const {
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    trace::Span span(tracer, "thm2_scan", stats);
    if (stats != nullptr) ++stats->full_scans;
    // Budget n + 1 is always degenerate: the terminal scan is the
    // sharded kernel's home turf.
    FetchTopKInto<Problem>(*pri_, q, kNegInf, n_ + 1, k, scratch, out, stats,
                           tracer, par);
  }

  // Global rebuilding keeps the K_i ladder matched to the current n;
  // amortized O((build cost)/n) per update. Requires the prioritized
  // structure to support enumeration (ForEach); otherwise the structure
  // stays correct but its large-k path degrades toward scanning.
  void MaybeRebuild() {
    if constexpr (requires(const Pri& p) {
                    p.ForEach([](const Element&) {});
                  }) {
      if (n_ > 2 * built_n_ || (built_n_ >= 8 && n_ < built_n_ / 2)) {
        std::vector<Element> all;
        all.reserve(n_);
        pri_->ForEach([&all](const Element& e) { all.push_back(e); });
        Build(std::move(all));
      }
    }
  }

  ReductionOptions options_;
  Rng rng_;  // one salt per (re)build
  PriFactory pri_factory_;
  MaxFactory max_factory_;
  size_t n_ = 0;
  size_t built_n_ = 0;
  double base_k_ = 1.0;
  // optional<> lets Build construct the structure after sampling; always
  // engaged outside the constructor.
  std::optional<Pri> pri_;
  std::vector<Level> levels_;
  // ForEachLevelOf's inputs: the salt, and floor(2^64 / K_j) per level.
  uint64_t salt_ = 0;
  std::vector<uint64_t> cutoffs_;
};

}  // namespace topk

#endif  // TOPK_CORE_SAMPLED_TOPK_H_
