// Theorem 2: the expected-cost reduction from top-k to prioritized +
// max reporting, with no asymptotic degradation.
//
// Structure (Section 4): a prioritized structure on D, plus for each
// i = 1..h a (1/K_i)-sample R_i of D carrying a max structure, where
// K_i = B * Q_max(n) * (1+sigma)^{i-1} (sigma = 1/20) and h is the
// largest i with K_i <= n/4. B is the options' block_size, or
// kRamBlockSizeThm2 when it is unset (an in-memory substrate).
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
// Updates: an element appears in O(1) sampled sets in expectation, so
// Insert/Erase forward to the prioritized structure plus the (hash-
// recorded) max structures containing the element, at expected cost
// O(U_pri + U_max). Available when both structures are dynamic.

#ifndef TOPK_CORE_SAMPLED_TOPK_H_
#define TOPK_CORE_SAMPLED_TOPK_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
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
#include "parallel/flat_scan.h"
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

  // Membership bookkeeping (id -> sampled levels) is only needed to
  // support Erase; skip it entirely for static instantiations.
  static constexpr bool kDynamic =
      requires(Pri& p, Max& m, const Element& e) {
        p.Insert(e);
        p.Erase(e);
        m.Insert(e);
        m.Erase(e);
      };

  // The flat source reads Pri's slot weights once per build, so a Pri
  // with stable slots must not change between builds.
  static_assert(!(parallel::SlotAddressable<Pri, Element> &&
                  requires(Pri& p, const Element& e) { p.Insert(e); }));

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
  // last (re)build, sample sets are genuine subsets, and (dynamic
  // instantiations) the membership index and the level max structures
  // describe each other exactly: one entry per live element, per-level
  // reference counts equal to the level sizes, and — under TOPK_AUDIT,
  // where Max supports enumeration — no stale element in any level's
  // max structure without a matching membership record (the converse
  // direction; a clobbered membership entry is invisible to the
  // forward checks alone); static instantiations keep no membership
  // at all. The flat source matches the prioritized structure's slots.
  // Aborts via TOPK_CHECK on violation.
  void AuditInvariants() const {
    TOPK_CHECK(pri_.has_value());
    TOPK_CHECK_EQ(pri_->size(), n_);
    flat_.AuditInvariants(*pri_);
    size_t expected_levels = 0;
    double K = base_k_;
    for (; K <= static_cast<double>(built_n_) / 4.0;
         K *= (1.0 + options_.sigma)) {
      TOPK_CHECK(expected_levels < levels_.size());
      TOPK_CHECK_EQ(levels_[expected_levels].K, K);
      // E|R_i| = n/K_i; a sample can never exceed its source set.
      TOPK_CHECK_LE(levels_[expected_levels].max.size(), n_);
      ++expected_levels;
    }
    TOPK_CHECK_EQ(levels_.size(), expected_levels);
    if constexpr (kDynamic) {
      // Every live element has exactly one membership entry (possibly
      // pointing at zero levels), and summing the entries level-wise
      // must reproduce each level's size — a stale element (or a lost
      // membership record) breaks the balance.
      TOPK_CHECK_EQ(membership_.size(), n_);
      std::vector<size_t> refs(levels_.size(), 0);
      for (const auto& [id, where] : membership_) {
        for (uint32_t j : where) {
          TOPK_CHECK_LT(j, levels_.size());
          ++refs[j];
        }
      }
      for (size_t j = 0; j < levels_.size(); ++j) {
        TOPK_CHECK_EQ(refs[j], levels_[j].max.size());
      }
#ifdef TOPK_AUDIT
      // Converse sweep (O(n) — audit builds only): each element a level
      // actually stores is recorded in membership_ for that level,
      // exactly once.
      if constexpr (requires(const Max& m) {
                      m.ForEach([](const Element&) {});
                    }) {
        for (uint32_t j = 0; j < static_cast<uint32_t>(levels_.size());
             ++j) {
          levels_[j].max.ForEach([this, j](const Element& e) {
            const auto it = membership_.find(e.id);
            TOPK_CHECK(it != membership_.end());
            size_t hits = 0;
            for (uint32_t w : it->second) {
              if (w == j) ++hits;
            }
            TOPK_CHECK_EQ(hits, size_t{1});
          });
        }
      }
#endif  // TOPK_AUDIT
    } else {
      TOPK_CHECK(membership_.empty());
    }
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
      if (!FetchTopKInto<Problem>(*pri_, flat_, q, kNegInf, budget, k,
                                  scratch, out, stats, tracer, par)
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
          FetchTopKInto<Problem>(*pri_, flat_, q, e->weight, budget, k,
                                 scratch, out, stats, tracer, par,
                                 min_matched);
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

  void Insert(const Element& e)
    requires requires(Pri& p, Max& m) {
      p.Insert(e);
      m.Insert(e);
    }
  {
    if constexpr (kDynamic) {
      // Register the element in the membership index BEFORE sampling,
      // and reject a live duplicate: overwriting the existing entry
      // would orphan its level list, leaving stale (possibly heavier)
      // elements in those levels' max structures after Erase —
      // permanent round misses. Ids are element identity (the
      // (weight, id) total order and Erase-by-id both depend on it), so
      // re-inserting a live id is a programmer error.
      const bool inserted = membership_.try_emplace(e.id).second;
      TOPK_CHECK(inserted);
    }
    pri_->Insert(e);
    ++n_;
    for (uint32_t j = 0; j < static_cast<uint32_t>(levels_.size()); ++j) {
      if (rng_.Bernoulli(1.0 / levels_[j].K)) {
        levels_[j].max.Insert(e);
        if constexpr (kDynamic) membership_[e.id].push_back(j);
      }
    }
    MaybeRebuild();
  }

  // Constrained on kDynamic (not just the Erase signatures): membership
  // is recorded only for dynamic instantiations, so an Erase-only
  // substrate pair would compile yet silently never remove elements
  // from the sample levels. The mismatch fails here, at the constraint.
  void Erase(const Element& e)
    requires(kDynamic)
  {
    pri_->Erase(e);
    TOPK_CHECK(n_ > 0);
    --n_;
    const auto it = membership_.find(e.id);
    TOPK_CHECK(it != membership_.end());  // every live element has one
    for (uint32_t j : it->second) levels_[j].max.Erase(e);
    membership_.erase(it);
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
    membership_.clear();

    const size_t b = options_.block_size.value_or(kRamBlockSizeThm2);
    const double q_max = std::max(1.0, Max::QueryCostBound(n_, b));
    base_k_ = static_cast<double>(b) * q_max;

    if constexpr (kDynamic) {
      // One membership entry per live element — sampled into zero
      // levels or not — so Insert can reject a duplicate id even when
      // the original landed in no sample. Doubles as a duplicate-id
      // check on the input.
      for (const Element& e : data) {
        const bool inserted = membership_.try_emplace(e.id).second;
        TOPK_CHECK(inserted);
      }
    }

    std::vector<std::pair<double, std::vector<Element>>> samples;
    for (double K = base_k_;
         K <= static_cast<double>(n_) / 4.0;
         K *= (1.0 + options_.sigma)) {
      std::vector<Element> r;
      const double p = 1.0 / K;
      for (const Element& e : data) {
        if (rng_.Bernoulli(p)) r.push_back(e);
      }
      samples.emplace_back(K, std::move(r));
    }

    for (auto& [K, sample] : samples) {
      if constexpr (kDynamic) {
        const uint32_t j = static_cast<uint32_t>(levels_.size());
        for (const Element& e : sample) membership_[e.id].push_back(j);
      }
      levels_.push_back(Level{K, max_factory_(std::move(sample))});
    }
    // Flat source for the sharded degenerate rounds / terminal scan;
    // engaged iff Pri has stable slots and the set is big enough to ever
    // shard. Such a Pri takes no updates, so it stays valid until the
    // next build.
    pri_.emplace(flat_.Build(std::move(data), pri_factory_));
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
    FetchTopKInto<Problem>(*pri_, flat_, q, kNegInf, n_ + 1, k, scratch, out,
                           stats, tracer, par);
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
  Rng rng_;
  PriFactory pri_factory_;
  MaxFactory max_factory_;
  size_t n_ = 0;
  size_t built_n_ = 0;
  double base_k_ = 1.0;
  // optional<> lets Build construct the structure after sampling; always
  // engaged outside the constructor.
  std::optional<Pri> pri_;
  // Slot weights for the sharded kernel; engaged iff Pri has stable
  // slots and built_n_ >= parallel::kMinShardedN (see
  // parallel/flat_scan.h).
  parallel::FlatSource<Pri, Element> flat_;
  std::vector<Level> levels_;
  // Dynamic instantiations: one entry per LIVE element (the value lists
  // the levels whose sample holds it, possibly none) — completeness is
  // what lets Insert reject duplicate ids and Erase assert liveness.
  // Empty for static instantiations (AuditInvariants checks it).
  std::unordered_map<uint64_t, std::vector<uint32_t>> membership_;
};

}  // namespace topk

#endif  // TOPK_CORE_SAMPLED_TOPK_H_
