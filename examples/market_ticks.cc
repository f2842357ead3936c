// Top-k interval stabbing (Theorem 4) on a market-data workload:
// each limit order is valid over a time interval and carries a price;
// "at time t, show the k highest-priced orders on the book" is a top-k
// stabbing query. Also demonstrates the reverse reduction of
// Section 1.2: prioritized reporting ("every order above a limit price
// active at t") synthesized from the top-k structure by k-doubling.

#include <cstdio>
#include <vector>

#include "common/random.h"
#include "core/sampled_topk.h"
#include "core/sink.h"
#include "core/topk_to_prioritized.h"
#include "interval/interval.h"
#include "interval/seg_stab.h"
#include "interval/stab_max.h"

int main() {
  using topk::interval::Interval;
  using topk::interval::SegmentStabbing;
  using topk::interval::SlabStabMax;
  using topk::interval::StabProblem;

  // A trading day: 500k orders, each alive for a random window.
  topk::Rng rng(99);
  const size_t n = 500'000;
  const double day = 6.5 * 3600;  // seconds
  std::vector<Interval> orders(n);
  for (size_t i = 0; i < n; ++i) {
    const double start = rng.NextDouble() * day;
    const double life = 1.0 + rng.NextDouble() * 600.0;
    const double price = 100.0 + rng.NextDouble() * 10.0;
    orders[i] = Interval{start, start + life, price, i + 1};
  }

  using Book = topk::SampledTopK<StabProblem, SegmentStabbing, SlabStabMax>;
  Book book(orders);

  for (double t : {1800.0, 3.25 * 3600, day - 600}) {
    std::printf("\nAt t=%.0fs, the 5 highest-priced active orders:\n", t);
    for (const Interval& o : topk::Query(book, t, 5)) {
      std::printf("  order %-7llu $%.4f  active [%.1fs, %.1fs]\n",
                  static_cast<unsigned long long>(o.id), o.weight, o.lo,
                  o.hi);
    }
  }

  // Reverse reduction: a prioritized view over the same index.
  topk::TopKToPrioritized<Book> above_limit(std::move(book));
  const double t = 2.0 * 3600, limit = 109.99;
  size_t count = 0;
  topk::IssuePrioritized(above_limit, t, limit,
                         [&count](const Interval&) {
                           ++count;
                           return true;
                         },
                         nullptr);
  std::printf("\nOrders active at t=%.0fs priced >= $%.2f: %zu\n", t, limit,
              count);
  return 0;
}
