// The paper's 2D point enclosure example (Section 1.4):
//
//   "Find the 10 gentlemen with the highest salaries such that my age
//    and height fall into their preferred ranges."
//
// Each member registers a preference rectangle (age x height); a query
// is the seeker's own (age, height) point; the weight is the salary.

#include <cstdio>
#include <vector>

#include "common/random.h"
#include "core/core_set_topk.h"
#include "enclosure/enclosure_structures.h"
#include "enclosure/rect.h"

int main() {
  using topk::enclosure::EnclosurePrioritized;
  using topk::enclosure::EnclosureProblem;
  using topk::enclosure::Point2;
  using topk::enclosure::Rect;

  // 100k members; preferences centered around their own demographics.
  topk::Rng rng(20);
  const size_t n = 100'000;
  std::vector<Rect> prefs(n);
  for (size_t i = 0; i < n; ++i) {
    const double age_lo = 18 + rng.NextDouble() * 40;
    const double height_lo = 150 + rng.NextDouble() * 35;
    prefs[i] = Rect{age_lo, age_lo + 2 + rng.NextDouble() * 15,
                    height_lo, height_lo + 2 + rng.NextDouble() * 25,
                    /*salary=*/20'000 + rng.NextDouble() * 480'000,
                    /*member id=*/i + 1};
  }

  // Theorem 1 needs only the prioritized structure.
  topk::CoreSetTopK<EnclosureProblem, EnclosurePrioritized> site(prefs);

  struct Seeker {
    double age, height;
  };
  for (const Seeker s : {Seeker{29, 171}, Seeker{45, 182}, Seeker{21, 160}}) {
    std::printf("\nTop 10 salaries among members whose preferences admit "
                "age %.0f, height %.0fcm:\n", s.age, s.height);
    auto top = topk::Query(site, Point2{s.age, s.height}, 10);
    for (const Rect& r : top) {
      std::printf("  member %-7llu salary $%7.0f   ages [%4.1f, %4.1f]  "
                  "heights [%5.1f, %5.1f]\n",
                  static_cast<unsigned long long>(r.id), r.weight, r.x1,
                  r.x2, r.y1, r.y2);
    }
    if (top.empty()) std::printf("  (nobody's preferences match)\n");
  }
  return 0;
}
