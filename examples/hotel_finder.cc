// The paper's 3D dominance example (Section 1.4):
//
//   "Find the 10 best-rated hotels whose (i) prices are at most x
//    dollars per night, (ii) distances from the town center are at most
//    y km, and (iii) security rating is at least z."
//
// Dominance wants upper bounds on every coordinate, so security is
// stored negated; the hotel's guest rating is the weight.

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/sampled_topk.h"
#include "dominance/point3.h"

namespace {

struct Hotel {
  std::string name;
  double price;      // $ per night
  double distance;   // km from the center
  double security;   // 0..10
  double rating;     // 0..5, the weight
};

}  // namespace

int main() {
  using topk::dominance::DominanceKdTree;
  using topk::dominance::DominanceProblem;
  using topk::dominance::Point3;

  // Synthetic city: 200k hotels with correlated attributes (closer to
  // the center => pricier).
  topk::Rng rng(7);
  const size_t n = 200'000;
  std::vector<Hotel> hotels(n);
  std::vector<Point3> index_points(n);
  for (size_t i = 0; i < n; ++i) {
    Hotel& h = hotels[i];
    h.distance = rng.NextDouble() * 20.0;
    h.price = 40.0 + rng.NextDouble() * 400.0 * (1.0 - h.distance / 30.0);
    h.security = rng.NextDouble() * 10.0;
    h.rating = rng.NextDouble() * 5.0;
    h.name = "hotel-" + std::to_string(i + 1);
    index_points[i] = Point3{h.price, h.distance, -h.security, h.rating,
                             i + 1};
  }

  topk::SampledTopK<DominanceProblem, DominanceKdTree, DominanceKdTree>
      finder(index_points);

  struct Ask {
    double max_price, max_distance, min_security;
  };
  for (const Ask& ask : {Ask{150, 3.0, 7.0}, Ask{80, 10.0, 5.0},
                         Ask{400, 1.0, 9.0}}) {
    std::printf(
        "\nTop 10 rated hotels with price <= $%.0f, distance <= %.1f km, "
        "security >= %.1f:\n",
        ask.max_price, ask.max_distance, ask.min_security);
    const Point3 q{ask.max_price, ask.max_distance, -ask.min_security, 0, 0};
    auto top = topk::Query(finder, q, 10);
    if (top.empty()) {
      std::printf("  (no hotel qualifies)\n");
      continue;
    }
    for (const Point3& p : top) {
      const Hotel& h = hotels[p.id - 1];
      std::printf("  %-14s rating %.2f   $%6.0f   %4.1f km   security %.1f\n",
                  h.name.c_str(), h.rating, h.price, h.distance, h.security);
    }
  }
  return 0;
}
