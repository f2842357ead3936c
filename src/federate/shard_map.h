// Hash shard map: which of S partitions an element lives in.
//
// Federation partitions the dataset D by hash on the 64-bit `id` field
// (ids are unique by the library-wide (weight, id) total-order
// contract), so every element has exactly one home shard and the union
// of the shards is D as a multiset. The id bits go through Mix64 (the
// SplitMix64 finalizer, common/random.h) before the modulo: ids in this
// repo are typically dense (1..n), and the finalizer spreads them
// uniformly regardless of shard count — no shard-count-is-a-power-of-two
// assumption, no hot shard from sequential allocation.
//
// The map is pure arithmetic on the id, so the coordinator, the shard
// builders, and any future router agree on placement without shared
// state, and placement is stable across process restarts.

#ifndef TOPK_FEDERATE_SHARD_MAP_H_
#define TOPK_FEDERATE_SHARD_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/random.h"

namespace topk::federate {

// Mix64 is bijective on 64-bit ids, so distinct ids never collide
// before the modulo and the low bits are fully mixed.
inline size_t ShardOf(uint64_t id, size_t num_shards) {
  TOPK_CHECK(num_shards >= 1);
  return static_cast<size_t>(Mix64(id + kGoldenGamma) % num_shards);
}

// Splits `data` into num_shards disjoint parts by ShardOf. Every input
// element lands in exactly one part; relative order within a part
// follows the input (deterministic builds).
template <typename Element>
std::vector<std::vector<Element>> PartitionById(
    const std::vector<Element>& data, size_t num_shards) {
  TOPK_CHECK(num_shards >= 1);
  std::vector<std::vector<Element>> shards(num_shards);
  for (const Element& e : data) {
    shards[ShardOf(e.id, num_shards)].push_back(e);
  }
  return shards;
}

}  // namespace topk::federate

#endif  // TOPK_FEDERATE_SHARD_MAP_H_
