// Cold start: from a recovered dataset to a serving epoch chain.
//
// The durable EM substrate (em/durable_store.h — a layer this module
// deliberately does NOT include; serve sits below em in the layering
// DAG) recovers a process to an exact element set: newest checkpoint
// plus the replayed WAL tail. This header is the hand-off point on the
// serving side: build the initial in-memory structure from those
// elements and publish it as epoch 1 of a fresh EpochManager, so
// QueryEngines register and serve immediately while the writer resumes
// the (WAL-committed) update stream through the usual shadow-mutate /
// Publish cycle.
//
// The factory keeps the two layers decoupled: callers that recovered
// from a DurableStore pass `store.Elements()` here; callers
// bootstrapping from any other source (a snapshot file, a migration)
// use the same entry point. Compile-time shareability of the built
// structure is enforced exactly as for a hand-constructed EpochManager.

#ifndef TOPK_SERVE_COLD_START_H_
#define TOPK_SERVE_COLD_START_H_

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "serve/epoch.h"
#include "serve/shareable.h"

namespace topk::serve {

// Builds `factory(std::move(recovered))` and publishes it as epoch 1.
// The structure type is deduced from the factory's return type and
// gated by ShareableTopKStructure (EM-backed structures are rejected at
// compile time — an epoch is shared const across worker threads; the
// EM pages stay the durable source of truth, the epoch structure is
// the RAM serving copy).
template <typename Element, typename Factory>
auto ColdStart(std::vector<Element> recovered, Factory&& factory)
    -> std::unique_ptr<
        EpochManager<std::invoke_result_t<Factory, std::vector<Element>>>> {
  using S = std::invoke_result_t<Factory, std::vector<Element>>;
  static_assert(ShareableTopKStructure<S>,
                "cold start publishes the built structure as a shared "
                "epoch; it must be thread-shareable");
  return std::make_unique<EpochManager<S>>(
      std::forward<Factory>(factory)(std::move(recovered)));
}

}  // namespace topk::serve

#endif  // TOPK_SERVE_COLD_START_H_
