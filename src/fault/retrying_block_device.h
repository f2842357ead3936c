// Bounded retry-with-backoff BlockDevice decorator.
//
// Each transfer is attempted up to options.max_attempts times. Every
// failed attempt that is followed by another attempt counts one
// `retries` in the chain's IoCounters; exhausting the budget counts one
// `giveups` and surfaces kTransientFailure to the caller (who degrades:
// BufferPool poisons the frame, em::FallibleTopK flags the result).
// Because the wrapped device only counts transfers that succeed, a run
// whose faults are all absorbed by retry has I/O counts IDENTICAL to
// the fault-free run — the chaos tests assert exactly that, plus the
// accounting identity  faults injected == retries + giveups.
//
// Backoff between attempts is exponential (base_ns, multiplier) and
// accounted in simulated_backoff_ns(); it is accounting-only (nothing
// sleeps), so tests stay deterministic.

#ifndef TOPK_FAULT_RETRYING_BLOCK_DEVICE_H_
#define TOPK_FAULT_RETRYING_BLOCK_DEVICE_H_

#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "em/block_device.h"
#include "fault/forwarding_block_device.h"

namespace topk::fault {

class RetryingBlockDevice final : public ForwardingBlockDevice {
 public:
  struct Options {
    size_t max_attempts = 3;        // total attempts, including the first
    uint64_t backoff_base_ns = 1000;
    double backoff_multiplier = 2.0;
  };

  explicit RetryingBlockDevice(em::BlockDevice* inner)
      : RetryingBlockDevice(inner, Options()) {}

  RetryingBlockDevice(em::BlockDevice* inner, const Options& options)
      : ForwardingBlockDevice(inner), options_(options) {
    TOPK_CHECK(options_.max_attempts >= 1);
    TOPK_CHECK(options_.backoff_multiplier >= 1.0);
  }

  [[nodiscard]] em::IoResult TryRead(uint64_t page_id,
                                     uint8_t* out) override {
    return WithRetries(
        [this, page_id, out] { return inner()->TryRead(page_id, out); });
  }

  [[nodiscard]] em::IoResult TryWrite(uint64_t page_id,
                                      const uint8_t* data) override {
    return WithRetries([this, page_id, data] {
      return inner()->TryWrite(page_id, data);
    });
  }

  // Total backoff this decorator would have slept.
  uint64_t simulated_backoff_ns() const { return simulated_backoff_ns_; }

 private:
  template <typename Op>
  em::IoResult WithRetries(Op&& op) {
    uint64_t backoff_ns = options_.backoff_base_ns;
    for (size_t attempt = 1;; ++attempt) {
      if (op() == em::IoResult::kOk) return em::IoResult::kOk;
      if (attempt >= options_.max_attempts) {
        ++mutable_counters()->giveups;
        return em::IoResult::kTransientFailure;
      }
      ++mutable_counters()->retries;
      Backoff(&backoff_ns);
    }
  }

  void Backoff(uint64_t* backoff_ns) {
    simulated_backoff_ns_ += *backoff_ns;
    *backoff_ns = static_cast<uint64_t>(
        static_cast<double>(*backoff_ns) * options_.backoff_multiplier);
  }

  Options options_;
  uint64_t simulated_backoff_ns_ = 0;
};

}  // namespace topk::fault

#endif  // TOPK_FAULT_RETRYING_BLOCK_DEVICE_H_
