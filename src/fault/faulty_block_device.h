// Fault-injecting BlockDevice decorator.
//
// Interposes an Injector between a BufferPool (or any device client)
// and the backing store. Three well-known sites:
//   * kReadFaultSite / kWriteFaultSite — when the site triggers, the
//     transfer does NOT happen (the wrapped device is never called, no
//     I/O is counted) and TryRead/TryWrite report kTransientFailure.
//     Retrying the operation re-rolls the site.
//   * kLatencySite — consulted on every transfer (before the fault
//     roll); when it triggers, options.spike_ns is added to the
//     simulated latency tally. The spike is accounting-only (nothing
//     sleeps), so tests stay deterministic.
//
// Determinism: all randomness lives in the Injector's per-site Rng
// streams, so a fixed (seed, operation sequence) yields a fixed fault
// schedule — chaos tests replay schedules exactly and compare counters
// against FailPoint trigger counts.

#ifndef TOPK_FAULT_FAULTY_BLOCK_DEVICE_H_
#define TOPK_FAULT_FAULTY_BLOCK_DEVICE_H_

#include <cstdint>

#include "common/check.h"
#include "em/block_device.h"
#include "fault/failpoint.h"
#include "fault/forwarding_block_device.h"

namespace topk::fault {

inline constexpr const char kReadFaultSite[] = "block_device.read";
inline constexpr const char kWriteFaultSite[] = "block_device.write";
inline constexpr const char kLatencySite[] = "block_device.latency";

class FaultyBlockDevice final : public ForwardingBlockDevice {
 public:
  struct Options {
    uint64_t spike_ns = 0;  // latency added per kLatencySite trigger
  };

  FaultyBlockDevice(em::BlockDevice* inner, Injector* injector)
      : FaultyBlockDevice(inner, injector, Options()) {}

  FaultyBlockDevice(em::BlockDevice* inner, Injector* injector,
                    const Options& options)
      : ForwardingBlockDevice(inner), injector_(injector),
        options_(options) {
    TOPK_CHECK(injector_ != nullptr);
  }

  [[nodiscard]] em::IoResult TryRead(uint64_t page_id,
                                     uint8_t* out) override {
    MaybeSpike();
    if (injector_->Trigger(kReadFaultSite)) {
      ++read_faults_;
      return em::IoResult::kTransientFailure;
    }
    return inner()->TryRead(page_id, out);
  }

  [[nodiscard]] em::IoResult TryWrite(uint64_t page_id,
                                      const uint8_t* data) override {
    MaybeSpike();
    if (injector_->Trigger(kWriteFaultSite)) {
      ++write_faults_;
      return em::IoResult::kTransientFailure;
    }
    return inner()->TryWrite(page_id, data);
  }

  // Faults injected by THIS decorator (== the injector's trigger counts
  // for the two fault sites, tracked here so a chaos test can hold the
  // identity faults == retries + giveups without reaching the injector).
  uint64_t read_faults() const { return read_faults_; }
  uint64_t write_faults() const { return write_faults_; }
  uint64_t latency_spikes() const { return latency_spikes_; }
  uint64_t simulated_latency_ns() const { return simulated_latency_ns_; }

 private:
  void MaybeSpike() {
    if (options_.spike_ns == 0) return;
    if (!injector_->Trigger(kLatencySite)) return;
    ++latency_spikes_;
    simulated_latency_ns_ += options_.spike_ns;
  }

  Injector* injector_;
  Options options_;
  uint64_t read_faults_ = 0;
  uint64_t write_faults_ = 0;
  uint64_t latency_spikes_ = 0;
  uint64_t simulated_latency_ns_ = 0;
};

}  // namespace topk::fault

#endif  // TOPK_FAULT_FAULTY_BLOCK_DEVICE_H_
