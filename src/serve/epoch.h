// Epoch/snapshot rotation: serve queries from immutable published
// structures while a writer mutates a shadow copy off to the side.
//
// The unit of publication is an Epoch — one fully built, thereafter
// immutable structure plus a sequence number. EpochManager owns the
// chain of epochs behind a single atomic pointer:
//
//   * ONE writer thread (unsynchronized with other writers by
//     contract) builds or mutates its own shadow structure, then
//     Publish()es it: the new epoch is swapped in atomically and the
//     old one moves to the retired list.
//   * Readers (one registered slot per QueryEngine; the engine pins
//     once per batch) Acquire() the current epoch through a
//     hazard-pointer protocol: publish your candidate into your slot,
//     re-read the current pointer, retry on mismatch. No locks, no
//     reference-count contention, no allocation — a reader never
//     blocks on the writer and never observes a torn structure.
//   * A retired epoch is freed only by the writer, and only once no
//     reader slot still points at it (CollectRetired, called
//     opportunistically by Publish). The writer never frees under a
//     reader; a reader never dereferences an epoch it failed to pin.
//
// Memory-order argument (the classic hazard-pointer store/load fence):
// Acquire's slot store and current_ re-load, and Publish's current_
// exchange and slot scan, are all seq_cst, so in the single total
// order either the reader's validating load sees the new epoch (and
// retries) or the writer's scan sees the occupied slot (and keeps the
// epoch). A slot may briefly hold a dangling pointer mid-retry; it is
// only ever compared, never dereferenced. Address reuse (ABA) is
// benign for the same reason the protocol works at all: validation
// succeeding means that address IS the current epoch now.
//
// What may be published is gated at compile time by
// ShareableTopKStructure, exactly as for the engine's static mode:
// epochs are shared const across worker threads.

#ifndef TOPK_SERVE_EPOCH_H_
#define TOPK_SERVE_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "serve/shareable.h"

namespace topk::serve {

// How many reader slots an EpochManager hands out (one per engine
// registered on it).
inline constexpr size_t kMaxReaders = 64;

template <ShareableTopKStructure S>
class EpochManager {
 public:
  // The unit of publication. Immutable from the moment Publish() swaps
  // it in until the writer frees it; readers touch it only through
  // const access.
  // epoch-published
  struct Epoch {
    S structure;       // epoch: built before publish, const-shared after
    uint64_t seq = 0;  // epoch: written once before publish, never again
  };

  // A reader's lease on one epoch for the duration of a batch: while
  // live, the epoch (current or retired) cannot be freed. Move-only
  // RAII; default-constructed pins are empty. One Pin per slot at a
  // time — the owning engine pins per batch, serially.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept
        : manager_(std::exchange(other.manager_, nullptr)),
          slot_(other.slot_),
          epoch_(std::exchange(other.epoch_, nullptr)) {}
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        Release();
        manager_ = std::exchange(other.manager_, nullptr);
        slot_ = other.slot_;
        epoch_ = std::exchange(other.epoch_, nullptr);
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }

    const S* get() const { return &epoch_->structure; }
    uint64_t seq() const { return epoch_->seq; }
    bool empty() const { return epoch_ == nullptr; }

    void Release() {
      if (manager_ != nullptr) {
        manager_->slots_[slot_].store(nullptr, std::memory_order_seq_cst);
        manager_ = nullptr;
        epoch_ = nullptr;
      }
    }

   private:
    friend class EpochManager;
    Pin(EpochManager* manager, size_t slot, const Epoch* epoch)
        : manager_(manager), slot_(slot), epoch_(epoch) {}

    EpochManager* manager_ = nullptr;
    size_t slot_ = 0;
    const Epoch* epoch_ = nullptr;
  };

  // The initial structure becomes epoch 1.
  explicit EpochManager(S initial) : slots_(kMaxReaders) {
    current_.store(new Epoch{std::move(initial), 1},
                   std::memory_order_release);
  }

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // All pins must be released (engines destroyed / batches drained)
  // before the manager goes away.
  ~EpochManager() {
    for (std::atomic<const Epoch*>& s : slots_) {
      TOPK_CHECK(s.load(std::memory_order_acquire) == nullptr);
    }
    for (Epoch* e : retired_) delete e;
    delete current_.load(std::memory_order_acquire);
  }

  // Claims a reader slot; each concurrent reader (engine) needs its
  // own. Thread-safe.
  size_t RegisterReader() {
    const size_t slot = num_readers_.fetch_add(1, std::memory_order_relaxed);
    TOPK_CHECK(slot < kMaxReaders);  // more readers than kMaxReaders
    return slot;
  }

  // Reader side: pin the current epoch. Lock-free, allocation-free,
  // never blocks on the writer (the loop re-runs only when a Publish
  // lands between the slot store and the validating re-load — at most
  // once per concurrent publish). Only the slot's owner may call this,
  // and only with no live Pin on the same slot.
  Pin Acquire(size_t slot) {
    const Epoch* e = current_.load(std::memory_order_seq_cst);
    for (;;) {
      slots_[slot].store(e, std::memory_order_seq_cst);
      const Epoch* cur = current_.load(std::memory_order_seq_cst);
      if (cur == e) return Pin(this, slot, e);
      e = cur;  // a publish raced us; chase the new epoch
    }
  }

  // Writer side (single writer only): swap `next` in as the new
  // current epoch, retire the old one, and opportunistically free any
  // retired epochs no reader still pins. Returns the new sequence
  // number (monotone from 1).
  uint64_t Publish(S next) {
    Epoch* epoch = new Epoch{std::move(next), 0};
    epoch->seq = current_.load(std::memory_order_relaxed)->seq + 1;
    Epoch* old = current_.exchange(epoch, std::memory_order_seq_cst);
    retired_.push_back(old);
    CollectRetired();
    return epoch->seq;
  }

  // Writer side: free every retired epoch that no reader slot pins.
  // Returns how many were freed. Publish calls this; tests and
  // shutdown paths may call it again after readers drain.
  size_t CollectRetired() {
    size_t freed = 0;
    size_t kept = 0;
    for (Epoch* e : retired_) {
      if (Pinned(e)) {
        retired_[kept++] = e;
      } else {
        delete e;
        ++freed;
      }
    }
    retired_.resize(kept);
    return freed;
  }

  // Writer-side observability (not synchronized with Publish; call
  // from the writer thread or after it quiesces).
  size_t live_epochs() const { return retired_.size() + 1; }
  uint64_t current_seq() const {
    return current_.load(std::memory_order_acquire)->seq;
  }

 private:
  bool Pinned(const Epoch* e) const {
    for (const std::atomic<const Epoch*>& s : slots_) {
      if (s.load(std::memory_order_seq_cst) == e) return true;
    }
    return false;
  }

  std::atomic<Epoch*> current_{nullptr};
  // Hazard slots: slot i is written only by its registered reader
  // (nullptr or its pinned epoch) and scanned by the writer.
  std::vector<std::atomic<const Epoch*>> slots_;
  std::atomic<size_t> num_readers_{0};
  // Writer-owned; no reader ever touches the retired list.
  std::vector<Epoch*> retired_;
};

}  // namespace topk::serve

#endif  // TOPK_SERVE_EPOCH_H_
