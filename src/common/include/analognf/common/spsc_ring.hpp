// Lock-free single-producer / single-consumer ring.
//
// The ingress layer (src/traffic) moves batches from generator threads
// into run-to-completion port workers the way a DPDK rx ring moves
// mbufs: one producer, one consumer, no locks, no allocation after
// construction. The implementation is the classic bounded ring with
// cache-line-padded head/tail counters plus *cached* counterparts: the
// producer re-reads the consumer's head only when its cached copy says
// the ring looks full (and vice versa), so in steady state each side
// runs entirely out of its own cache line.
//
// Memory ordering: the producer publishes slots with a store of tail_
// (seq_cst for the doorbell below, so at least release); the consumer
// acquires tail_ before reading slots (and symmetrically for head_ on
// the reclaim side). Exactly one thread may call the producer API
// (TryPush/PushBatch) and one the consumer API (TryPop/PopBatch/Bell/
// Park) at a time — the contract TSan checks in
// SpscRingTest.TwoThreadHandoff and SpscRingTest.ParkWakesOnPush.
//
// Doorbell: an idle consumer sleeps instead of polling. It is an
// eventcount — a futex word (bell_, via C++20 atomic wait/notify) plus
// a parked_ flag — and the protocol is
//
//   consumer:  seen = Bell();  check for work;  Park(seen)
//              Park: parked_ = 1 (seq_cst); re-check tail_ (seq_cst);
//                    if still empty, sleep until bell_ != seen
//   producer:  publish tail_ (seq_cst); load parked_ (seq_cst); if
//              set, Wake() — bump bell_ and notify
//
// It cannot lose a wakeup. The parked_ store/tail_ load on one side and
// the tail_ store/parked_ load on the other are a Dekker pair: in the
// seq_cst total order, either the consumer's re-check sees the new tail
// (no sleep) or the producer sees parked_ set and bumps the bell, which
// the consumer's wait(seen) then observes even if the bump landed
// before it went to sleep. The publishing store is seq_cst rather than
// release + a seq_cst fence because ThreadSanitizer does not model
// fences; on x86 both are one full barrier. A busy consumer is never
// parked, so a push costs that barrier and one load of a line nobody
// writes — no syscall. Wake() is also the hook for other wake sources
// (a mailbox, a shutdown): anything that bumps the bell after the
// consumer read `seen` ends the Park.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace analognf {

template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two (minimum 2). The ring
  // holds `capacity` elements: the head/tail counters are free-running
  // uint64s, so no slot is sacrificed to distinguish full from empty.
  explicit SpscRing(std::size_t capacity)
      : capacity_(RoundUpPow2(capacity)),
        mask_(capacity_ - 1),
        slots_(capacity_) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return capacity_; }

  // ------------------------------------------------------------ producer
  // Moves `item` into the ring; false if full (item is left untouched).
  bool TryPush(T& item) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return false;
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_seq_cst);
    WakeIfParked();
    return true;
  }
  bool TryPush(T&& item) { return TryPush(item); }

  // Moves up to `count` items from `items` into the ring; returns how
  // many were consumed (a prefix of `items`). One store publishes the
  // whole batch (and rings the bell at most once).
  std::size_t PushBatch(T* items, std::size_t count) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::uint64_t free = capacity_ - (tail - head_cache_);
    if (free < count) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = capacity_ - (tail - head_cache_);
    }
    const std::size_t n = count < free ? count : static_cast<std::size_t>(free);
    for (std::size_t i = 0; i < n; ++i) {
      slots_[(tail + i) & mask_] = std::move(items[i]);
    }
    if (n != 0) {
      tail_.store(tail + n, std::memory_order_seq_cst);
      WakeIfParked();
    }
    return n;
  }

  // ------------------------------------------------------------ consumer
  // Moves the oldest item out into `out`; false if empty.
  bool TryPop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Moves up to `max` items into `out[0..)`; returns how many. One
  // release store retires the whole batch.
  std::size_t PopBatch(T* out, std::size_t max) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::uint64_t avail = tail_cache_ - head;
    if (avail < max) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = tail_cache_ - head;
    }
    const std::size_t n = max < avail ? max : static_cast<std::size_t>(avail);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::move(slots_[(head + i) & mask_]);
    }
    if (n != 0) head_.store(head + n, std::memory_order_release);
    return n;
  }

  // ------------------------------------------------------------ doorbell
  // Consumer: the bell's current value. Read it *before* checking for
  // work, then hand it to Park().
  std::uint32_t Bell() const { return bell_.load(std::memory_order_seq_cst); }

  // Consumer: sleeps until the ring is non-empty or the bell has moved
  // past `seen`. Returns at once if either already holds. May return
  // spuriously (a stale wake); callers loop.
  void Park(std::uint32_t seen) {
    parked_.store(1, std::memory_order_seq_cst);
    if (tail_.load(std::memory_order_seq_cst) ==
        head_.load(std::memory_order_relaxed)) {
      bell_.wait(seen, std::memory_order_seq_cst);
    }
    parked_.store(0, std::memory_order_relaxed);
  }

  // Any thread: rings the bell, ending a Park() whose `seen` predates
  // this call.
  void Wake() {
    bell_.fetch_add(1, std::memory_order_seq_cst);
    bell_.notify_one();
  }

  // ------------------------------------------------------------ observers
  // Snapshot views; exact only when the opposite side is quiescent
  // (which is how the drain logic uses them).
  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }
  std::size_t Size() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

 private:
  // Producer, after its seq_cst publish of tail_: the producer half of
  // the Dekker pair above.
  void WakeIfParked() {
    if (parked_.load(std::memory_order_seq_cst) != 0) Wake();
  }

  static std::size_t RoundUpPow2(std::size_t v) {
    if (v < 2) v = 2;
    std::size_t p = 2;
    while (p < v) {
      if (p > (static_cast<std::size_t>(1) << 62)) {
        throw std::invalid_argument("SpscRing: capacity too large");
      }
      p <<= 1;
    }
    return p;
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  std::vector<T> slots_;

  // Producer-owned line: tail plus the producer's cached copy of head.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  // Consumer-owned line: head plus the consumer's cached copy of tail.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
  // Doorbell line: written only when the consumer parks or someone
  // wakes it, so a busy ring keeps it shared (read-only) on both sides.
  alignas(64) std::atomic<std::uint32_t> bell_{0};
  std::atomic<std::uint32_t> parked_{0};
};

}  // namespace analognf
