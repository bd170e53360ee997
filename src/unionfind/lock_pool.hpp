// Striped spinlock pool for the parallel REM merger.
//
// Algorithm 8 of the paper indexes `lock_array` by tree root, implying one
// lock per provisional label; at the paper's largest image that would be
// hundreds of millions of locks. A striped pool hashes the root index onto
// a fixed power-of-two set of locks instead (DESIGN.md substitution S5).
// Correctness is unaffected — the merger only ever holds one lock at a
// time, so false sharing of a stripe can cause contention but never
// deadlock. Every seam merge shares one pool of kDefaultBits stripes
// (uf::seam_locks); other sizes exist for the union-find tests, which
// force a single stripe to maximize contention.
//
// A stripe is a test-and-test-and-set spinlock: the section it guards is
// one root re-check and one store, far shorter than parking a thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "common/contracts.hpp"
#include "common/types.hpp"

namespace paremsp::uf {

/// One stripe of the pool, padded to four bytes: sixteen stripes share a
/// cache line.
class alignas(4) SpinLock {
 public:
  void lock() noexcept {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      for (int spins = 0; flag_.test(std::memory_order_relaxed); ++spins) {
        if (spins >= kSpinsBeforeYield) std::this_thread::yield();
      }
    }
  }
  void unlock() noexcept { flag_.clear(std::memory_order_release); }

 private:
  static constexpr int kSpinsBeforeYield = 64;
  std::atomic_flag flag_;
};

/// RAII pool of 2^bits spinlocks, indexed by hashed element id.
class LockPool {
 public:
  /// Default 4096 stripes: large enough that two random roots collide with
  /// probability < 0.03% per pair, small enough to stay cache-resident.
  static constexpr int kDefaultBits = 12;
  /// Largest supported pool: 2^24 locks.
  static constexpr int kMaxBits = 24;

  explicit LockPool(int bits = kDefaultBits)
      : mask_((1ULL << checked_bits(bits)) - 1),
        locks_(std::make_unique<SpinLock[]>(mask_ + 1)) {}

  LockPool(const LockPool&) = delete;
  LockPool& operator=(const LockPool&) = delete;
  LockPool(LockPool&&) = delete;
  LockPool& operator=(LockPool&&) = delete;

  [[nodiscard]] std::size_t stripe_count() const noexcept {
    return static_cast<std::size_t>(mask_ + 1);
  }

  /// Lock protecting element x.
  [[nodiscard]] SpinLock* lock_for(Label x) noexcept {
    return &locks_[hash(static_cast<std::uint64_t>(x)) & mask_];
  }

  /// Scoped acquire/release of the stripe covering x.
  class Guard {
   public:
    Guard(LockPool& pool, Label x) noexcept : lock_(pool.lock_for(x)) {
      lock_->lock();
    }
    ~Guard() { lock_->unlock(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    SpinLock* lock_;
  };

 private:
  // Validated before any allocation happens (member initializers run
  // before the constructor body could check).
  static int checked_bits(int bits) {
    PAREMSP_REQUIRE(bits >= 0 && bits <= kMaxBits,
                    "stripe bits out of range");
    return bits;
  }

  // Fibonacci hashing spreads adjacent label indices across stripes;
  // neighboring image labels would otherwise pile onto neighboring locks.
  static constexpr std::uint64_t hash(std::uint64_t x) noexcept {
    return (x * 0x9e3779b97f4a7c15ULL) >> 32;
  }

  std::uint64_t mask_;
  std::unique_ptr<SpinLock[]> locks_;
};

}  // namespace paremsp::uf
