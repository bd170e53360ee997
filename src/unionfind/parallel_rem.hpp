// Parallel REM union — the paper's Algorithm 8 (MERGER), the one seam
// merge of every parallel labeler and of sharded requests.
//
// It operates on the flat parent array the sequential scan built. Shared
// accesses go through std::atomic_ref<Label> with relaxed ordering: the
// algorithm tolerates stale reads by construction (Patwary, Refsnes &
// Manne, IPDPS 2012 — paper reference [38]) and the fork-join that ends
// the merge phase publishes all writes before FLATTEN runs, so relaxed is
// sufficient and compiles to plain loads/stores on x86. What atomic_ref
// buys is freedom from C++-level data-race UB, not extra synchronization.
//
// Splicing steps run unlocked — each store writes a strictly smaller,
// same-component parent, so trees stay acyclic regardless of interleaving
// (DESIGN.md §11) — while a *root*'s parent is only set under that root's
// stripe lock with a re-check, which is the one step that must not be
// lost (it is what actually joins two trees).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/types.hpp"
#include "unionfind/lock_pool.hpp"

namespace paremsp::uf {

/// Optional per-call accounting for locked_unite. `joins` counts root
/// links. A link stores `p[r] = py` only after the re-check saw `r` still
/// a root, and a root is its tree's minimum, so `py < r` lies in another
/// tree: every join merges two distinct trees.
/// Summed over a merge phase, joins therefore equal the number of trees it
/// eliminated (the same semantics as the `joins` out-param of rem_unite).
/// `retries` counts contention events: a lock-side re-check that found the
/// root stolen.
struct UniteStats {
  std::uint64_t joins = 0;
  std::uint64_t retries = 0;
};

namespace detail {

inline Label load(const Label* p, Label i) noexcept {
  return std::atomic_ref<const Label>(p[i]).load(std::memory_order_relaxed);
}

inline void store(Label* p, Label i, Label v) noexcept {
  std::atomic_ref<Label>(p[i]).store(v, std::memory_order_relaxed);
}

}  // namespace detail

/// Parallel REM union with striped locks (paper Algorithm 8).
/// Safe to call concurrently from many threads on the same array.
///
/// Each iteration works from one snapshot read of both parents, so every
/// store writes a value strictly below the index it is stored at (py < px
/// <= rootx), keeping trees acyclic under any interleaving.
inline void locked_unite(Label* p, LockPool& locks, Label x, Label y,
                         UniteStats* stats = nullptr) noexcept {
  using detail::load;
  using detail::store;
  Label rootx = x;
  Label rooty = y;
  while (true) {
    const Label px = load(p, rootx);
    const Label py = load(p, rooty);
    if (px == py) return;
    if (px > py) {
      if (rootx == px) {  // rootx looked like a root: join under lock.
        bool success = false;
        {
          LockPool::Guard guard(locks, rootx);
          if (load(p, rootx) == rootx) {  // Re-check: still a root?
            store(p, rootx, py);
            success = true;
          }
        }
        if (success) {
          if (stats != nullptr) ++stats->joins;
          return;
        }
        if (stats != nullptr) ++stats->retries;
        continue;  // Another thread re-parented rootx; re-examine.
      }
      store(p, rootx, py);  // Splice (unlocked; benign race, see header).
      rootx = px;
    } else {
      if (rooty == py) {
        bool success = false;
        {
          LockPool::Guard guard(locks, rooty);
          if (load(p, rooty) == rooty) {
            store(p, rooty, px);
            success = true;
          }
        }
        if (success) {
          if (stats != nullptr) ++stats->joins;
          return;
        }
        if (stats != nullptr) ++stats->retries;
        continue;
      }
      store(p, rooty, px);
      rooty = py;
    }
  }
}

/// The one lock pool every seam merge in the process shares, at
/// LockPool::kDefaultBits. Sharing is safe: a stripe guards only one root
/// re-check and store, so labelers and engine requests merging different
/// parent arrays at once only ever contend, never interfere.
[[nodiscard]] inline LockPool& seam_locks() {
  static LockPool pool;
  return pool;
}

/// The seam merge of every parallel labeler and of sharded requests:
/// locked_unite over seam_locks(). Safe to call concurrently.
inline void seam_unite(Label* p, Label x, Label y,
                       UniteStats& stats) noexcept {
  locked_unite(p, seam_locks(), x, y, &stats);
}

}  // namespace paremsp::uf
