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
//
// cas_unite<Find, Splice> is a lock-free union-find primitive over the
// same array: root updates use CAS, and how walk steps advance (SPLICE)
// and whether a successful link compacts the argument paths (FIND) are
// compile-time policies, after PASGAL's union_find_rules.h. No labeler
// merges with it; it stays a standalone primitive with its own
// concurrency tests (tests/test_unionfind_parallel.cpp).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/types.hpp"
#include "unionfind/lock_pool.hpp"

namespace paremsp::uf {

/// Runtime selector for the FIND (post-link path compaction) policy of
/// cas_unite. Runtime enums let tests and callers route without templates;
/// cas_unite_fn maps a (find, splice) pair onto the matching cas_unite<>
/// instantiation.
enum class CasFind {
  Naive,  // no compaction (the historical cas_unite behavior)
  Split,  // path splitting: every visited node re-parented to grandparent
  Halve,  // path halving: every second node re-parented to grandparent
};

/// Runtime selector for the SPLICE (walk advancement) policy of cas_unite.
enum class CasSplice {
  Atomic,  // CAS: advance only if our snapshot of the parent was current
  Simple,  // plain relaxed store (Algorithm 8's unlocked splice; a lost
           // concurrent update is benign — see DESIGN.md §11)
};

[[nodiscard]] constexpr const char* to_string(CasFind f) noexcept {
  switch (f) {
    case CasFind::Naive: return "naive";
    case CasFind::Split: return "split";
    case CasFind::Halve: return "halve";
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(CasSplice s) noexcept {
  return s == CasSplice::Atomic ? "atomic" : "simple";
}

/// Optional per-call accounting for locked_unite and cas_unite. `joins`
/// counts root links. A link stores `p[r] = py` only after the re-check
/// (or the CAS) saw `r` still a root, and a root is its tree's minimum, so
/// `py < r` lies in another tree: every join merges two distinct trees.
/// Summed over a merge phase, joins therefore equal the number of trees it
/// eliminated (the same semantics as the `joins` out-param of rem_unite).
/// `retries` counts contention events: a lock-side re-check that found the
/// root stolen, or a failed root CAS.
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

inline bool cas(Label* p, Label i, Label expected, Label desired) noexcept {
  return std::atomic_ref<Label>(p[i]).compare_exchange_strong(
      expected, desired, std::memory_order_relaxed);
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

// --- cas_unite policy structs ----------------------------------------------
//
// FIND policies run after a successful root link and compact the paths the
// union walked (PASGAL find_atomic_split / find_atomic_halve). Every write
// re-parents a non-root node to one of its ancestors — a strictly smaller,
// same-component value — so the REM invariant p[i] <= i, the acyclicity
// argument, and the minimum-root property all survive (DESIGN.md §11).

/// No post-link compaction. (PASGAL's find_naive walks without writing;
/// as a compaction pass that is a no-op, so it costs nothing here.) The
/// default — together with SpliceAtomic it IS the historical cas_unite.
struct FindNaive {
  static constexpr const char* kName = "naive";
  static void compress(Label* /*p*/, Label /*i*/) noexcept {}
};

/// Atomic path splitting: each visited node is CASed to its grandparent,
/// then the walk advances to the old parent (every node on the path ends
/// up one level higher). A failed CAS just means someone else already
/// improved (or spliced) that link; the walk continues regardless.
struct FindSplit {
  static constexpr const char* kName = "split";
  static void compress(Label* p, Label i) noexcept {
    while (true) {
      const Label v = detail::load(p, i);
      const Label w = detail::load(p, v);
      if (v == w) return;  // reached a root (or a self-parented node)
      detail::cas(p, i, v, w);
      i = v;  // split: advance to the parent
    }
  }
};

/// Atomic path halving: same CAS, but the walk jumps to the grandparent —
/// half the visits of splitting, half the compaction.
struct FindHalve {
  static constexpr const char* kName = "halve";
  static void compress(Label* p, Label i) noexcept {
    while (true) {
      const Label v = detail::load(p, i);
      const Label w = detail::load(p, v);
      if (v == w) return;
      detail::cas(p, i, v, w);
      i = w;  // halve: advance to the grandparent
    }
  }
};

/// SPLICE policies advance one side of the union walk while re-parenting
/// the node being left behind (`i`, whose snapshot parent was `pi`) to the
/// other side's smaller parent `target`. Returns true when the walk may
/// advance past `i`.

/// CAS splice: only advance if our view of p[i] was current, so the parent
/// value can never grow back (the historical cas_unite splice).
struct SpliceAtomic {
  static constexpr const char* kName = "atomic";
  static bool advance(Label* p, Label i, Label pi, Label target) noexcept {
    return detail::cas(p, i, pi, target);
  }
};

/// Plain-store splice — Algorithm 8's unlocked splice transplanted into
/// the CAS backend. The store may overwrite a concurrent update, but every
/// value ever written at i is a strictly smaller member of the merged
/// component, so the race is benign: the partition (and the minimum-root
/// property) is unaffected, only a path-compression hint is lost
/// (DESIGN.md §11). One relaxed store instead of a CAS per walk step.
struct SpliceSimple {
  static constexpr const char* kName = "simple";
  static bool advance(Label* p, Label i, Label /*pi*/,
                      Label target) noexcept {
    detail::store(p, i, target);
    return true;
  }
};

/// Lock-free parallel REM union: root updates use CAS; walk advancement
/// and post-link path compaction are template policies (see above). The
/// defaults reproduce the historical cas_unite exactly. A failed root CAS
/// simply re-reads; both walk cursors strictly decrease between retries,
/// which guarantees progress.
template <class Find = FindNaive, class Splice = SpliceAtomic>
inline void cas_unite(Label* p, Label x, Label y,
                      UniteStats* stats = nullptr) noexcept {
  using detail::cas;
  using detail::load;
  Label rootx = x;
  Label rooty = y;
  while (true) {
    const Label px = load(p, rootx);
    const Label py = load(p, rooty);
    if (px == py) return;
    if (px > py) {
      if (rootx == px) {
        // A successful root CAS always joins two distinct trees: rootx was
        // a root (so every member of its tree is >= rootx, the REM
        // minimum-root invariant) and py < rootx lies in another tree.
        if (cas(p, rootx, px, py)) {
          if (stats != nullptr) ++stats->joins;
          Find::compress(p, x);
          Find::compress(p, y);
          return;
        }
        if (stats != nullptr) ++stats->retries;
        continue;  // Lost the race; re-read and retry.
      }
      if (Splice::advance(p, rootx, px, py)) {
        rootx = px;
      }
    } else {
      if (rooty == py) {
        if (cas(p, rooty, py, px)) {
          if (stats != nullptr) ++stats->joins;
          Find::compress(p, x);
          Find::compress(p, y);
          return;
        }
        if (stats != nullptr) ++stats->retries;
        continue;
      }
      if (Splice::advance(p, rooty, py, px)) {
        rooty = py;
      }
    }
  }
}

/// Signature shared by every cas_unite<> instantiation.
using CasUniteFn = void (*)(Label*, Label, Label, UniteStats*);

/// The cas_unite<> instantiation implementing a (find, splice) pair. Total
/// over both enums.
[[nodiscard]] constexpr CasUniteFn cas_unite_fn(CasFind find,
                                                CasSplice splice) noexcept {
  switch (find) {
    case CasFind::Naive:
      return splice == CasSplice::Atomic ? &cas_unite<FindNaive, SpliceAtomic>
                                         : &cas_unite<FindNaive, SpliceSimple>;
    case CasFind::Split:
      return splice == CasSplice::Atomic ? &cas_unite<FindSplit, SpliceAtomic>
                                         : &cas_unite<FindSplit, SpliceSimple>;
    case CasFind::Halve:
      return splice == CasSplice::Atomic ? &cas_unite<FindHalve, SpliceAtomic>
                                         : &cas_unite<FindHalve, SpliceSimple>;
  }
  return &cas_unite<FindNaive, SpliceAtomic>;
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
