// Equivalence-recording policies plugged into the scan kernels, and the
// merge-phase policy dispatch.
//
// The scan kernels (scan_one_line.hpp, scan_two_line.hpp) are parameterized
// over how label equivalences are stored, which is exactly the axis the
// paper varies: CCLLRPC uses Wu's array union-find, CCLREMSP/AREMSP use
// REM with splicing, ARUN uses He's rtable/next/tail. Each policy exposes:
//
//   Label new_label()          — register the next provisional label
//   Label merge(Label, Label)  — record an equivalence, return a set member
//   Label copy(Label)          — label value to carry on a plain copy
//   Label used()               — number of labels issued
//
// The merge phase has its own policy axis: the backend (MergeBackend) and,
// for CasRem, the find × splice combination (unionfind/parallel_rem.hpp).
// SeamMerger below is the one place runtime configuration meets the
// compile-time policy matrix — every executor (PAREMSP, tiled, rle, the
// engine's sharded path) resolves its configured backend here, once.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "unionfind/lock_pool.hpp"
#include "unionfind/parallel_rem.hpp"
#include "unionfind/rem.hpp"
#include "unionfind/rtable.hpp"
#include "unionfind/wu_equivalence.hpp"

namespace paremsp {

/// How the seam-merge phase applies the boundary equivalences (PAREMSP's
/// Phase II, the rle labelers' and the sharded path's seam merges).
enum class MergeBackend {
  LockedRem,   // Algorithm 8: striped locks, unlocked splices (default)
  CasRem,      // lock-free compare-and-swap variant (ablation)
  Sequential,  // serialized rem_unite (ablation lower bound)
};

[[nodiscard]] constexpr const char* to_string(MergeBackend b) noexcept {
  switch (b) {
    case MergeBackend::LockedRem: return "locked";
    case MergeBackend::CasRem: return "cas";
    case MergeBackend::Sequential: return "sequential";
  }
  return "?";
}

/// Display name of a fully resolved merge-backend choice: the CAS backend
/// is a find × splice matrix ("cas/split+simple"), the others are flat.
/// Benches, tables and test SCOPED_TRACEs all label configurations with
/// this so the ablation rows read identically everywhere.
[[nodiscard]] inline std::string merge_backend_label(
    MergeBackend b, uf::CasFind find = uf::CasFind::Naive,
    uf::CasSplice splice = uf::CasSplice::Atomic) {
  if (b != MergeBackend::CasRem) return to_string(b);
  return std::string("cas/") + to_string(find) + "+" + to_string(splice);
}

/// The cas_unite<> instantiation implementing a (find, splice) pair. Total
/// over both enums; constexpr so the bench's policy tables can be static.
[[nodiscard]] constexpr uf::CasUniteFn cas_unite_fn(
    uf::CasFind find, uf::CasSplice splice) noexcept {
  switch (find) {
    case uf::CasFind::Naive:
      return splice == uf::CasSplice::Atomic
                 ? &uf::cas_unite<uf::FindNaive, uf::SpliceAtomic>
                 : &uf::cas_unite<uf::FindNaive, uf::SpliceSimple>;
    case uf::CasFind::Split:
      return splice == uf::CasSplice::Atomic
                 ? &uf::cas_unite<uf::FindSplit, uf::SpliceAtomic>
                 : &uf::cas_unite<uf::FindSplit, uf::SpliceSimple>;
    case uf::CasFind::Halve:
      return splice == uf::CasSplice::Atomic
                 ? &uf::cas_unite<uf::FindHalve, uf::SpliceAtomic>
                 : &uf::cas_unite<uf::FindHalve, uf::SpliceSimple>;
  }
  return &uf::cas_unite<uf::FindNaive, uf::SpliceAtomic>;
}

/// One executor's validated seam-merge backend: owns the striped lock pool
/// (LockedRem only) and the resolved cas_unite<> instantiation (CasRem
/// only), and gives every merge loop the same unite() call. Built once per
/// labeler / sharded run — lock init is not free. unite() may run
/// concurrently unless the backend is Sequential (plain rem_unite), whose
/// merge loop runs with one participant (see participants()).
class SeamMerger {
 public:
  /// Throws PreconditionError unless 0 <= lock_bits <= LockPool::kMaxBits
  /// (checked for every backend, so a config is valid or not regardless
  /// of which backend it currently selects).
  explicit SeamMerger(MergeBackend backend,
                      int lock_bits = uf::LockPool::kDefaultBits,
                      uf::CasFind find = uf::CasFind::Naive,
                      uf::CasSplice splice = uf::CasSplice::Atomic)
      : backend_(backend), cas_unite_(cas_unite_fn(find, splice)) {
    PAREMSP_REQUIRE(lock_bits >= 0 && lock_bits <= uf::LockPool::kMaxBits,
                    "lock_bits out of range");
    if (backend_ == MergeBackend::LockedRem) {
      locks_ = std::make_unique<uf::LockPool>(lock_bits);
    }
  }

  /// From any config spelling the four merge fields (ParemspConfig,
  /// RleConfig, ShardOptions).
  template <class Config>
  explicit SeamMerger(const Config& config)
      : SeamMerger(config.merge_backend, config.lock_bits, config.cas_find,
                   config.cas_splice) {}

  /// Participants a merge loop may use out of `threads`: one for
  /// Sequential, whose plain rem_unite must not run concurrently.
  [[nodiscard]] int participants(int threads) const noexcept {
    return backend_ == MergeBackend::Sequential ? 1 : threads;
  }

  /// Join the sets of x and y in `p`, accumulating joins (and, for the
  /// concurrent backends, contention retries) into `stats`.
  void unite(Label* p, Label x, Label y, uf::UniteStats& stats) const
      noexcept {
    switch (backend_) {
      case MergeBackend::LockedRem:
        uf::locked_unite(p, *locks_, x, y, &stats);
        return;
      case MergeBackend::CasRem:
        cas_unite_(p, x, y, &stats);
        return;
      case MergeBackend::Sequential:
        uf::rem_unite(p, x, y, &stats.joins);
        return;
    }
  }

 private:
  MergeBackend backend_;
  uf::CasUniteFn cas_unite_;
  std::unique_ptr<uf::LockPool> locks_;
};

/// REM-with-splicing policy over a caller-owned parent array (REMSP).
/// `base` offsets the label space: thread t of PAREMSP passes
/// base = first_row * cols so chunks never collide (Algorithm 7 line 7).
/// A non-null `joins` accumulates how many merge() calls joined two
/// distinct trees (PhaseCounters::scan_unions); the pointer is only
/// dereferenced at actual root links, so the disinterested path costs one
/// predictable branch.
class RemEquiv {
 public:
  explicit RemEquiv(std::span<Label> p, Label base = 0,
                    std::uint64_t* joins = nullptr) noexcept
      : p_(p), base_(base), joins_(joins) {}

  Label new_label() noexcept {
    const Label l = base_ + (++used_);
    p_[l] = l;
    return l;
  }
  Label merge(Label a, Label b) noexcept {
    return uf::rem_unite(p_.data(), a, b, joins_);
  }
  [[nodiscard]] Label copy(Label a) const noexcept { return p_[a]; }
  [[nodiscard]] Label used() const noexcept { return used_; }

 private:
  std::span<Label> p_;
  Label base_;
  std::uint64_t* joins_;
  Label used_ = 0;
};

/// Wu-style array union-find policy (link by smaller index + full path
/// compression) used by the CCLLRPC baseline.
class WuEquiv {
 public:
  explicit WuEquiv(std::span<Label> p) noexcept : p_(p) {}

  Label new_label() noexcept {
    const Label l = ++used_;
    p_[l] = l;
    return l;
  }
  Label merge(Label a, Label b) noexcept {
    return uf::wu_unite(p_.data(), a, b);
  }
  [[nodiscard]] Label copy(Label a) const noexcept { return p_[a]; }
  [[nodiscard]] Label used() const noexcept { return used_; }

 private:
  std::span<Label> p_;
  Label used_ = 0;
};

/// He rtable/next/tail policy used by the ARUN baseline. Representatives
/// are always fully resolved, so copy() is the identity (the final mapping
/// is applied from the table after the scan).
class RtableEquiv {
 public:
  explicit RtableEquiv(uf::EquivalenceTable& table) noexcept
      : table_(&table) {}

  Label new_label() { return table_->new_label(); }
  Label merge(Label a, Label b) { return table_->resolve(a, b); }
  [[nodiscard]] Label copy(Label a) const noexcept { return a; }
  [[nodiscard]] Label used() const noexcept { return table_->label_count(); }

 private:
  uf::EquivalenceTable* table_;
};

}  // namespace paremsp
