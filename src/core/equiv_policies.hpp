// Equivalence-recording policies plugged into the scan kernels.
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
// Boundary equivalences found after a parallel scan bypass these
// policies: every executor (PAREMSP, the run labelers, the engine's
// sharded path) joins them with uf::seam_unite (unionfind/parallel_rem.hpp),
// the paper's Algorithm 8.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "unionfind/rem.hpp"
#include "unionfind/rtable.hpp"
#include "unionfind/wu_equivalence.hpp"

namespace paremsp {

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
