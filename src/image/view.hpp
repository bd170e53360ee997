// Non-owning strided 2-D image views.
//
// A StridedView references a rows x cols window of someone else's storage
// where consecutive rows are `pitch` elements apart (pitch >= cols). It is
// the library's universal input type: every labeler kernel reads pixels
// through a view, so a packed Raster, an ROI of a larger raster, and a
// row-padded frame in a caller's own buffer all label zero-copy — no pixel
// is ever duplicated to satisfy the API (the request path asserts this).
//
//   ConstImageView   read-only view of binary pixels (LabelRequest::input)
//   MutableImageView writable view of a label plane (LabelRequest::label_out)
//
// A view is three words (pointer, dims, pitch) and is passed by value.
// Lifetime is the caller's problem, exactly like std::span: the viewed
// storage must outlive every use of the view. For the engine's asynchronous
// submit() that means "until the returned future is ready" (see DESIGN.md
// §7).
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "image/raster.hpp"

namespace paremsp {

/// Non-owning view of a rows x cols window with row stride `pitch`
/// (elements, not bytes). Mirrors Raster's read interface so kernels are
/// written once against either.
template <class T>
class StridedView {
 public:
  using value_type = std::remove_const_t<T>;

  StridedView() = default;

  /// View over external storage. `pitch` is the element distance between
  /// the starts of consecutive rows; pitch == cols means packed rows.
  /// The referenced window must stay below 2^31 pixels (provisional
  /// labels span [1, rows*cols] and Label is 32-bit signed) — the same
  /// invariant Raster enforces for owned planes.
  StridedView(T* data, Coord rows, Coord cols, std::int64_t pitch)
      : data_(data), rows_(rows), cols_(cols), pitch_(pitch) {
    PAREMSP_REQUIRE(rows >= 0 && cols >= 0, "view dimensions must be >= 0");
    PAREMSP_REQUIRE(pitch >= cols, "view pitch must be >= cols");
    PAREMSP_REQUIRE(rows == 0 || cols == 0 ||
                        static_cast<std::int64_t>(rows) * cols <
                            (static_cast<std::int64_t>(1) << 31),
                    "view must stay below 2^31 pixels (Label is 32-bit)");
    PAREMSP_REQUIRE(data != nullptr || rows == 0 || cols == 0,
                    "non-empty view requires storage");
  }

  /// Whole-raster view (packed: pitch == cols). Implicit on purpose — it
  /// is what keeps every BinaryImage-taking call site working against the
  /// view-based kernels and the request API, at zero cost.
  template <class Tag>
    requires std::is_const_v<T>
  StridedView(const Raster<value_type, Tag>& raster)  // NOLINT(runtime/explicit)
      : StridedView(raster.pixels().data(), raster.rows(), raster.cols(),
                    raster.cols()) {}

  template <class Tag>
    requires(!std::is_const_v<T>)
  StridedView(Raster<value_type, Tag>& raster)  // NOLINT(runtime/explicit)
      : StridedView(raster.pixels().data(), raster.rows(), raster.cols(),
                    raster.cols()) {}

  /// A mutable view converts to the matching read-only view.
  operator StridedView<const value_type>() const
    requires(!std::is_const_v<T>)
  {
    return StridedView<const value_type>(data_, rows_, cols_, pitch_);
  }

  [[nodiscard]] Coord rows() const noexcept { return rows_; }
  [[nodiscard]] Coord cols() const noexcept { return cols_; }
  [[nodiscard]] std::int64_t pitch() const noexcept { return pitch_; }
  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(rows_) * cols_;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  /// True when rows are packed (pitch == cols).
  [[nodiscard]] bool contiguous() const noexcept { return pitch_ == cols_; }
  [[nodiscard]] T* data() const noexcept { return data_; }

  [[nodiscard]] bool in_bounds(Coord r, Coord c) const noexcept {
    return r >= 0 && r < rows_ && c >= 0 && c < cols_;
  }

  /// Unchecked element access (hot path; callers guarantee bounds).
  [[nodiscard]] T& operator()(Coord r, Coord c) const noexcept {
    return data_[static_cast<std::int64_t>(r) * pitch_ + c];
  }

  /// Bounds-checked access; throws PreconditionError when out of range.
  [[nodiscard]] T& at(Coord r, Coord c) const {
    PAREMSP_REQUIRE(in_bounds(r, c), "view index out of bounds");
    return (*this)(r, c);
  }

  /// Bounds-safe read: `fallback` outside the view (scan kernels treat
  /// out-of-view pixels as background, like Raster::at_or).
  [[nodiscard]] value_type at_or(Coord r, Coord c,
                                 value_type fallback = value_type{}) const
      noexcept {
    return in_bounds(r, c) ? (*this)(r, c) : fallback;
  }

  [[nodiscard]] T* row(Coord r) const noexcept {
    return data_ + static_cast<std::int64_t>(r) * pitch_;
  }

  /// ROI slice: the nrows x ncols window whose top-left corner is
  /// (row0, col0), sharing this view's storage and pitch. Bounds-checked.
  [[nodiscard]] StridedView subview(Coord row0, Coord col0, Coord nrows,
                                    Coord ncols) const {
    PAREMSP_REQUIRE(row0 >= 0 && col0 >= 0 && nrows >= 0 && ncols >= 0 &&
                        row0 + nrows <= rows_ && col0 + ncols <= cols_,
                    "subview rectangle out of bounds");
    return StridedView(data_ + static_cast<std::int64_t>(row0) * pitch_ + col0,
                       nrows, ncols, pitch_);
  }

 private:
  T* data_ = nullptr;
  Coord rows_ = 0;
  Coord cols_ = 0;
  std::int64_t pitch_ = 0;
};

/// Read-only binary-pixel view: the input side of every labeling request.
using ConstImageView = StridedView<const std::uint8_t>;

/// Writable label-plane view: the caller-buffer output side of a request
/// (LabelRequest::label_out).
using MutableImageView = StridedView<Label>;

/// Copy a packed label plane into a (possibly strided) destination view of
/// identical dimensions. Writes exactly the rows x cols window — never the
/// inter-row padding (the out-of-ROI write check in tests/test_view.cpp
/// pins this).
void copy_labels(const LabelImage& src, MutableImageView dst);

/// Materialize a strided binary view into a packed owning image (the
/// explicit, caller-visible way to un-stride; the labeling request path
/// itself never does this).
[[nodiscard]] BinaryImage materialize(ConstImageView view);

}  // namespace paremsp
