// Bit-packed row encoding for the run-based scan layer.
//
// RowBits converts one row of a binary ConstImageView (nonzero = foreground)
// into 64-pixel machine words: bit i of word w answers "is pixel
// col_begin + 64*w + i foreground?". Packing is branchless and vectorized —
// a runtime-dispatched kernel table (pack_kernels) collapses 16 (SSE2) or
// 32 (AVX2) pixels into mask bits per step via compare + movemask, with a
// scalar multiply-gather as the portable fallback and the oracle the SIMD
// tiers are differentially tested against. The run extractor
// (core/runs.hpp) then walks the words with countr_zero/countr_one,
// touching each word once regardless of its contents.
//
// The same table carries a fused THRESHOLD variant: the im2bw compare
// (pixel > cutoff) happens in the vector registers while packing, so a
// grayscale image binarizes straight into run words with no intermediate
// byte plane (DESIGN.md §10).
//
// Views are pitch-strided, so ROI subviews and caller-owned padded buffers
// encode exactly like packed rasters: encode() reads only the requested
// [col_begin, col_end) window of the addressed row and never the padding —
// every kernel tier handles the sub-register tail with scalar loads, so
// there is no overread for ASan to catch (the suite pins this on
// sentinel-guarded subviews).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "image/view.hpp"

namespace paremsp {

/// Vector-width tier of the row-packing kernels. Every tier is compiled
/// into every build (function-level target attributes), so a baseline-ISA
/// binary still runs AVX2 packing on an AVX2 host — and a forced lower
/// tier is always available as the differential oracle.
enum class SimdTier {
  Scalar,  // portable 8-px multiply-gather (the oracle)
  Sse2,    // 16 px/step: cmpeq/cmpgt + movemask
  Avx2,    // 32 px/step: 256-bit cmpeq/cmpgt + movemask
};

[[nodiscard]] const char* to_string(SimdTier tier) noexcept;

/// Highest tier the host CPU supports (CPUID probe, computed once).
[[nodiscard]] SimdTier detected_simd_tier() noexcept;

/// Tier the packing kernels dispatch to: detected_simd_tier() clamped by
/// the PAREMSP_SIMD environment override ("scalar" | "sse2" | "avx2",
/// read once). The override can only lower the tier, never exceed the
/// hardware.
[[nodiscard]] SimdTier active_simd_tier() noexcept;

/// One tier's row-packing kernels. Both write exactly ceil(width/64)
/// words; unused high bits of the tail word are zero (run extraction
/// relies on it), and no kernel reads past px[width - 1].
struct PackKernels {
  /// words[w] bit i = (px[64*w + i] != 0), for 64*w + i < width.
  void (*pack_row)(const std::uint8_t* px, Coord width, std::uint64_t* words);
  /// words[w] bit i = (px[64*w + i] > cutoff) — the fused im2bw compare
  /// (strict >, so cutoff 0 reproduces pack_row and cutoff 255 packs an
  /// all-background row).
  void (*pack_row_threshold)(const std::uint8_t* px, Coord width,
                             std::uint8_t cutoff, std::uint64_t* words);
};

/// The kernel table of the active tier (runtime dispatch, resolved once).
[[nodiscard]] const PackKernels& pack_kernels() noexcept;

/// The kernel table of a SPECIFIC tier — the hook the differential tests
/// use to run every compiled tier against the scalar oracle. Requesting a
/// tier above detected_simd_tier() returns the detected tier's table
/// instead (calling an unsupported kernel would be UB).
[[nodiscard]] const PackKernels& pack_kernels(SimdTier tier) noexcept;

/// Reusable encoder for one row window. The word buffer is grown once to
/// the widest row seen and reused allocation-free after that (RunBuffer
/// pools one per scan, see core/runs.hpp).
class RowBits {
 public:
  /// Pack eight consecutive uint8 pixels into eight bits (bit j set iff
  /// p[j] != 0). Little-endian byte gather: collapse every byte to its
  /// low bit, then the multiply shifts byte j's bit to position 56+j.
  /// The scalar kernel is built from this; kept public as the documented
  /// reference the per-bit tests pin.
  [[nodiscard]] static std::uint64_t pack8(const std::uint8_t* p) noexcept {
    if constexpr (std::endian::native == std::endian::little) {
      std::uint64_t v;
      std::memcpy(&v, p, sizeof v);
      v |= v >> 4;
      v |= v >> 2;
      v |= v >> 1;
      v &= 0x0101010101010101ULL;
      return (v * 0x0102040810204080ULL) >> 56;
    } else {
      std::uint64_t bits = 0;
      for (int j = 0; j < 8; ++j) {
        bits |= static_cast<std::uint64_t>(p[j] != 0) << j;
      }
      return bits;
    }
  }

  /// Encode the [col_begin, col_end) window of image row r. Afterwards
  /// words()[w] bit i corresponds to column col_begin + 64*w + i; unused
  /// high bits of the tail word are zero (run extraction relies on it).
  void encode(ConstImageView image, Coord r, Coord col_begin, Coord col_end) {
    const std::uint8_t* px = prepare(image, r, col_begin, col_end);
    pack_kernels().pack_row(px, width_, words_.data());
  }

  /// Fused grayscale encode: bit i = (pixel > cutoff), the exact integer
  /// form of im2bw's strict threshold. Same window/tail contract as
  /// encode(); no intermediate binary plane ever exists.
  void encode_threshold(ConstImageView image, Coord r, Coord col_begin,
                        Coord col_end, std::uint8_t cutoff) {
    const std::uint8_t* px = prepare(image, r, col_begin, col_end);
    pack_kernels().pack_row_threshold(px, width_, cutoff, words_.data());
  }

  /// The packed words of the last encode (exactly ceil(width/64) many).
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return {words_.data(), used_words_};
  }

  /// Window width of the last encode.
  [[nodiscard]] Coord width() const noexcept { return width_; }

  /// Bytes held by the word buffer (capacity, not live use).
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  /// Size the word buffer for the window and return the row pointer.
  const std::uint8_t* prepare(ConstImageView image, Coord r, Coord col_begin,
                              Coord col_end) {
    width_ = col_end - col_begin;
    used_words_ = (static_cast<std::size_t>(width_) + 63) / 64;
    if (words_.size() < used_words_) words_.resize(used_words_);
    return image.row(r) + col_begin;
  }

  std::vector<std::uint64_t> words_;
  std::size_t used_words_ = 0;
  Coord width_ = 0;
};

}  // namespace paremsp
