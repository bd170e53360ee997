// Run extraction: RowBits word scanning with countr_zero / countr_one.
#include "core/runs.hpp"

namespace paremsp {

void RunBuffer::extract(ConstImageView image, Coord row_begin, Coord row_end,
                        Coord col_begin, Coord col_end, int threshold) {
  row_begin_ = row_begin;
  row_end_ = row_end;
  runs_.clear();
  const std::size_t nrows =
      row_end > row_begin ? static_cast<std::size_t>(row_end - row_begin) : 0;
  if (offsets_.size() < nrows + 1) offsets_.resize(nrows + 1);
  offsets_[0] = 0;
  issued_.assign(nrows + 1, 0);

  for (Coord r = row_begin; r < row_end; ++r) {
    if (threshold >= 0) {
      bits_.encode_threshold(image, r, col_begin, col_end,
                             static_cast<std::uint8_t>(threshold));
    } else {
      bits_.encode(image, r, col_begin, col_end);
    }
    const std::span<const std::uint64_t> words = bits_.words();
    // `open` is the start column of a run still growing at the end of the
    // previous word (-1 when none) — the stitch across word boundaries.
    Coord open = -1;
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t word = words[w];
      const Coord base = col_begin + static_cast<Coord>(w) * 64;
      if (open >= 0) {
        const int ones = std::countr_one(word);
        if (ones == 64) continue;  // still growing past this word
        if (ones > 0) word &= ~((std::uint64_t{1} << ones) - 1);
        runs_.push_back(Run{open, base + ones, 0});
        open = -1;
      }
      while (word != 0) {
        const int b = std::countr_zero(word);
        const int len = std::countr_one(word >> b);
        if (b + len == 64) {
          open = base + b;  // may continue into the next word
          break;
        }
        runs_.push_back(Run{base + b, base + b + len, 0});
        word &= ~(((std::uint64_t{1} << len) - 1) << b);
      }
    }
    // The tail word zero-pads past col_end, so `open` survives the word
    // loop only when the run reaches the window edge exactly.
    if (open >= 0) runs_.push_back(Run{open, col_end, 0});
    offsets_[static_cast<std::size_t>(r - row_begin) + 1] = runs_.size();
  }
}

}  // namespace paremsp
