// Character blob extraction — CCL as the first stage of OCR (the paper's
// §I lists character recognition among the motivating applications).
//
// Renders text into a bitmap with the built-in 5x7 font, labels it, and
// recovers the glyph bounding boxes in left-to-right reading order —
// exactly what a recognizer consumes. Glyphs with holes (A, B, O...) stay
// single components under 8-connectivity, which is why OCR pipelines use
// 8-connectivity for ink.
//
//   $ ./character_blobs --text "CONNECTED COMPONENTS" --scale 2
#include <algorithm>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/paremsp_all.hpp"

int main(int argc, char** argv) {
  using namespace paremsp;

  CliParser cli("character_blobs: extract glyph boxes from rendered text");
  cli.add_option("text", "PAREMSP IPPS 2014", "text to render (A-Z, 0-9)");
  cli.add_option("scale", "2", "glyph scale factor");
  cli.add_flag("show-labels", "print the label plane");
  if (!cli.parse(argc, argv)) return 0;

  const std::string text = cli.get("text");
  const BinaryImage page =
      gen::text_banner(text, cli.get_int("scale"), /*margin=*/3);

  const auto labeler = make_labeler(Algorithm::Aremsp);
  const LabelResponse result = labeler->label(page);
  const auto stats =
      analysis::compute_stats(result.labels, result.num_components);

  std::cout << "rendered page (" << page.rows() << "x" << page.cols()
            << "):\n"
            << to_ascii(page) << '\n';
  if (cli.get_flag("show-labels")) {
    std::cout << to_ascii(result.labels) << '\n';
  }

  // Reading order = left edge of the bounding box.
  std::vector<const analysis::ComponentInfo*> order;
  for (const auto& c : stats.components) order.push_back(&c);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return a->bbox.col_min < b->bbox.col_min;
  });

  // Non-space characters the font can draw become connected blobs. 'i'/'j'
  // style multi-part glyphs don't exist in this font, so glyphs and
  // components correspond 1:1.
  std::size_t expected = 0;
  for (const char ch : text) {
    if (ch != ' ') ++expected;
  }
  std::cout << "glyph components: " << result.num_components << " (expected "
            << expected << ")\n\n";

  TextTable table("glyphs in reading order");
  table.set_header({"#", "char", "bbox (r0,c0)-(r1,c1)", "ink [px]"});
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& c = *order[i];
    std::size_t text_index = 0;
    std::size_t seen = 0;
    for (std::size_t k = 0; k < text.size(); ++k) {
      if (text[k] == ' ') continue;
      if (seen == i) {
        text_index = k;
        break;
      }
      ++seen;
    }
    table.add_row({std::to_string(i + 1),
                   std::string(1, text[text_index]),
                   "(" + std::to_string(c.bbox.row_min) + "," +
                       std::to_string(c.bbox.col_min) + ")-(" +
                       std::to_string(c.bbox.row_max) + "," +
                       std::to_string(c.bbox.col_max) + ")",
                   std::to_string(c.area)});
  }
  std::cout << table.to_string();
  return 0;
}
