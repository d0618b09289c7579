#include "vision/components.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace tangram::vision {

namespace {

// Index of the first non-zero byte in row[x, w), or w.  Skips zero runs a
// word at a time: foreground masks are mostly empty.
int skip_zeros(const std::uint8_t* row, int x, int w) {
  for (; x + 8 <= w; x += 8) {
    std::uint64_t word;
    std::memcpy(&word, row + x, sizeof(word));
    if (word != 0) break;
  }
  while (x < w && row[x] == 0) ++x;
  return x;
}

// Index of the first zero byte in row[x, w), or w.
int skip_nonzeros(const std::uint8_t* row, int x, int w) {
  while (x < w && row[x] != 0) ++x;
  return x;
}

// Separable dilation (radius > 0).  Horizontal: each run of non-zero bytes
// [x, end) fills [x - r, end + r) of its row.  Vertical: an output row is
// the OR of the 2r + 1 horizontal-pass rows around it.
void dilate_into(const video::Mask& mask, int radius, video::Mask& spans,
                 video::Mask& out) {
  const int w = mask.width(), h = mask.height();
  const auto stride = static_cast<std::size_t>(w);
  spans.assign(w, h, 0);
  for (int y = 0; y < h; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * stride;
    const std::uint8_t* src = mask.data() + row;
    std::uint8_t* dst = spans.data() + row;
    int x = skip_zeros(src, 0, w);
    while (x < w) {
      const int end = skip_nonzeros(src, x, w);
      const int x0 = std::max(0, x - radius), x1 = std::min(w, end + radius);
      std::memset(dst + x0, 255, static_cast<std::size_t>(x1 - x0));
      x = skip_zeros(src, end, w);
    }
  }
  out.assign(w, h, 0);
  for (int y = 0; y < h; ++y) {
    std::uint8_t* dst = out.data() + static_cast<std::size_t>(y) * stride;
    const int y0 = std::max(0, y - radius), y1 = std::min(h - 1, y + radius);
    for (int yy = y0; yy <= y1; ++yy) {
      const std::uint8_t* src =
          spans.data() + static_cast<std::size_t>(yy) * stride;
      for (std::size_t x = 0; x < stride; ++x) dst[x] |= src[x];
    }
  }
}

// 4-connected labeling that clears `mask` as it goes: a cleared pixel is a
// labeled one, so the mask doubles as the visited set.  Seeds are taken in
// raster order and the flood fill pushes neighbours in +x, -x, +y, -y order.
void label_consuming(video::Mask& mask, int min_area_px,
                     std::vector<common::Point>& stack,
                     std::vector<Component>& out) {
  const int w = mask.width(), h = mask.height();
  std::uint8_t* px = mask.data();
  out.clear();
  for (int sy = 0; sy < h; ++sy) {
    std::uint8_t* row = px + static_cast<std::size_t>(sy) * w;
    for (int sx = skip_zeros(row, 0, w); sx < w;
         sx = skip_zeros(row, sx + 1, w)) {
      Component comp;
      int minx = sx, miny = sy, maxx = sx, maxy = sy;
      stack.clear();
      stack.push_back({sx, sy});
      row[sx] = 0;
      while (!stack.empty()) {
        const common::Point p = stack.back();
        stack.pop_back();
        ++comp.area_px;
        minx = std::min(minx, p.x);
        maxx = std::max(maxx, p.x);
        miny = std::min(miny, p.y);
        maxy = std::max(maxy, p.y);
        std::uint8_t* at = px + static_cast<std::size_t>(p.y) * w + p.x;
        if (p.x + 1 < w && at[1]) {
          at[1] = 0;
          stack.push_back({p.x + 1, p.y});
        }
        if (p.x > 0 && at[-1]) {
          at[-1] = 0;
          stack.push_back({p.x - 1, p.y});
        }
        if (p.y + 1 < h && at[w]) {
          at[w] = 0;
          stack.push_back({p.x, p.y + 1});
        }
        if (p.y > 0 && at[-w]) {
          at[-w] = 0;
          stack.push_back({p.x, p.y - 1});
        }
      }
      if (comp.area_px >= min_area_px) {
        comp.box = common::Rect::from_corners(minx, miny, maxx + 1, maxy + 1);
        out.push_back(comp);
      }
    }
  }
}

// Merge boxes whose expanded versions overlap, until a fixed point.
std::vector<common::Rect> merge_close_boxes(std::vector<common::Rect> boxes,
                                            int gap) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < boxes.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < boxes.size(); ++j) {
        const common::Rect gi{boxes[i].x - gap, boxes[i].y - gap,
                              boxes[i].width + 2 * gap,
                              boxes[i].height + 2 * gap};
        if (common::overlaps(gi, boxes[j])) {
          boxes[i] = common::bounding_union(boxes[i], boxes[j]);
          boxes.erase(boxes.begin() + static_cast<std::ptrdiff_t>(j));
          changed = true;
          break;
        }
      }
    }
  }
  return boxes;
}

}  // namespace

video::Mask dilate(const video::Mask& mask, int radius) {
  if (radius <= 0) return mask;
  video::Mask spans, out;
  dilate_into(mask, radius, spans, out);
  return out;
}

std::vector<Component> connected_components(const video::Mask& mask,
                                            int min_area_px) {
  video::Mask scratch = mask;
  std::vector<common::Point> stack;
  std::vector<Component> out;
  label_consuming(scratch, min_area_px, stack, out);
  return out;
}

std::vector<common::Rect> extract_blobs(const video::Mask& mask,
                                        const ComponentParams& params) {
  BlobWorkspace workspace;
  return extract_blobs(mask, params, workspace);
}

std::vector<common::Rect> extract_blobs(const video::Mask& mask,
                                        const ComponentParams& params,
                                        BlobWorkspace& workspace) {
  if (params.dilate_radius > 0)
    dilate_into(mask, params.dilate_radius, workspace.spans,
                workspace.dilated);
  else
    workspace.dilated = mask;
  label_consuming(workspace.dilated, params.min_area_px, workspace.stack,
                  workspace.components);
  std::vector<common::Rect> boxes;
  boxes.reserve(workspace.components.size());
  for (const auto& c : workspace.components) boxes.push_back(c.box);
  return merge_close_boxes(std::move(boxes), params.merge_gap_px);
}

}  // namespace tangram::vision
