// Grayscale 8-bit image / binary mask containers used by the vision substrate.
//
// Frames are rasterized at a configurable *analysis resolution* (real edge
// deployments run background subtraction on a downsampled stream — a Jetson
// cannot run per-pixel GMM at 4K), while all geometry reported upstream is in
// native capture coordinates.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/geometry.h"

namespace tangram::video {

class Image {
 public:
  Image() = default;
  Image(int width, int height, std::uint8_t fill = 0)
      : width_(width),
        height_(height),
        data_(checked_pixel_count(width, height), fill) {}

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] common::Size size() const { return {width_, height_}; }
  [[nodiscard]] std::size_t pixel_count() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] std::uint8_t at(int x, int y) const {
    return data_[index(x, y)];
  }
  std::uint8_t& at(int x, int y) { return data_[index(x, y)]; }

  [[nodiscard]] const std::uint8_t* data() const { return data_.data(); }
  std::uint8_t* data() { return data_.data(); }

  void fill(std::uint8_t v) { std::fill(data_.begin(), data_.end(), v); }

  // Become a width x height image of `fill`, reusing the storage when it is
  // large enough (per-frame scratch images allocate once).
  void assign(int width, int height, std::uint8_t fill) {
    data_.assign(checked_pixel_count(width, height), fill);
    width_ = width;
    height_ = height;
  }

  // Fill the intersection of `r` with the image.
  void fill_rect(const common::Rect& r, std::uint8_t v) {
    const common::Rect c = common::clamp_to(
        r, common::Rect{0, 0, width_, height_});
    for (int y = c.top(); y < c.bottom(); ++y) {
      std::uint8_t* row = data_.data() + static_cast<std::size_t>(y) * width_;
      std::fill(row + c.left(), row + c.right(), v);
    }
  }

 private:
  [[nodiscard]] static std::size_t checked_pixel_count(int width, int height) {
    if (width <= 0 || height <= 0)
      throw std::invalid_argument("Image: non-positive dimensions");
    return static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  }

  [[nodiscard]] std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * width_ + x;
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> data_;
};

// Binary foreground mask; same layout as Image but semantically 0/1.
using Mask = Image;

}  // namespace tangram::video
