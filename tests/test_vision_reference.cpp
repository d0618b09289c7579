// Differential tests of the pixel kernels against naive reference models.
//
// The references below are the straightforward implementations the library
// used before its fast paths, copied as they were (comments trimmed): GMM
// with a per-pixel std::sort and no special-cased pixel states, dilation
// that stamps every foreground pixel's neighbourhood, and labeling with a
// separate int32 label image.  Every seeded config runs both on the same
// input and compares the outputs byte for byte:
//
//  * GMM: K = 1..8 with varied learning rate (including 0, 1, > 1 and
//    infinity), background ratio (including > 1), initial weight (including
//    0, negative, tiny and 1 — equal-weight ties) and match/variance
//    settings, on frames with noise, moving objects, constant frames and
//    abrupt scene cuts (which exercise replace-weakest).
//  * Blobs: random masks of arbitrary non-zero values (not only 255), blobs
//    touching the borders, 1-pixel-wide/high masks, dilate radius 0..3,
//    through a workspace reused across masks of different sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "vision/components.h"
#include "vision/gmm.h"

namespace tangram::vision {
namespace {

// --- reference GMM -----------------------------------------------------------

class ReferenceGmm {
 public:
  ReferenceGmm(common::Size frame, GmmParams params)
      : size_(frame), params_(params) {
    mixtures_.resize(static_cast<std::size_t>(frame.area()) *
                     static_cast<std::size_t>(params_.num_gaussians));
    for (auto& g : mixtures_) g = Gaussian{0.0f, 0.0f, 0.0f};
  }

  video::Mask apply(const video::Image& frame) {
    video::Mask fg(size_.width, size_.height, 0);
    const std::uint8_t* src = frame.data();
    std::uint8_t* dst = fg.data();
    const auto n = static_cast<std::size_t>(size_.area());

    if (frames_seen_ == 0) {
      for (std::size_t px = 0; px < n; ++px) {
        Gaussian* mix =
            &mixtures_[px * static_cast<std::size_t>(params_.num_gaussians)];
        mix[0] = Gaussian{1.0f, static_cast<float>(src[px]),
                          static_cast<float>(params_.initial_variance)};
      }
    } else {
      for (std::size_t px = 0; px < n; ++px)
        dst[px] = process_pixel(px, static_cast<double>(src[px])) ? 255 : 0;
    }
    ++frames_seen_;
    return fg;
  }

 private:
  struct Gaussian {
    float weight;
    float mean;
    float variance;
  };

  bool process_pixel(std::size_t px, double value) {
    const int k = params_.num_gaussians;
    Gaussian* mix = &mixtures_[px * static_cast<std::size_t>(k)];
    const auto alpha = static_cast<float>(params_.learning_rate);

    int matched = -1;
    for (int i = 0; i < k; ++i) {
      if (mix[i].weight <= 0.0f) break;
      const double d = value - mix[i].mean;
      if (d * d <= params_.match_threshold * mix[i].variance) {
        matched = i;
        break;
      }
    }

    if (matched >= 0) {
      Gaussian& g = mix[matched];
      const double rho = alpha;
      const double d = value - g.mean;
      g.mean += static_cast<float>(rho * d);
      g.variance += static_cast<float>(rho * (d * d - g.variance));
      g.variance =
          std::max(g.variance, static_cast<float>(params_.min_variance));
      for (int i = 0; i < k; ++i) {
        if (mix[i].weight <= 0.0f) break;
        mix[i].weight +=
            alpha * ((i == matched ? 1.0f : 0.0f) - mix[i].weight);
      }
    } else {
      int weakest = 0;
      for (int i = 1; i < k; ++i)
        if (mix[i].weight < mix[weakest].weight) weakest = i;
      mix[weakest] = Gaussian{static_cast<float>(params_.initial_weight),
                              static_cast<float>(value),
                              static_cast<float>(params_.initial_variance)};
    }

    float wsum = 0.0f;
    for (int i = 0; i < k; ++i) wsum += std::max(0.0f, mix[i].weight);
    if (wsum > 0.0f)
      for (int i = 0; i < k; ++i) mix[i].weight /= wsum;
    std::sort(mix, mix + k, [](const Gaussian& a, const Gaussian& b) {
      return a.weight > b.weight;
    });

    float acc = 0.0f;
    for (int i = 0; i < k; ++i) {
      if (mix[i].weight <= 0.0f) break;
      acc += mix[i].weight;
      const double d = value - mix[i].mean;
      if (d * d <= params_.match_threshold * mix[i].variance) return false;
      if (acc >= params_.background_ratio) break;
    }
    return true;
  }

  common::Size size_;
  GmmParams params_;
  std::vector<Gaussian> mixtures_;
  std::size_t frames_seen_ = 0;
};

// --- reference blobs ---------------------------------------------------------

video::Mask reference_dilate(const video::Mask& mask, int radius) {
  if (radius <= 0) return mask;
  const int w = mask.width(), h = mask.height();
  video::Mask tmp(w, h, 0), out(w, h, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (!mask.at(x, y)) continue;
      const int x0 = std::max(0, x - radius), x1 = std::min(w - 1, x + radius);
      for (int xx = x0; xx <= x1; ++xx) tmp.at(xx, y) = 255;
    }
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (!tmp.at(x, y)) continue;
      const int y0 = std::max(0, y - radius), y1 = std::min(h - 1, y + radius);
      for (int yy = y0; yy <= y1; ++yy) out.at(x, yy) = 255;
    }
  }
  return out;
}

std::vector<Component> reference_components(const video::Mask& mask,
                                            int min_area_px) {
  const int w = mask.width(), h = mask.height();
  std::vector<std::int32_t> labels(static_cast<std::size_t>(w) * h, 0);
  std::vector<Component> out;
  std::vector<int> stack;

  auto idx = [w](int x, int y) { return static_cast<std::size_t>(y) * w + x; };

  std::int32_t next_label = 0;
  for (int sy = 0; sy < h; ++sy) {
    for (int sx = 0; sx < w; ++sx) {
      if (!mask.at(sx, sy) || labels[idx(sx, sy)]) continue;
      ++next_label;
      Component comp;
      int minx = sx, miny = sy, maxx = sx, maxy = sy;
      stack.clear();
      stack.push_back(sy * w + sx);
      labels[idx(sx, sy)] = next_label;
      while (!stack.empty()) {
        const int p = stack.back();
        stack.pop_back();
        const int x = p % w, y = p / w;
        ++comp.area_px;
        minx = std::min(minx, x);
        maxx = std::max(maxx, x);
        miny = std::min(miny, y);
        maxy = std::max(maxy, y);
        constexpr int dx[] = {1, -1, 0, 0};
        constexpr int dy[] = {0, 0, 1, -1};
        for (int d = 0; d < 4; ++d) {
          const int nx = x + dx[d], ny = y + dy[d];
          if (nx < 0 || ny < 0 || nx >= w || ny >= h) continue;
          if (!mask.at(nx, ny) || labels[idx(nx, ny)]) continue;
          labels[idx(nx, ny)] = next_label;
          stack.push_back(ny * w + nx);
        }
      }
      if (comp.area_px >= min_area_px) {
        comp.box = common::Rect::from_corners(minx, miny, maxx + 1, maxy + 1);
        out.push_back(comp);
      }
    }
  }
  return out;
}

std::vector<common::Rect> reference_merge(std::vector<common::Rect> boxes,
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

std::vector<common::Rect> reference_blobs(const video::Mask& mask,
                                          const ComponentParams& params) {
  const video::Mask dilated = reference_dilate(mask, params.dilate_radius);
  const auto comps = reference_components(dilated, params.min_area_px);
  std::vector<common::Rect> boxes;
  boxes.reserve(comps.size());
  for (const auto& c : comps) boxes.push_back(c.box);
  return reference_merge(std::move(boxes), params.merge_gap_px);
}

// --- helpers -----------------------------------------------------------------

bool same_bytes(const video::Image& a, const video::Image& b) {
  return a.size() == b.size() &&
         std::equal(a.data(), a.data() + a.pixel_count(), b.data());
}

std::uint8_t clamp_byte(int v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
}

GmmParams random_gmm_params(common::Rng& rng, int k) {
  GmmParams p;
  p.num_gaussians = k;
  switch (rng.uniform_int(0, 9)) {
    case 0: p.learning_rate = 0.0; break;
    case 1: p.learning_rate = 1.0; break;
    case 2: p.learning_rate = 1.5; break;  // overshoot: negative weights
    case 3:
      p.learning_rate = std::numeric_limits<double>::infinity();
      break;
    case 4: p.learning_rate = 0.03; break;
    default: p.learning_rate = rng.uniform(0.001, 0.6); break;
  }
  switch (rng.uniform_int(0, 7)) {
    case 0: p.initial_weight = 1.0; break;   // ties with the survivors
    case 1: p.initial_weight = 0.0; break;   // never live
    case 2: p.initial_weight = -0.2; break;
    case 3: p.initial_weight = 1e-9; break;  // w0 rounds back to exactly 1
    case 4: p.initial_weight = 0.05; break;
    default: p.initial_weight = rng.uniform(0.0, 1.0); break;
  }
  switch (rng.uniform_int(0, 4)) {
    case 0: p.background_ratio = 1.5; break;  // test every live component
    case 1: p.background_ratio = 0.75; break;
    default: p.background_ratio = rng.uniform(0.05, 1.0); break;
  }
  p.initial_variance = rng.uniform(4.0, 200.0);
  p.min_variance = rng.uniform(0.5, 20.0);
  p.match_threshold = rng.uniform(0.5, 12.0);
  return p;
}

// One frame of a scene that cuts, drifts, goes flat and carries objects.
void next_frame(common::Rng& rng, std::vector<int>& base, video::Image& img) {
  const int w = img.width(), h = img.height();
  const double event = rng.uniform();
  if (event < 0.08) {  // abrupt scene cut
    for (auto& b : base) b = rng.uniform_int(0, 255);
  } else if (event < 0.12) {  // flat frame: equal values everywhere
    const int v = rng.uniform_int(0, 255);
    for (auto& b : base) b = v;
  }
  const int noise = rng.uniform_int(0, 12);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      img.at(x, y) = clamp_byte(base[static_cast<std::size_t>(y) * w + x] +
                                rng.uniform_int(-noise, noise));
  const int objects = rng.uniform_int(0, 3);
  for (int o = 0; o < objects; ++o)
    img.fill_rect({rng.uniform_int(-3, w), rng.uniform_int(-3, h),
                   rng.uniform_int(1, 8), rng.uniform_int(1, 8)},
                  static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
}

// --- GMM differential --------------------------------------------------------

TEST(VisionReference, GmmMatchesReferenceByteForByte) {
  constexpr int kConfigs = 240;
  constexpr int kFrames = 60;
  for (int c = 0; c < kConfigs; ++c) {
    common::Rng rng(static_cast<std::uint64_t>(c) + 1, 71);
    const int k = 1 + c % 8;
    const GmmParams params = random_gmm_params(rng, k);
    const common::Size size{rng.uniform_int(1, 29), rng.uniform_int(1, 21)};
    GmmBackgroundSubtractor gmm(size, params);
    ReferenceGmm reference(size, params);
    std::vector<int> base(static_cast<std::size_t>(size.area()));
    for (auto& b : base) b = rng.uniform_int(0, 255);
    video::Image frame(size.width, size.height);
    video::Mask reused;
    for (int f = 0; f < kFrames; ++f) {
      next_frame(rng, base, frame);
      const video::Mask want = reference.apply(frame);
      // Alternate the allocating and the reusing entry points.
      if (f % 2 == 0) {
        ASSERT_TRUE(same_bytes(gmm.apply(frame), want))
            << "config " << c << " K=" << k << " frame " << f;
      } else {
        gmm.apply(frame, reused);
        ASSERT_TRUE(same_bytes(reused, want))
            << "config " << c << " K=" << k << " frame " << f;
      }
    }
  }
}

// --- blob differential -------------------------------------------------------

video::Mask random_mask(common::Rng& rng) {
  const int w = rng.uniform_int(0, 4) == 0 ? 1 : rng.uniform_int(1, 40);
  const int h = rng.uniform_int(0, 4) == 0 ? 1 : rng.uniform_int(1, 40);
  video::Mask m(w, h, 0);
  const double density = rng.uniform(0.0, 0.5);
  for (std::size_t i = 0; i < m.pixel_count(); ++i)
    if (rng.bernoulli(density))
      m.data()[i] = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
  // Solid blobs, some hanging over the borders.
  const int blobs = rng.uniform_int(0, 4);
  for (int b = 0; b < blobs; ++b)
    m.fill_rect({rng.uniform_int(-4, w), rng.uniform_int(-4, h),
                 rng.uniform_int(1, 12), rng.uniform_int(1, 12)},
                static_cast<std::uint8_t>(rng.uniform_int(1, 255)));
  return m;
}

TEST(VisionReference, BlobsMatchReference) {
  constexpr int kMasks = 1500;
  BlobWorkspace workspace;  // shared across sizes on purpose
  for (int c = 0; c < kMasks; ++c) {
    common::Rng rng(static_cast<std::uint64_t>(c) + 1, 73);
    const video::Mask mask = random_mask(rng);
    ComponentParams params;
    params.dilate_radius = rng.uniform_int(0, 3);
    params.min_area_px = rng.uniform_int(0, 6);
    params.merge_gap_px = rng.uniform_int(0, 3);

    const video::Mask want_dilated =
        reference_dilate(mask, params.dilate_radius);
    ASSERT_TRUE(same_bytes(dilate(mask, params.dilate_radius), want_dilated))
        << "mask " << c << " radius " << params.dilate_radius;

    const auto want_comps = reference_components(mask, params.min_area_px);
    const auto comps = connected_components(mask, params.min_area_px);
    ASSERT_EQ(comps.size(), want_comps.size()) << "mask " << c;
    for (std::size_t i = 0; i < comps.size(); ++i) {
      EXPECT_EQ(comps[i].box, want_comps[i].box) << "mask " << c << " #" << i;
      EXPECT_EQ(comps[i].area_px, want_comps[i].area_px)
          << "mask " << c << " #" << i;
    }

    const auto want_boxes = reference_blobs(mask, params);
    EXPECT_EQ(extract_blobs(mask, params), want_boxes) << "mask " << c;
    EXPECT_EQ(extract_blobs(mask, params, workspace), want_boxes)
        << "mask " << c;
  }
}

}  // namespace
}  // namespace tangram::vision
