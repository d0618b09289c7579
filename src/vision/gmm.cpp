#include "vision/gmm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tangram::vision {

// params_ read once per frame, each in the precision its step of the update
// uses.
struct GmmBackgroundSubtractor::Kernel {
  int k;
  float alpha;  // weight update
  double rho;   // mean/variance update: alpha widened back to double
                // (Stauffer-Grimson uses alpha*N(x); the common practical
                // simplification uses alpha directly)
  double match_threshold;
  float min_variance;
  double background_ratio;
  float initial_weight;
  float initial_variance;
  // The single-live-component fast path is exact only while a weight of 1
  // stays 1 under `w += alpha * (1 - w)`, i.e. alpha * 0 is a zero.
  bool fast_path;
};

GmmBackgroundSubtractor::GmmBackgroundSubtractor(common::Size frame,
                                                 GmmParams params)
    : size_(frame), params_(params) {
  if (frame.empty())
    throw std::invalid_argument("GmmBackgroundSubtractor: empty frame size");
  if (params_.num_gaussians < 1 || params_.num_gaussians > 8)
    throw std::invalid_argument("GmmBackgroundSubtractor: K must be in 1..8");
  mixtures_.resize(static_cast<std::size_t>(frame.area()) *
                   static_cast<std::size_t>(params_.num_gaussians));
  for (auto& g : mixtures_) g = Gaussian{0.0f, 0.0f, 0.0f};
}

template <int kK>
void GmmBackgroundSubtractor::update_frame(const Kernel& kn,
                                           const std::uint8_t* src,
                                           std::uint8_t* dst) {
  const int k = kK > 0 ? kK : kn.k;
  // Move a matched component toward the value (d = value - mean).
  const auto update_matched = [&kn](Gaussian& g, double d) {
    g.mean += static_cast<float>(kn.rho * d);
    g.variance += static_cast<float>(kn.rho * (d * d - g.variance));
    g.variance = std::max(g.variance, kn.min_variance);
  };
  const auto n = static_cast<std::size_t>(size_.area());
  Gaussian* mix = mixtures_.data();
  for (std::size_t px = 0; px < n; ++px, mix += k) {
    const auto value = static_cast<double>(src[px]);

    // Fast path — the dominant pixel state: one live component of weight
    // exactly 1 (every other weight +-0) that the value matches.  There the
    // weight update (1 + alpha*0), the renormalisation (sum 1) and the sort
    // leave everything unchanged, and the background test sees only
    // component 0, so only its mean/variance update and match test remain.
    if (kn.fast_path && mix[0].weight == 1.0f) {
      bool single = true;
      for (int i = 1; i < k; ++i) single = single && mix[i].weight == 0.0f;
      const double d = value - mix[0].mean;
      if (single && d * d <= kn.match_threshold * mix[0].variance) {
        update_matched(mix[0], d);
        const double e = value - mix[0].mean;
        dst[px] = e * e <= kn.match_threshold * mix[0].variance ? 0 : 255;
        continue;
      }
    }

    // 1. Find the first matching component (components kept sorted by
    //    weight/sigma fitness, approximated by weight order here).
    int matched = -1;
    for (int i = 0; i < k; ++i) {
      if (mix[i].weight <= 0.0f) break;
      const double d = value - mix[i].mean;
      if (d * d <= kn.match_threshold * mix[i].variance) {
        matched = i;
        break;
      }
    }

    if (matched >= 0) {
      // 2a. Update the matched component.
      Gaussian& g = mix[matched];
      update_matched(g, value - g.mean);
      for (int i = 0; i < k; ++i) {
        if (mix[i].weight <= 0.0f) break;
        mix[i].weight +=
            kn.alpha * ((i == matched ? 1.0f : 0.0f) - mix[i].weight);
      }
    } else {
      // 2b. Replace the weakest component with a new one centred on the
      //     value.
      int weakest = 0;
      for (int i = 1; i < k; ++i)
        if (mix[i].weight < mix[weakest].weight) weakest = i;
      mix[weakest] = Gaussian{kn.initial_weight, static_cast<float>(value),
                              kn.initial_variance};
    }

    // 3. Renormalize weights and keep components sorted by descending
    //    weight, with the insertion sort std::sort runs on ranges of <= 16
    //    (libstdc++'s __insertion_sort, step for step): stable, so equal
    //    weights keep their order, and it compares against the front first,
    //    which decides where a NaN weight lands.
    float wsum = 0.0f;
    for (int i = 0; i < k; ++i) wsum += std::max(0.0f, mix[i].weight);
    if (wsum > 0.0f)
      for (int i = 0; i < k; ++i) mix[i].weight /= wsum;
    for (int i = 1; i < k; ++i) {
      const Gaussian g = mix[i];
      int j = i;
      if (g.weight > mix[0].weight)
        for (; j > 0; --j) mix[j] = mix[j - 1];
      else
        for (; g.weight > mix[j - 1].weight; --j) mix[j] = mix[j - 1];
      mix[j] = g;
    }

    // 4. Background = the top components accumulating `background_ratio`
    //    weight.  The pixel is foreground if it matches none of them.
    bool foreground = true;
    float acc = 0.0f;
    for (int i = 0; i < k; ++i) {
      if (mix[i].weight <= 0.0f) break;
      acc += mix[i].weight;
      const double d = value - mix[i].mean;
      if (d * d <= kn.match_threshold * mix[i].variance) {
        foreground = false;  // matches a background component
        break;
      }
      if (acc >= kn.background_ratio) break;
    }
    dst[px] = foreground ? 255 : 0;
  }
}

video::Mask GmmBackgroundSubtractor::apply(const video::Image& frame) {
  video::Mask fg;
  apply(frame, fg);
  return fg;
}

void GmmBackgroundSubtractor::apply(const video::Image& frame,
                                    video::Mask& fg) {
  if (frame.size() != size_)
    throw std::invalid_argument("GmmBackgroundSubtractor: frame size mismatch");

  fg.assign(size_.width, size_.height, 0);
  const std::uint8_t* src = frame.data();
  std::uint8_t* dst = fg.data();
  const int k = params_.num_gaussians;

  if (frames_seen_ == 0) {
    // Bootstrap: initialize the dominant component from the first frame and
    // report no foreground (the model has no history yet).
    const auto n = static_cast<std::size_t>(size_.area());
    for (std::size_t px = 0; px < n; ++px)
      mixtures_[px * static_cast<std::size_t>(k)] =
          Gaussian{1.0f, static_cast<float>(src[px]),
                   static_cast<float>(params_.initial_variance)};
  } else {
    const auto alpha = static_cast<float>(params_.learning_rate);
    const Kernel kernel{k,
                        alpha,
                        alpha,
                        params_.match_threshold,
                        static_cast<float>(params_.min_variance),
                        params_.background_ratio,
                        static_cast<float>(params_.initial_weight),
                        static_cast<float>(params_.initial_variance),
                        std::isfinite(alpha)};
    if (k == 3)
      update_frame<3>(kernel, src, dst);
    else
      update_frame<0>(kernel, src, dst);
  }
  ++frames_seen_;
}

}  // namespace tangram::vision
