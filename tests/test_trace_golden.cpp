// Byte-identity goldens for scene-trace synthesis.
//
// build_trace() runs the pixel pipeline (rasterizer, GMM or optical-flow
// differencing, dilation, connected components, box merge, partitioning,
// codec accounting).  Every FrameRecord field is serialised with %.17g and
// hashed with FNV-1a, so any change to any mask pixel that moves a box, or to
// any float-order detail of the kernels, changes the hash.  The constants
// were captured before the GMM/blob fast paths existed: those kernels may be
// rewritten freely as long as these hashes (and the differential reference
// tests in test_vision_reference.cpp) still hold.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "experiments/trace.h"
#include "video/scene_catalog.h"

namespace tangram::experiments {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void put(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g,", v);
  out += buf;
}

void put(std::string& out, const common::Rect& r) {
  put(out, r.x);
  put(out, r.y);
  put(out, r.width);
  put(out, r.height);
}

std::string serialise(const SceneTrace& trace) {
  std::string out;
  for (const FrameRecord& f : trace.frames) {
    put(out, f.frame_index);
    put(out, f.capture_time);
    out += "o:";
    for (const auto& o : f.objects) {
      put(out, o.id);
      put(out, o.box);
    }
    out += "r:";
    for (const auto& r : f.rois) put(out, r);
    out += "p:";
    for (const auto& p : f.patches) put(out, p);
    out += "b:";
    for (const auto b : f.patch_bytes) put(out, static_cast<double>(b));
    out += "e:";
    for (const auto b : f.elf_patch_bytes) put(out, static_cast<double>(b));
    out += "f:";
    put(out, static_cast<double>(f.full_frame_bytes));
    put(out, static_cast<double>(f.masked_frame_bytes));
    put(out, f.roi_area_fraction);
    put(out, f.truth_area_fraction);
    put(out, f.patch_area_fraction);
    out += '\n';
  }
  return out;
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TraceConfig small_config(const std::string& extractor) {
  TraceConfig c;
  c.raster.analysis = {240, 135};
  c.extractor = extractor;
  return c;
}

// A hash over an empty extraction would gate nothing: each golden trace must
// carry RoIs on most of its evaluation frames.
std::size_t frames_with_rois(const SceneTrace& trace) {
  std::size_t n = 0;
  for (const auto& f : trace.frames) n += f.rois.empty() ? 0 : 1;
  return n;
}

// Captured on the tree before the GMM/blob fast paths (per-pixel std::sort,
// per-pixel dilation, allocating connected components).
constexpr std::uint64_t kGoldenPanda5 = 0x0ad59c2179777834ull;
constexpr std::uint64_t kGoldenTest47Gmm = 0x7103b7c3f0c08f73ull;
constexpr std::uint64_t kGoldenTest47Flow = 0x40c5e419f6f9122bull;

TEST(TraceGolden, Panda4kScene5DefaultConfig) {
  const auto trace = build_trace(video::panda4k_scene(5));
  ASSERT_EQ(trace.frames.size(),
            static_cast<std::size_t>(trace.spec.total_frames));
  EXPECT_GT(frames_with_rois(trace), trace.eval_frame_count() / 2);
  const std::uint64_t h = fnv1a(serialise(trace));
  EXPECT_EQ(h, kGoldenPanda5) << hex(h);
}

TEST(TraceGolden, TestScene47Gmm) {
  const auto trace = build_trace(video::test_scene(47), small_config("GMM"));
  EXPECT_GT(frames_with_rois(trace), trace.eval_frame_count() / 2);
  const std::uint64_t h = fnv1a(serialise(trace));
  EXPECT_EQ(h, kGoldenTest47Gmm) << hex(h);
}

TEST(TraceGolden, TestScene47OpticalFlow) {
  const auto trace =
      build_trace(video::test_scene(47), small_config("OpticalFlow"));
  EXPECT_GT(frames_with_rois(trace), trace.eval_frame_count() / 2);
  const std::uint64_t h = fnv1a(serialise(trace));
  EXPECT_EQ(h, kGoldenTest47Flow) << hex(h);
}

}  // namespace
}  // namespace tangram::experiments
