#include "workloads/tinyjpeg.hpp"

#include <gtest/gtest.h>

namespace {

using workloads::CostModel;
using workloads::crop_and_subsample;
using workloads::decode;
using workloads::encode;
using workloads::generate_image;
using workloads::Image;
using workloads::mean_abs_error;

TEST(TinyJpeg, GenerateIsDeterministic) {
  const Image a = generate_image(5, 64, 48);
  const Image b = generate_image(5, 64, 48);
  const Image c = generate_image(6, 64, 48);
  EXPECT_EQ(a.pixels, b.pixels);
  EXPECT_NE(a.pixels, c.pixels);
  EXPECT_EQ(a.width, 64);
  EXPECT_EQ(a.height, 48);
}

class CodecRoundTrip : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    SizesAndQualities, CodecRoundTrip,
    ::testing::Values(std::tuple{8, 8, 90}, std::tuple{16, 16, 75},
                      std::tuple{64, 64, 75}, std::tuple{64, 64, 30},
                      std::tuple{33, 17, 75},  // non-multiple-of-8 edges
                      std::tuple{128, 96, 50}, std::tuple{7, 5, 90}));

TEST_P(CodecRoundTrip, LossStaysBounded) {
  const auto [w, h, q] = GetParam();
  const Image img = generate_image(42, w, h);
  const auto bytes = encode(img, q);
  const Image back = decode(bytes);
  ASSERT_EQ(back.width, img.width);
  ASSERT_EQ(back.height, img.height);
  // Lossy but close: bound loosens as quality drops.
  const double bound = q >= 75 ? 4.0 : q >= 50 ? 7.0 : 12.0;
  EXPECT_LT(mean_abs_error(img, back), bound) << "q=" << q;
}

TEST(TinyJpeg, CompressionActuallyCompresses) {
  const Image img = generate_image(1, 128, 128);
  const auto bytes = encode(img, 75);
  EXPECT_LT(bytes.size(), img.pixel_count() / 2) << "smooth image should shrink well";
}

TEST(TinyJpeg, HigherQualityIsLarger) {
  const Image img = generate_image(2, 64, 64);
  EXPECT_LT(encode(img, 20).size(), encode(img, 95).size());
}

TEST(TinyJpeg, DecodeRejectsGarbage) {
  EXPECT_THROW(decode({}), util::IoError);
  EXPECT_THROW(decode({1, 2, 3, 4, 5}), util::IoError);
  auto bytes = encode(generate_image(3, 16, 16), 75);
  bytes[0] = 'X';
  EXPECT_THROW(decode(bytes), util::IoError);
}

TEST(TinyJpeg, DecodeRejectsTruncation) {
  const auto bytes = encode(generate_image(4, 32, 32), 75);
  for (std::size_t cut : {std::size_t{4}, std::size_t{8}, std::size_t{12},
                          bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode(prefix), util::IoError) << "cut=" << cut;
  }
}

TEST(TinyJpeg, CropAndSubsampleShape) {
  // Paper: centre 32% of the pixel array, then every third pixel.
  const Image img = generate_image(9, 90, 90);
  const Image thumb = crop_and_subsample(img);
  const double area_ratio = static_cast<double>(thumb.height) * (thumb.width * 3) /
                            static_cast<double>(img.pixel_count());
  EXPECT_NEAR(area_ratio, 0.32, 0.05);  // crop keeps ~32% of the area
  EXPECT_LT(static_cast<double>(thumb.pixel_count()),
            static_cast<double>(img.pixel_count()) * 0.32 * 0.40);
  EXPECT_GT(thumb.pixel_count(), 0u);
}

TEST(TinyJpeg, CropPreservesCenterContent) {
  Image img;
  img.width = img.height = 30;
  img.pixels.assign(img.pixel_count(), 0);
  // Bright block dead centre.
  for (int y = 13; y < 17; ++y)
    for (int x = 13; x < 17; ++x)
      img.pixels[static_cast<std::size_t>(y) * 30 + static_cast<std::size_t>(x)] = 255;
  const Image thumb = crop_and_subsample(img);
  int bright = 0;
  for (auto p : thumb.pixels) bright += p == 255;
  EXPECT_GT(bright, 0);
}

TEST(TinyJpeg, CostModelScalesLinearly) {
  const CostModel costs;
  EXPECT_DOUBLE_EQ(costs.decode_cost(2000), 2 * costs.decode_cost(1000));
  EXPECT_GT(costs.decode_cost(4096), costs.encode_cost(4096));
  EXPECT_GT(costs.io_cost(1000), 0.0);
}

TEST(TinyJpeg, GenerateRejectsBadDimensions) {
  EXPECT_THROW(generate_image(1, 0, 5), util::UsageError);
  EXPECT_THROW(generate_image(1, 5, -1), util::UsageError);
}

}  // namespace
