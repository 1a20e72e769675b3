#include "dsp/window.h"

#include <gtest/gtest.h>

#include <cmath>

namespace phonolid::dsp {
namespace {

TEST(Window, HammingEndpointsAndPeak) {
  const auto w = make_window(WindowType::kHamming, 101);
  EXPECT_NEAR(w.front(), 0.08f, 1e-5);
  EXPECT_NEAR(w.back(), 0.08f, 1e-5);
  EXPECT_NEAR(w[50], 1.0f, 1e-5);
}

TEST(Window, HannEndpointsAreZero) {
  const auto w = make_window(WindowType::kHann, 65);
  EXPECT_NEAR(w.front(), 0.0f, 1e-6);
  EXPECT_NEAR(w.back(), 0.0f, 1e-6);
  EXPECT_NEAR(w[32], 1.0f, 1e-6);
}

TEST(Window, RectangularIsAllOnes) {
  const auto w = make_window(WindowType::kRectangular, 10);
  for (float v : w) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(Window, SymmetryProperty) {
  for (auto type : {WindowType::kHamming, WindowType::kHann}) {
    const auto w = make_window(type, 64);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-6);
    }
  }
}

TEST(Window, DegenerateLengths) {
  EXPECT_EQ(make_window(WindowType::kHamming, 0).size(), 0u);
  const auto one = make_window(WindowType::kHann, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_FLOAT_EQ(one[0], 1.0f);
}

}  // namespace
}  // namespace phonolid::dsp
