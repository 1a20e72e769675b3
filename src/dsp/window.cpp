#include "dsp/window.h"

#include <cmath>
#include <numbers>

namespace phonolid::dsp {

std::vector<float> make_window(WindowType type, std::size_t length) {
  std::vector<float> w(length, 1.0f);
  if (length <= 1) return w;
  const double denom = static_cast<double>(length - 1);
  switch (type) {
    case WindowType::kRectangular:
      break;
    case WindowType::kHamming:
      for (std::size_t i = 0; i < length; ++i) {
        w[i] = static_cast<float>(
            0.54 - 0.46 * std::cos(2.0 * std::numbers::pi * static_cast<double>(i) / denom));
      }
      break;
    case WindowType::kHann:
      for (std::size_t i = 0; i < length; ++i) {
        w[i] = static_cast<float>(
            0.5 - 0.5 * std::cos(2.0 * std::numbers::pi * static_cast<double>(i) / denom));
      }
      break;
  }
  return w;
}

}  // namespace phonolid::dsp
