// Analysis windows.
#pragma once

#include <cstddef>
#include <vector>

namespace phonolid::dsp {

enum class WindowType { kRectangular, kHamming, kHann };

/// Precomputed analysis window coefficients.
std::vector<float> make_window(WindowType type, std::size_t length);

}  // namespace phonolid::dsp
