#include "render/transfer.h"

#include <algorithm>
#include <cmath>

namespace visapult::render {

TransferFunction::TransferFunction(std::vector<ControlPoint> points) {
  if (points.empty()) {
    points.push_back({0.0f, 0, 0, 0, 0});
    points.push_back({1.0f, 1, 1, 1, 1});
  }
  std::sort(points.begin(), points.end(),
            [](const ControlPoint& a, const ControlPoint& b) {
              return a.value < b.value;
            });
  for (int i = 0; i < kTableSize; ++i) {
    const float v = static_cast<float>(i) / (kTableSize - 1);
    // Find the bracketing control points.
    const ControlPoint* lo = &points.front();
    const ControlPoint* hi = &points.back();
    for (std::size_t p = 0; p + 1 < points.size(); ++p) {
      if (v >= points[p].value && v <= points[p + 1].value) {
        lo = &points[p];
        hi = &points[p + 1];
        break;
      }
    }
    ControlPoint out;
    out.value = v;
    const float span = hi->value - lo->value;
    const float t = span > 0 ? std::clamp((v - lo->value) / span, 0.0f, 1.0f)
                             : 0.0f;
    out.r = lo->r + (hi->r - lo->r) * t;
    out.g = lo->g + (hi->g - lo->g) * t;
    out.b = lo->b + (hi->b - lo->b) * t;
    out.opacity = lo->opacity + (hi->opacity - lo->opacity) * t;
    table_[static_cast<std::size_t>(i)] = out;
  }
}

TransferFunction TransferFunction::fire() {
  return TransferFunction({
      {0.00f, 0.0f, 0.0f, 0.0f, 0.000f},
      {0.15f, 0.1f, 0.0f, 0.0f, 0.002f},
      {0.35f, 0.8f, 0.1f, 0.0f, 0.030f},
      {0.60f, 1.0f, 0.5f, 0.0f, 0.080f},
      {0.85f, 1.0f, 0.9f, 0.4f, 0.150f},
      {1.00f, 1.0f, 1.0f, 1.0f, 0.250f},
  });
}

TransferFunction TransferFunction::density() {
  return TransferFunction({
      {0.00f, 0.0f, 0.0f, 0.0f, 0.000f},
      {0.20f, 0.0f, 0.1f, 0.4f, 0.004f},
      {0.50f, 0.2f, 0.4f, 0.9f, 0.030f},
      {0.80f, 0.7f, 0.8f, 1.0f, 0.100f},
      {1.00f, 1.0f, 1.0f, 1.0f, 0.200f},
  });
}

TransferFunction TransferFunction::linear_grey() {
  return TransferFunction({
      {0.0f, 0.0f, 0.0f, 0.0f, 0.0f},
      {1.0f, 1.0f, 1.0f, 1.0f, 0.1f},
  });
}

}  // namespace visapult::render
