// Transfer functions: scalar field value -> emission colour + opacity.
//
// Classic volume rendering after Drebin/Carpenter/Hanrahan [9]: a lookup
// from normalised data value to RGBA.  Opacity is per *unit length* and is
// converted to per-sample opacity by the renderer's step correction, so
// images converge as the sampling rate changes.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "core/image.h"

namespace visapult::render {

struct ControlPoint {
  float value = 0.0f;  // normalised scalar in [0,1]
  float r = 0, g = 0, b = 0;
  float opacity = 0.0f;  // extinction per unit length, >= 0
};

class TransferFunction {
 public:
  static constexpr int kTableSize = 1024;

  // Control points are sorted by value internally; lookups interpolate
  // piecewise-linearly and a kTableSize-entry table caches the result.
  explicit TransferFunction(std::vector<ControlPoint> points);

  // The table entry for a normalised value: the nearest entry after
  // clamping to [0,1].  NaN maps to entry 0, so a bad cell classifies like a
  // value below the data window instead of indexing out of the table.
  static int table_index(float value) {
    if (!(value > 0.0f)) return 0;  // also NaN
    if (value >= 1.0f) return kTableSize - 1;
    return static_cast<int>(value * (kTableSize - 1) + 0.5f);
  }

  // Entry `index` of the table, 0 <= index < kTableSize.
  const ControlPoint& entry(int index) const {
    return table_[static_cast<std::size_t>(index)];
  }

  // Classify a normalised value: straight (non-premultiplied) colour plus
  // extinction coefficient.
  ControlPoint classify(float value) const { return entry(table_index(value)); }

  // Presets used by the examples and benches.
  static TransferFunction fire();     // combustion: black->red->orange->white
  static TransferFunction density();  // cosmology: transparent blue->white
  static TransferFunction linear_grey();

 private:
  std::array<ControlPoint, kTableSize> table_;
};

}  // namespace visapult::render
