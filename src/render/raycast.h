// Software orthographic volume rendering.
//
// Two renderers:
//
//  * render_brick_along_axis -- the back end's workhorse.  Each PE volume
//    renders its slab along a principal axis into an RGBA texture whose
//    pixel grid is the full volume's transverse extent, so the per-slab
//    textures from all PEs align exactly when the viewer composites them
//    (the IBRAVR source images of section 3.3).  Because the view is axis
//    aligned it composites slice by slice (the slice-order fast path of
//    Lacroute & Levoy's shear-warp): each sample plane is the lerp of two
//    neighbouring slices, resampled bilinearly in-plane when
//    resolution_scale != 1, classified through a transfer-function table
//    whose opacities are step-corrected once per call, and composited into
//    the image in place, skipping pixels that are already opaque.
//
//  * render_volume_rotated -- a general orthographic ray caster with a
//    rotation about the vertical axis, and the only renderer that marches
//    rays.  This is the "costly volume rendering on each frame" IBRAVR
//    avoids; the reproduction uses it as ground truth to *measure* the
//    IBRAVR off-axis artifacts of Fig. 6.
//
// Both composite front-to-back with opacity corrected for step size, and
// produce premultiplied-alpha images (see core/image.h).
#pragma once

#include <cmath>

#include "core/image.h"
#include "render/transfer.h"
#include "vol/decompose.h"
#include "vol/volume.h"

namespace visapult::render {

struct RenderOptions {
  // Sample spacing along the view direction, in cells: the distance
  // between composited slice planes on an axis-aligned view, the ray-march
  // step in render_volume_rotated.
  float step = 1.0f;
  float value_lo = 0.0f;    // data window mapped to [0,1] before the TF
  float value_hi = 1.0f;
  // Pixels per cell in the output image (1 = one pixel per cell).
  float resolution_scale = 1.0f;
};

// The two image axes for viewing along `axis`, chosen with a consistent
// handedness so textures from different slabs/axes line up.
void image_axes_for(vol::Axis view_axis, vol::Axis& img_u, vol::Axis& img_v);

// Render `slab` (a brick of `volume`, which must contain it) along
// `view_axis`, front-to-back with the *near* side being low coordinates.
// The output image spans the full transverse extent of `volume`.
core::Result<core::ImageRGBA> render_brick_along_axis(
    const vol::Volume& volume, const vol::Brick& slab, vol::Axis view_axis,
    const TransferFunction& tf, const RenderOptions& options = {});

// Ground-truth renderer: orthographic view of the whole volume, rotated by
// `angle_rad` about the image-vertical axis relative to viewing along
// `base_axis`.  angle 0 reproduces render_brick_along_axis of the full
// volume (up to sampling).
core::Result<core::ImageRGBA> render_volume_rotated(
    const vol::Volume& volume, vol::Axis base_axis, float angle_rad,
    const TransferFunction& tf, const RenderOptions& options = {});

// Advanced entry point: render only image rows [row_begin, row_end) into
// `out`, which must already have the full image size.  This is what the
// image-order parallel driver uses to give each processor a screen-space
// band.  render_brick_along_axis is the whole-image convenience wrapper.
// Rows in the range are overwritten; the others are left alone.
core::Status render_brick_rows(const vol::Volume& volume,
                               const vol::Brick& slab, vol::Axis view_axis,
                               const TransferFunction& tf,
                               const RenderOptions& options, int row_begin,
                               int row_end, core::ImageRGBA& out);

// Per-sample opacity from extinction for a given step length.
inline float opacity_for_step(float extinction, float step) {
  // Beer-Lambert: alpha = 1 - exp(-extinction * step).
  return 1.0f - std::exp(-extinction * step);
}

}  // namespace visapult::render
