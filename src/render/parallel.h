// Parallel volume rendering drivers: object order vs image order.
//
// Section 3.2's taxonomy, implemented as runnable engines over a thread
// pool so the decomposition benches can measure the trade-offs the paper
// describes:
//   * object order -- data distributed across processors (slab/shaft/
//     block); each renders its subset; recombination composites the
//     intermediate images in depth order (back-to-front).  Scales with data
//     size; needs ordered compositing.
//   * image order -- screen space split across processors; no compositing,
//     but every processor may touch any part of the volume (data
//     duplication) and per-processor work varies with the view.
//
// Both produce the same image (to sampling precision), which the tests
// verify -- that equivalence is exactly why Visapult can choose object
// order for its pipeline.
#pragma once

#include <vector>

#include "core/image.h"
#include "core/thread_pool.h"
#include "render/raycast.h"
#include "vol/decompose.h"

namespace visapult::render {

struct ObjectOrderReport {
  core::ImageRGBA image;
  std::vector<double> per_processor_seconds;  // render time per brick
  double composite_seconds = 0.0;
};

// Render `volume` along `view_axis` using an object-order decomposition
// into `bricks` (must tile the volume along the view axis for correct
// compositing order -- slab_decompose output qualifies).  One pool task per
// brick; compositing runs back-to-front on the caller.
core::Result<ObjectOrderReport> render_object_order(
    const vol::Volume& volume, const std::vector<vol::Brick>& bricks,
    vol::Axis view_axis, const TransferFunction& tf, core::ThreadPool& pool,
    const RenderOptions& options = {});

struct ImageOrderReport {
  core::ImageRGBA image;
  std::vector<double> per_processor_seconds;  // render time per tile
  // Fraction of volume cells each tile's rays could touch: the data-
  // duplication cost of image-order decomposition.
  double mean_data_fraction = 0.0;
};

// Render with an image-order decomposition into `tile_count` horizontal
// bands of the image, each compositing its rows of every slice of the full
// volume.
core::Result<ImageOrderReport> render_image_order(
    const vol::Volume& volume, int tile_count, vol::Axis view_axis,
    const TransferFunction& tf, core::ThreadPool& pool,
    const RenderOptions& options = {});

// ---- cost model -------------------------------------------------------------
//
// The virtual-time experiment harness needs render times for paper-scale
// volumes without rendering 160 MB grids for every frame.  CostModel
// calibrates seconds-per-(cell-sample) by timing a small real render, then
// predicts R for any volume/processor count, matching the linear speedup
// the paper observes ("we expect linear speedup in the rendering process").

struct CostModel {
  double seconds_per_cell = 0.0;

  // Predicted per-PE render time for one timestep of `dims` split over
  // `processors` slabs.
  double render_seconds(vol::Dims dims, int processors) const {
    return seconds_per_cell * static_cast<double>(dims.cell_count()) /
           std::max(1, processors);
  }
};

// Calibrate by rendering a small combustion volume.
CostModel calibrate_cost_model();

// The paper's measured figure for CPlant: ~8.5 s for 160 MB on 4 procs
// (Fig. 10), i.e. ~2e-7 s/cell.  Used when benches want paper-era CPU
// speeds rather than this machine's.
CostModel paper_cplant_cost_model();
// The E4500 "diesel" SMP of Figs. 12/13: R ~= 12 s at 8 procs.
CostModel paper_e4500_cost_model();
// The ANL Onyx2 of Figs. 16/17: R ~= 5 s at 8 procs (render is minor there).
CostModel paper_onyx2_cost_model();

}  // namespace visapult::render
