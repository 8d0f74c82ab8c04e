// Synthetic scientific datasets.
//
// Substitutes for the paper's proprietary inputs: the reactive-chemistry
// combustion simulation (Beckner & Bell, NERSC) and the hydrodynamic
// cosmology simulation (Borrill, NERSC).  The generators produce
// time-varying float32 grids with the same statistical character the
// visualization exercises -- smooth advected fronts for combustion, clumpy
// multi-scale density for cosmology -- at any grid size, so experiments can
// run at the paper's 640x256x256x265-step scale (via the simulator) or
// scaled down for real-execution tests.
#pragma once

#include <cstdint>
#include <vector>

#include "vol/volume.h"

namespace visapult::vol {

// Both generators return a pure function of (dims, t, seed).  Volumes of
// 64^3 cells and more fill their z-planes on one worker thread per
// hardware thread; the bytes do not depend on the worker count.  One
// 128^3 step costs about 30 ms (combustion) or 42 ms (cosmology) of CPU
// on a 2.1 GHz Sapphire Rapids Xeon core.

// Combustion: advecting flame front.  A set of seeded Gaussian "flame
// kernels" drift along +X with sinusoidal transverse wander and slowly
// modulated intensity; a background fuel gradient fills the domain.  `t` is
// the timestep index; the same (dims, seed) gives a deterministic series.
Volume generate_combustion(Dims dims, int t, std::uint64_t seed = 42);

// Cosmology: multi-scale clumpy density built from three octaves of
// value-noise plus power-law point masses, slowly rotating with t.
Volume generate_cosmology(Dims dims, int t, std::uint64_t seed = 7);

// ---- AMR hierarchy ----------------------------------------------------------
//
// Figure 3 shows "vector geometry (line segments) representing the adaptive
// grid created and used by the combustion simulation".  AmrBox is one
// refined patch; generate_amr_hierarchy refines where the field magnitude
// is large, level by level, and amr_wireframe turns the boxes into the line
// segments the viewer draws.

struct AmrBox {
  int level = 0;        // 0 = coarsest
  // Box bounds in *level-0 cell* coordinates (refinement keeps a common frame).
  float x0 = 0, y0 = 0, z0 = 0;
  float x1 = 0, y1 = 0, z1 = 0;
};

struct AmrHierarchy {
  std::vector<AmrBox> boxes;
  int levels = 0;
};

// Build a hierarchy over `v`: level-0 covers everything; each finer level
// contains boxes (of shrinking size) around cells whose value exceeds a
// rising threshold fraction of the max.
AmrHierarchy generate_amr_hierarchy(const Volume& v, int levels = 3,
                                    int boxes_per_level = 8,
                                    std::uint64_t seed = 11);

// One line segment, in the same level-0 cell coordinates.
struct LineSegment {
  float ax = 0, ay = 0, az = 0;
  float bx = 0, by = 0, bz = 0;
  int level = 0;
};

// 12 wireframe edges per box.
std::vector<LineSegment> amr_wireframe(const AmrHierarchy& h);

// Serialized size of the wireframe ("geometric data is typically tens of
// kilobytes for the AMR grid data per timestep").
std::size_t wireframe_byte_size(const std::vector<LineSegment>& segments);

}  // namespace visapult::vol
