// Whole-application sessions: DPSS cache + back end + viewer in one process.
//
// The paper's deployments place these components at different sites; here
// they are wired in-process (the back end and viewer over in-memory pipes,
// the DPSS over a PipeDeployment's socketpair doors; used by tests and the
// quickstart) while preserving the real concurrency structure: mpp ranks
// for the back-end PEs, a reader pthread per PE in overlapped mode, one
// viewer I/O thread per PE, a decoupled viewer render thread, and parallel
// DPSS block fetches underneath every load.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "core/status.h"
#include "dpss/deployment.h"
#include "netlog/logger.h"
#include "render/transfer.h"
#include "viewer/viewer.h"
#include "vol/dataset.h"

namespace visapult::app {

struct SessionOptions {
  vol::DatasetDesc dataset = vol::small_combustion_dataset();
  int backend_pes = 4;
  int dpss_servers = 4;
  bool overlapped = true;       // overlapped loading + rendering
  bool use_dpss = true;         // false: back end generates data directly
  bool axis_feedback = true;    // viewer-driven axis switching
  bool depth_mesh = false;      // IBRAVR quad-mesh extension
  bool send_amr_grid = true;
  int max_timesteps = -1;
  float viewer_angle = 0.0f;    // initial interactive rotation (radians)
  // Lanes per back-end->viewer connection.  > 1 uses the striped-socket
  // protocol of section 3.4 ("multiple simultaneous network connections
  // ... implemented with a custom TCP-based protocol over striped
  // sockets"); 1 uses a single stream.
  int stripe_lanes = 1;
  render::RenderOptions render;
  // Called on the viewer render thread per rendered frame.
  std::function<void(std::int64_t, const core::ImageRGBA&)> on_frame;
};

struct SessionResult {
  viewer::ViewerReport viewer;
  std::vector<backend::PeReport> pes;
  std::vector<netlog::Event> events;  // the NetLogger event log of the run

  double total_load_seconds() const;
  double total_render_seconds() const;
};

// Run a complete session to end-of-data.  Blocks.
core::Result<SessionResult> run_session(const SessionOptions& options);

}  // namespace visapult::app
