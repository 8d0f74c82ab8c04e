// HPSS stand-in: the archival tier behind the DPSS cache.
//
// Section 3.5: datasets "are often stored on archival systems such as HPSS
// [15], a high performance tertiary storage system.  Clearly, it is
// impractical to transfer data sets of this magnitude to a local disk for
// processing.  Also, archival systems such as the HPSS are not typically
// tuned for wide-area network access, and only provide full file, not
// block level, access to data. ... Therefore, we can migrate the files
// from HPSS to a nearby DPSS cache."
//
// HpssArchive models exactly those properties: whole-file access only
// (no seeks, no block reads), with a service-time model of tape mount +
// streaming.  migrate_to_dpss() is the staging step every campaign in the
// paper performed before Visapult ran.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "dpss/deployment.h"
#include "vol/dataset.h"

namespace visapult::dpss {

struct HpssModel {
  double mount_seconds = 20.0;            // tape mount + position
  double stream_bytes_per_sec = 15e6;     // single-mover streaming rate
};

class HpssArchive {
 public:
  explicit HpssArchive(HpssModel model = {}) : model_(model) {}

  // Archive a dataset as one file per time series (how the simulations
  // wrote them).  Generation happens lazily at read time so 41 GB series
  // are representable without materialising them.
  void store(const vol::DatasetDesc& desc);

  bool contains(const std::string& name) const;
  std::vector<std::string> file_names() const;

  // Whole-file read -- the ONLY read HPSS offers.  Returns the bytes and,
  // via `service_seconds`, the modeled retrieval time (mount + stream).
  core::Result<std::vector<std::uint8_t>> read_file(const std::string& name,
                                                    double* service_seconds = nullptr);

  // Modeled retrieval time without materialising the bytes (for the
  // paper-scale arithmetic: staging 41.4 GB from tape).
  core::Result<double> retrieval_seconds(const std::string& name) const;

  const HpssModel& model() const { return model_; }

 private:
  HpssModel model_;
  mutable std::mutex mu_;
  std::map<std::string, vol::DatasetDesc> files_;
};

struct MigrationReport {
  std::uint64_t bytes = 0;
  double hpss_service_seconds = 0.0;  // modeled archive retrieval time
};

// The staging step: pull the whole file from the archive and stripe it
// into the DPSS cache (block-level, WAN-tuned), registering it with the
// master.  After this, Visapult back ends do block reads against the
// cache -- never against HPSS.
core::Result<MigrationReport> migrate_to_dpss(HpssArchive& archive,
                                              const std::string& name,
                                              Deployment& cache,
                                              std::uint32_t block_bytes = kDefaultBlockBytes);

}  // namespace visapult::dpss
