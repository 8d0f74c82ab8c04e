#include "dpss/hpss.h"

#include <cstring>

namespace visapult::dpss {

void HpssArchive::store(const vol::DatasetDesc& desc) {
  std::lock_guard lk(mu_);
  files_[desc.name] = desc;
}

bool HpssArchive::contains(const std::string& name) const {
  std::lock_guard lk(mu_);
  return files_.count(name) > 0;
}

std::vector<std::string> HpssArchive::file_names() const {
  std::lock_guard lk(mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, desc] : files_) names.push_back(name);
  return names;
}

core::Result<std::vector<std::uint8_t>> HpssArchive::read_file(
    const std::string& name, double* service_seconds) {
  vol::DatasetDesc desc;
  {
    std::lock_guard lk(mu_);
    auto it = files_.find(name);
    if (it == files_.end()) {
      return core::not_found("not archived on HPSS: " + name);
    }
    desc = it->second;
  }
  std::vector<std::uint8_t> bytes(desc.total_bytes());
  std::size_t at = 0;
  for (int t = 0; t < desc.timesteps; ++t) {
    const vol::Volume v = desc.generate(t);
    std::memcpy(bytes.data() + at, v.data().data(), v.byte_size());
    at += v.byte_size();
  }
  if (service_seconds) {
    *service_seconds = model_.mount_seconds +
                       static_cast<double>(bytes.size()) /
                           model_.stream_bytes_per_sec;
  }
  return bytes;
}

core::Result<double> HpssArchive::retrieval_seconds(const std::string& name) const {
  std::lock_guard lk(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) {
    return core::not_found("not archived on HPSS: " + name);
  }
  return model_.mount_seconds +
         static_cast<double>(it->second.total_bytes()) /
             model_.stream_bytes_per_sec;
}

core::Result<MigrationReport> migrate_to_dpss(HpssArchive& archive,
                                              const std::string& name,
                                              Deployment& cache,
                                              std::uint32_t block_bytes) {
  // Whole-file retrieval from the archive (its only access mode)...
  double service = 0.0;
  auto bytes = archive.read_file(name, &service);
  if (!bytes.is_ok()) return bytes.status();

  // ...then block-striped ingest into the cache, straight from the
  // retrieved bytes: the cache never needs to know the data came from
  // tape, and Visapult back ends only ever do block reads against it.
  MigrationReport report;
  report.bytes = bytes.value().size();
  report.hpss_service_seconds = service;

  DatasetLayout layout;
  layout.total_bytes = bytes.value().size();
  layout.block_bytes = block_bytes;
  layout.stripe_blocks = 1;
  layout.server_count = static_cast<std::uint32_t>(cache.server_count());

  std::vector<ServerAddress> addrs;
  for (int i = 0; i < cache.server_count(); ++i) {
    addrs.push_back(cache.server_address(i));
  }
  const auto& data = bytes.value();
  for (std::uint64_t block = 0; block < layout.block_count(); ++block) {
    const std::uint64_t off = block * block_bytes;
    const std::uint64_t len = layout.block_length(block);
    cache.server(static_cast<int>(layout.server_for_block(block)))
        .put_block(name, block,
                   std::vector<std::uint8_t>(
                       data.begin() + static_cast<std::ptrdiff_t>(off),
                       data.begin() + static_cast<std::ptrdiff_t>(off + len)));
  }
  if (auto st = cache.master().register_dataset(name, layout, std::move(addrs));
      !st.is_ok()) {
    return st;
  }
  return report;
}

}  // namespace visapult::dpss
