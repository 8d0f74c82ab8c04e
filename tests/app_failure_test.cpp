// Failure injection across the whole pipeline: the distributed system must
// fail loudly and cleanly (status codes, no hangs), never silently.
#include <gtest/gtest.h>

#include "app/session.h"
#include "dpss/deployment.h"

namespace visapult::app {
namespace {

TEST(AppFailure, ZeroServersFailsCleanly) {
  // A DPSS-backed session with no block servers cannot ingest; the session
  // must return that status, not hang.
  SessionOptions opts;
  opts.dataset = vol::small_combustion_dataset(2);
  opts.backend_pes = 2;
  opts.dpss_servers = 0;
  opts.use_dpss = true;
  auto result = run_session(opts);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidArgument);
}

TEST(AppFailure, UnknownDatasetSurfacesNotFound) {
  dpss::PipeDeployment deployment(2);
  // Nothing ingested.
  auto client = deployment.make_client();
  auto file = client.open("never-registered");
  ASSERT_FALSE(file.is_ok());
  EXPECT_EQ(file.status().code(), core::StatusCode::kNotFound);
}

TEST(AppFailure, AclRejectionSurfacesPermissionDenied) {
  const auto desc = vol::small_combustion_dataset(1);
  dpss::PipeDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc).is_ok());
  deployment.master().set_acl({"corridor"});
  auto client = deployment.make_client();
  auto file = client.open(desc.name, "intruder");
  ASSERT_FALSE(file.is_ok());
  EXPECT_EQ(file.status().code(), core::StatusCode::kPermissionDenied);
}

TEST(AppFailure, ServerShutdownMidStreamErrorsNotHangs) {
  const auto desc = vol::small_combustion_dataset(1);
  auto deployment = std::make_unique<dpss::PipeDeployment>(2);
  ASSERT_TRUE(deployment->ingest(desc).is_ok());
  auto client = deployment->make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());

  // First read succeeds.
  std::vector<std::uint8_t> buf(8192);
  ASSERT_TRUE(file.value()->pread(buf.data(), buf.size(), 0).is_ok());

  // Kill the block servers; the next read must fail with a transport
  // error, promptly.
  deployment->kill_server(0);
  deployment->kill_server(1);
  auto n = file.value()->pread(buf.data(), buf.size(), 0);
  EXPECT_FALSE(n.is_ok());
}

TEST(AppFailure, ZeroTimestepSessionCompletes) {
  SessionOptions opts;
  opts.dataset = vol::small_combustion_dataset(2);
  opts.backend_pes = 2;
  opts.dpss_servers = 2;
  opts.max_timesteps = 0;
  auto result = run_session(opts);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().viewer.frames_completed, 0);
  for (const auto& pe : result.value().pes) EXPECT_EQ(pe.frames, 0);
}

TEST(AppFailure, SingleTimestepManyPes) {
  // More PEs than strictly comfortable for a tiny dataset: slabs of one or
  // two layers each must still work end to end.
  SessionOptions opts;
  opts.dataset = vol::DatasetDesc{"tiny", {16, 16, 16}, 1,
                                  vol::Generator::kCombustion, 42};
  opts.backend_pes = 8;  // 2-layer slabs
  opts.dpss_servers = 2;
  auto result = run_session(opts);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().viewer.frames_completed, 1);
}

}  // namespace
}  // namespace visapult::app
