// Tests for the workload models: each application reproduces its Table I
// volumes and the call-mix regime the paper reports.
#include <gtest/gtest.h>

#include <map>

#include "adapter/blobfs.hpp"
#include "apps/app_spec.hpp"
#include "apps/hpc_apps.hpp"
#include "apps/spark_apps.hpp"
#include "common/hash.hpp"
#include "hdfs/hdfs.hpp"
#include "pfs/pfs.hpp"
#include "trace/report.hpp"
#include "vfs/helpers.hpp"

namespace bsc::apps {
namespace {

constexpr double kTol = 0.03;  // integer-division slack on volume targets

void expect_near_volume(std::uint64_t actual, std::uint64_t target, const char* what) {
  EXPECT_GT(static_cast<double>(actual), static_cast<double>(target) * (1.0 - kTol)) << what;
  EXPECT_LT(static_cast<double>(actual), static_cast<double>(target) * (1.0 + kTol)) << what;
}

HpcRunResult run_on_pfs(HpcAppKind kind, bool with_prep = true) {
  sim::Cluster cluster;
  pfs::LustreLikeFs fs(cluster);
  HpcRunOptions opts;
  opts.ranks = 8;  // smaller rank count for unit-test speed; volumes are fixed
  opts.with_prep_script = with_prep;
  return run_hpc_app(kind, fs, cluster, opts);
}

TEST(HpcApps, BlastVolumesAndProfile) {
  const auto r = run_on_pfs(HpcAppKind::blast);
  ASSERT_TRUE(r.ok) << r.error;
  const auto spec = blast_spec();
  expect_near_volume(r.census.census.bytes_read, spec.read_total, "reads");
  expect_near_volume(r.census.census.bytes_written, spec.write_total, "writes");
  // Call mix: reads dominate overwhelmingly (Fig 1 BLAST bar).
  EXPECT_GT(r.census.census.category_pct(trace::Category::file_read), 90.0);
  EXPECT_EQ(r.census.census.category_count(trace::Category::directory), 0u);
  EXPECT_GT(r.sim_time, 0);
}

TEST(HpcApps, MomVolumes) {
  const auto r = run_on_pfs(HpcAppKind::mom);
  ASSERT_TRUE(r.ok) << r.error;
  const auto spec = mom_spec();
  expect_near_volume(r.census.census.bytes_read, spec.read_total, "reads");
  expect_near_volume(r.census.census.bytes_written, spec.write_total, "writes");
  EXPECT_EQ(r.census.census.category_count(trace::Category::directory), 0u);
  const double rw = static_cast<double>(r.census.census.bytes_read) /
                    static_cast<double>(r.census.census.bytes_written);
  EXPECT_NEAR(rw, 6.09, 0.5);  // Table I: 6.01
}

TEST(HpcApps, EcohamWithPrepShowsDirAndOtherCalls) {
  const auto r = run_on_pfs(HpcAppKind::ecoham, /*with_prep=*/true);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.census.name, "EH");
  // The run scripts produce directory listings and xattr reads (Fig 1 EH).
  EXPECT_GT(r.census.census.category_count(trace::Category::directory), 0u);
  EXPECT_GT(r.census.census.count(trace::OpKind::getxattr), 0u);
  // Still write-dominated overall.
  EXPECT_GT(r.census.census.category_pct(trace::Category::file_write), 80.0);
  const auto spec = ecoham_spec();
  expect_near_volume(r.census.census.bytes_written, spec.write_total, "writes");
}

TEST(HpcApps, EcohamMpiOnlyHasPureFileIo) {
  const auto r = run_on_pfs(HpcAppKind::ecoham, /*with_prep=*/false);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.census.name, "EH/MPI");
  // Prep offline: only reads and writes remain (plus open/close/sync).
  EXPECT_EQ(r.census.census.category_count(trace::Category::directory), 0u);
  EXPECT_EQ(r.census.census.count(trace::OpKind::getxattr), 0u);
  EXPECT_EQ(r.census.census.count(trace::OpKind::stat), 0u);
}

TEST(HpcApps, RayTracingBalanced) {
  const auto r = run_on_pfs(HpcAppKind::raytracing);
  ASSERT_TRUE(r.ok) << r.error;
  const auto spec = raytracing_spec();
  expect_near_volume(r.census.census.bytes_read, spec.read_total, "reads");
  expect_near_volume(r.census.census.bytes_written, spec.write_total, "writes");
  const double rw = static_cast<double>(r.census.census.bytes_read) /
                    static_cast<double>(r.census.census.bytes_written);
  EXPECT_NEAR(rw, 0.94, 0.1);  // Table I: 0.94 -> Balanced
  EXPECT_EQ(trace::classify_profile(rw), "Balanced");
}

TEST(HpcApps, RunsUnmodifiedOnBlobFs) {
  // The paper's §IV-C conclusion: HPC apps are suited to run unmodified
  // atop blob storage. Same workload, blob backend, same census shape.
  sim::Cluster cluster;
  blob::BlobStore store(cluster);
  adapter::BlobFs fs(store);
  HpcRunOptions opts;
  opts.ranks = 8;
  const auto r = run_hpc_app(HpcAppKind::blast, fs, cluster, opts);
  ASSERT_TRUE(r.ok) << r.error;
  expect_near_volume(r.census.census.bytes_read, blast_spec().read_total, "reads");
  EXPECT_GT(r.census.census.category_pct(trace::Category::file_read), 90.0);
}

TEST(SparkApps, SortSingleVolumes) {
  sim::Cluster cluster;
  hdfs::HdfsLikeFs fs(cluster);
  ThreadPool pool(8);
  const auto r = run_spark_single(SparkAppKind::sort, fs, cluster, pool);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.per_app.size(), 1u);
  const auto& c = r.per_app[0].census;
  const auto spec = sort_spec();
  // Data volumes dominate; jar upload + event log add a small overhead.
  EXPECT_GT(c.bytes_read, spec.input_total);
  EXPECT_LT(c.bytes_read, spec.input_total * 11 / 10);
  EXPECT_GT(c.bytes_written, spec.output_total);
  EXPECT_LT(c.bytes_written, spec.output_total * 11 / 10);
  // Fig 2: file reads and writes dominate; >98% of calls are file ops.
  const double file_ops = c.category_pct(trace::Category::file_read) +
                          c.category_pct(trace::Category::file_write);
  EXPECT_GT(file_ops, 90.0);
  EXPECT_LT(c.category_pct(trace::Category::directory), 2.0);
}

TEST(SparkApps, GrepIsReadIntensive) {
  sim::Cluster cluster;
  hdfs::HdfsLikeFs fs(cluster);
  ThreadPool pool(8);
  const auto r = run_spark_single(SparkAppKind::grep, fs, cluster, pool);
  ASSERT_TRUE(r.ok) << r.error;
  const auto& c = r.per_app[0].census;
  const double rw =
      static_cast<double>(c.bytes_read) / static_cast<double>(c.bytes_written);
  // Table I: 64.52 (jar/event-log writes pull it down slightly).
  EXPECT_GT(rw, 30.0);
  EXPECT_EQ(trace::classify_profile(rw), "Read-intensive");
}

TEST(SparkApps, SingleAppDirBreakdownConsistent) {
  sim::Cluster cluster;
  hdfs::HdfsLikeFs fs(cluster);
  ThreadPool pool(8);
  const auto r = run_spark_single(SparkAppKind::connected_components, fs, cluster, pool);
  ASSERT_TRUE(r.ok) << r.error;
  // One app: 3 session + 8 app = 11 mkdir/rmdir; one input listing; no
  // other listings.
  EXPECT_EQ(r.dir_ops.mkdir, 11u);
  EXPECT_EQ(r.dir_ops.rmdir, 11u);
  EXPECT_EQ(r.dir_ops.opendir_input, 1u);
  EXPECT_EQ(r.dir_ops.opendir_other, 0u);
}

TEST(SparkApps, IterativeAppReadsInputPerPass) {
  sim::Cluster cluster;
  hdfs::HdfsLikeFs fs(cluster);
  ThreadPool pool(8);
  const auto r = run_spark_single(SparkAppKind::decision_tree, fs, cluster, pool);
  ASSERT_TRUE(r.ok) << r.error;
  const auto spec = decision_tree_spec();
  // 10 passes over a 5.91 MB dataset: total reads ~59.1 MB.
  EXPECT_GT(r.per_app[0].census.bytes_read, spec.input_total);
  EXPECT_LT(r.per_app[0].census.bytes_read, spec.input_total * 11 / 10);
  // Still exactly ONE input listing (Spark caches the file list).
  EXPECT_EQ(r.dir_ops.opendir_input, 1u);
}

struct SuiteInputs {
  std::vector<trace::AppCensus> per_app;
  std::map<std::string, std::uint64_t> parts;  ///< /input/*/part-* -> content checksum
};

SuiteInputs run_suite_on_pool(std::size_t threads) {
  sim::Cluster cluster;
  hdfs::HdfsLikeFs fs(cluster);
  ThreadPool pool(threads);
  const auto r = run_spark_suite(fs, cluster, pool);
  EXPECT_TRUE(r.ok) << r.error;
  SuiteInputs out{r.per_app, {}};
  const vfs::IoCtx ctx{nullptr, 1000, 1000};
  auto dirs = fs.readdir(ctx, "/input");
  EXPECT_TRUE(dirs.ok());
  if (!dirs.ok()) return out;
  for (const auto& d : dirs.value()) {
    const std::string dir = "/input/" + d.name;
    auto files = fs.readdir(ctx, dir);
    EXPECT_TRUE(files.ok()) << dir;
    if (!files.ok()) continue;
    for (const auto& f : files.value()) {
      if (f.name.rfind("part-", 0) != 0) continue;
      const std::string path = dir + "/" + f.name;
      auto data = vfs::read_file(fs, ctx, path);
      EXPECT_TRUE(data.ok()) << path;
      if (data.ok()) out.parts[path] = content_checksum(as_view(data.value()));
    }
  }
  return out;
}

// Provisioning generates the dataset parts on the suite's pool; the bytes
// staged and the calls the apps then issue must not depend on its size.
TEST(SparkApps, ProvisioningIsIndependentOfPoolSize) {
  const SuiteInputs one = run_suite_on_pool(1);
  const SuiteInputs four = run_suite_on_pool(4);
  // sort, dt, cc: 4 parts each; the shared text corpus: 8.
  EXPECT_EQ(one.parts.size(), 20u);
  EXPECT_EQ(one.parts, four.parts);
  ASSERT_EQ(one.per_app.size(), four.per_app.size());
  for (std::size_t i = 0; i < one.per_app.size(); ++i) {
    const auto& a = one.per_app[i].census;
    const auto& b = four.per_app[i].census;
    EXPECT_EQ(a.op_counts, b.op_counts) << one.per_app[i].name;
    EXPECT_EQ(a.bytes_read, b.bytes_read) << one.per_app[i].name;
    EXPECT_EQ(a.bytes_written, b.bytes_written) << one.per_app[i].name;
  }
}

TEST(HpcAppNames, Stable) {
  EXPECT_EQ(hpc_app_name(HpcAppKind::blast, true), "BLAST");
  EXPECT_EQ(hpc_app_name(HpcAppKind::ecoham, true), "EH");
  EXPECT_EQ(hpc_app_name(HpcAppKind::ecoham, false), "EH/MPI");
  EXPECT_EQ(spark_app_name(SparkAppKind::tokenizer), "Tokenizer");
}

}  // namespace
}  // namespace bsc::apps
