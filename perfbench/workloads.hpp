// The benchmark's three workloads and the metrics they report.
//
//   paper-apps   BLAST, MOM, EH/MPI and RT at 4 MPI ranks, then the five-app
//                Spark suite on a 4-thread pool, through BlobFs.
//   blob-put     4 clients overwrite and read back their own 64 KiB blobs.
//   blob-stripe  4 clients read and overwrite 32 shared 8 MiB striped blobs.
//
// Every workload runs on the default StoreConfig (R=3) over the parapluie
// cluster (8 storage nodes, 48 MiB page-cache model each), persistence off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< spans and the per-layer table (traced runs)
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< printed next to the value (sample count, "n/a", ...)
};

/// A per-layer metric and the end-to-end metric it should move, on which
/// workload — written down before anything is measured.
struct LayerSpec {
  std::string name;
  std::string unit;
  std::string better;
  std::string moves;  ///< end-to-end metric(s) it should move
  std::string on;     ///< workload where it should move them
};

[[nodiscard]] const std::vector<LayerSpec>& layer_specs();
[[nodiscard]] const std::vector<std::string>& workload_names();

struct WorkloadResult {
  std::string workload;
  bool correct = true;
  std::string error;               ///< first correctness failure
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;     ///< end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> notes;  ///< extra report lines
};

/// Run one workload for opts.seconds of measurement, after its set-up.
[[nodiscard]] WorkloadResult run_workload(const Options& opts);

}  // namespace perfbench
