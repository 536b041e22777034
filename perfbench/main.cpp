// perfbench: the repository's one benchmark. Drives paper-apps, blob-put and
// blob-stripe through the public APIs, checks every output, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run),
// ending with one JSON line:
//
//   perfbench --workload paper-apps|blob-put|blob-stripe|all --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// Exit code 0 when every check passed, 1 on a content mismatch or census
// drift, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::WorkloadResult;

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name|all> --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n",
               msg);
  return 2;
}

void print_report(const perfbench::Options& opts, const WorkloadResult& r) {
  std::printf("== %s  seed=%llu  seconds=%g  trace=%d\n", r.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0);
  for (const auto& n : r.notes) std::printf("   %s\n", n.c_str());
  const auto& specs = perfbench::layer_specs();
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("   %-38s %16.6f %-7s", m.name.c_str(), m.value, m.unit.c_str());
    if (opts.trace && i < specs.size()) {
      std::printf(" moves %s on %s", specs[i].moves.c_str(), specs[i].on.c_str());
    }
    if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
    std::printf("\n");
  }
  std::printf("   attempted=%llu failed=%llu correct=%s%s%s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.correct ? "true" : "false",
              r.error.empty() ? "" : "  error: ", r.error.c_str());
}

std::string json_metric(const std::string& name, const Metric& m) {
  const double v = std::isfinite(m.value) ? m.value : 0.0;
  char buf[512];
  std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name.c_str(),
                v, m.unit.c_str());
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      opts.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opts.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--out") {
      opts.out_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");

  std::vector<std::string> names;
  if (opts.workload == "all") {
    names = perfbench::workload_names();
  } else {
    bool known = false;
    for (const auto& n : perfbench::workload_names()) known = known || n == opts.workload;
    if (!known) return usage(("unknown workload " + opts.workload).c_str());
    names = {opts.workload};
  }

  bool correct = true;
  unsigned long long attempted = 0, failed = 0;
  std::string metrics;
  for (const auto& name : names) {
    perfbench::Options o = opts;
    o.workload = name;
    const WorkloadResult r = perfbench::run_workload(o);
    print_report(o, r);
    std::fflush(stdout);
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& m : r.metrics) {
      if (!metrics.empty()) metrics += ", ";
      metrics += json_metric(names.size() > 1 ? name + "." + m.name : m.name, m);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return correct ? 0 : 1;
}
