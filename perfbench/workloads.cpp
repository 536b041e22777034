#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "adapter/blobfs.hpp"
#include "apps/hpc_apps.hpp"
#include "apps/spark_apps.hpp"
#include "blob/client.hpp"
#include "blob/storage_engine.hpp"
#include "blob/store.hpp"
#include "check.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/cluster.hpp"
#include "stats.hpp"
#include "tracing.hpp"

namespace perfbench {

namespace adapter = bsc::adapter;
namespace apps = bsc::apps;
namespace blob = bsc::blob;
namespace obs = bsc::obs;
namespace sim = bsc::sim;
using bsc::Bytes;

namespace {

constexpr std::uint32_t kGenerators = 4;   ///< load-generator threads, closed loop
constexpr std::size_t kRounds = 10;          ///< blob workloads: set-up + measure rounds
constexpr std::size_t kWindowsPerRound = 2;  ///< blob workloads: windows per round
constexpr double kMB = 1e6;

const char* const kAppNames[] = {"BLAST", "MOM", "EH-MPI", "RT", "Sort",
                                 "Grep", "DT", "CC", "Tokenizer"};
/// Span names of the HPC app runs, in kAppNames order.
const char* const kHpcSpans[] = {"app.BLAST", "app.MOM", "app.EH-MPI", "app.RT"};

// ------------------------------------------------------------ helpers ----

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + salt;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Reset the kernel's peak-RSS mark to the current RSS (Linux clear_refs 5),
/// so each round or pass reports its own peak.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Bytes all engines hold (live + dead) per logical byte stored.
double space_amp(blob::BlobStore& store, double* engine_bytes = nullptr,
                 double* logical_bytes = nullptr) {
  double held = 0;
  for (std::size_t i = 0; i < store.server_count(); ++i) {
    auto& s = store.server(static_cast<std::uint32_t>(i));
    held += static_cast<double>(s.live_bytes() + s.dead_bytes());
  }
  blob::BlobClient census(store, nullptr);
  double logical = 0;
  if (auto listing = census.scan(); listing.ok()) {
    for (const auto& st : listing.value()) logical += static_cast<double>(st.size);
  }
  if (engine_bytes) *engine_bytes += held;
  if (logical_bytes) *logical_bytes += logical;
  return ratio(held, logical);
}

// ---------------------------------------------------- layer accounting ----

double counter(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// Sum of every `<prefix>*.calls` counter.
double sum_calls(const obs::MetricsSnapshot& s, std::string_view prefix) {
  double n = 0;
  for (const auto& [name, v] : s.counters) {
    if (name.starts_with(prefix) && name.ends_with(".calls")) n += static_cast<double>(v);
  }
  return n;
}

double hist_p50(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : static_cast<double>(it->second.percentile(50));
}

/// Storage-node counters, read after each phase.
struct NodeSample {
  std::vector<double> requests;
  std::vector<double> busy_us;
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_evictions = 0;
};

NodeSample sample_nodes(sim::Cluster& c) {
  NodeSample s;
  for (std::size_t i = 0; i < c.storage_count(); ++i) {
    auto& n = c.storage_node(i);
    s.requests.push_back(static_cast<double>(n.requests_served()));
    s.busy_us.push_back(static_cast<double>(n.busy_total()));
    s.cache_hits += static_cast<double>(n.cache().hits());
    s.cache_misses += static_cast<double>(n.cache().misses());
    s.cache_evictions += static_cast<double>(n.cache().evictions());
  }
  return s;
}

/// What the traced phases of a workload did, layer by layer, summed over
/// every phase (paper-apps runs each app on its own cluster).
struct LayerTally {
  obs::MetricsSnapshot registry;      ///< summed registry deltas
  std::vector<double> node_busy_us;   ///< per storage-node index
  double node_requests = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_evictions = 0;
  double sim_elapsed_us = 0;
  double engine_live = 0;
  double engine_dead = 0;

  void add_registry(const obs::MetricsSnapshot& delta) {
    for (const auto& [k, v] : delta.counters) registry.counters[k] += v;
    for (const auto& [k, h] : delta.histograms) registry.histograms[k].merge(h);
  }
  void add_nodes(const NodeSample& before, const NodeSample& after) {
    node_busy_us.resize(std::max(node_busy_us.size(), after.busy_us.size()), 0.0);
    for (std::size_t i = 0; i < after.busy_us.size(); ++i) {
      const double b0 = i < before.busy_us.size() ? before.busy_us[i] : 0.0;
      const double r0 = i < before.requests.size() ? before.requests[i] : 0.0;
      node_busy_us[i] += after.busy_us[i] - b0;
      node_requests += after.requests[i] - r0;
    }
    cache_hits += after.cache_hits - before.cache_hits;
    cache_misses += after.cache_misses - before.cache_misses;
    cache_evictions += after.cache_evictions - before.cache_evictions;
  }
  void add_engines(blob::BlobStore& store) {
    for (std::size_t i = 0; i < store.server_count(); ++i) {
      auto& s = store.server(static_cast<std::uint32_t>(i));
      engine_live += static_cast<double>(s.live_bytes());
      engine_dead += static_cast<double>(s.dead_bytes());
    }
  }
};

/// Single-threaded replay of the workload's engine-level op size on a
/// standalone StorageEngine: the floor under any wall latency the full
/// stack can reach. Returns {write ns/op, read ns/op}.
std::pair<double, double> replay_engine(std::uint64_t seed, std::size_t op_bytes,
                                        std::size_t keys, std::size_t ops) {
  PayloadPool pool(seed, op_bytes, 8);
  blob::StorageEngine engine;
  Bytes buf(op_bytes);
  std::vector<std::string> names;
  for (std::size_t k = 0; k < keys; ++k) {
    names.push_back(bsc::strfmt("replay/%zu", k));
    pool.fill(buf, static_cast<std::uint32_t>(k), 0);
    (void)engine.write(names.back(), 0, buf, true);
  }
  bsc::Rng rng(seed);
  std::vector<std::size_t> order(ops);
  for (auto& o : order) o = rng.next_below(keys);
  std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < ops; ++i) {
    (void)engine.write(names[order[i]], 0, buf, true);
  }
  const double write_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(ops);
  t0 = now_ns();
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    auto r = engine.read(names[order[i]], 0, op_bytes);
    if (r.ok()) sink += r.value().data.size();
  }
  const double read_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(ops);
  return {write_ns, sink > 0 ? read_ns : 0.0};
}

// --------------------------------------------------- result assembly ----

/// Rates and percentiles of one slice of a measurement. Only these are kept,
/// not the calls, so the benchmark's own memory does not grow with throughput.
struct WindowStats {
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  double tput = 0, good = 0, w50 = 0, w99 = 0, s50 = 0, s99 = 0;
};

WindowStats summarize(const std::vector<CallRec>& calls, double seconds) {
  WindowStats w;
  std::vector<double> wall_us, sim_us;
  double bytes = 0;
  for (const auto& c : calls) {
    wall_us.push_back(static_cast<double>(c.wall_ns) / 1e3);
    sim_us.push_back(static_cast<double>(c.sim_us));
    bytes += static_cast<double>(c.bytes);
    w.failed += c.failed ? 1 : 0;
  }
  w.calls = calls.size();
  w.tput = ratio(static_cast<double>(calls.size()), seconds);
  w.good = ratio(bytes / kMB, seconds);
  w.w50 = quantile(wall_us, 0.50);
  w.w99 = quantile(wall_us, 0.99);
  w.s50 = quantile(sim_us, 0.50);
  w.s99 = quantile(sim_us, 0.99);
  return w;
}

/// Summaries of a phase [t0, t1) cut into `n` equal windows by call
/// completion time.
std::vector<WindowStats> window_stats(const std::vector<CallRec>& calls, std::int64_t t0,
                                      std::int64_t t1, std::size_t n) {
  std::vector<std::vector<CallRec>> slices(n);
  const double len = static_cast<double>(t1 - t0) / static_cast<double>(n);
  for (const auto& c : calls) {
    const auto i = static_cast<std::size_t>(static_cast<double>(c.end_ns - t0) / len);
    slices[std::min(i, n - 1)].push_back(c);
  }
  std::vector<WindowStats> out;
  for (const auto& sl : slices) out.push_back(summarize(sl, len / 1e9));
  return out;
}

/// End-to-end metrics of one untraced measurement: each rate and percentile
/// is computed per window and reported as the median across windows, so a
/// stall on a shared host moves one window, not the result.
void add_end_to_end(WorkloadResult& out, const std::vector<WindowStats>& windows,
                    double setup_s, double rss_mib, double amp) {
  std::vector<double> tput, good, w50, w99, s50, s99;
  for (const auto& w : windows) {
    out.attempted += w.calls;
    out.failed += w.failed;
    tput.push_back(w.tput);
    good.push_back(w.good);
    w50.push_back(w.w50);
    w99.push_back(w.w99);
    s50.push_back(w.s50);
    s99.push_back(w.s99);
  }
  std::string line = "throughput per window (ops/s):";
  for (double x : tput) line += bsc::strfmt(" %.0f", x);
  out.notes.push_back(line);
  const std::string n = bsc::strfmt("median of %zu windows, n=%llu calls", windows.size(),
                                    static_cast<unsigned long long>(out.attempted));
  out.metrics = {
      {"throughput_ops_s", "ops/s", median(tput), n},
      {"goodput_mb_s", "MB/s", median(good), n},
      {"wall_p50_us", "us", median(w50), n},
      {"wall_p99_us", "us", median(w99), n},
      {"sim_p50_us", "sim_us", median(s50), n},
      {"sim_p99_us", "sim_us", median(s99), n},
      {"fail_ratio", "ratio", ratio(static_cast<double>(out.failed),
                                    static_cast<double>(out.attempted)), ""},
      {"setup_s", "s", setup_s, "median of per-round (per-pass) set-ups"},
      {"peak_rss_mb", "MiB", rss_mib, "median of per-round (per-pass) peaks"},
      {"space_amp", "ratio", amp, ""},
  };
}

/// Inputs to the per-layer metrics that come from outside the tally.
struct LayerInputs {
  const LayerTally* tally = nullptr;
  std::vector<CallRec>* calls = nullptr;  ///< traced-phase calls
  double generator_busy_ns = 0;           ///< traced phase wall x generator threads
  double untraced_tput = 0;
  double traced_tput = 0;
  std::pair<double, double> engine_ns{0, 0};
  std::map<std::string, std::vector<double>> app_times_s;  ///< paper-apps only
};

std::vector<Metric> layer_metrics(const std::string& workload, const LayerInputs& in) {
  const LayerTally& t = *in.tally;
  const obs::MetricsSnapshot& r = t.registry;
  std::vector<CallRec>& calls = *in.calls;
  const double ops = static_cast<double>(calls.size());
  const bool apps = workload == "paper-apps";
  double user_written = 0, call_wall = 0, meta_wall = 0;
  std::vector<double> readdir_sim;
  for (const auto& c : calls) {
    call_wall += static_cast<double>(c.wall_ns);
    if (!is_data_call(c.kind)) meta_wall += static_cast<double>(c.wall_ns);
    if (c.kind == Call::write || c.kind == Call::blob_write) {
      user_written += static_cast<double>(c.bytes);
    }
    if (c.kind == Call::readdir) readdir_sim.push_back(static_cast<double>(c.sim_us));
  }
  const double busy_max =
      t.node_busy_us.empty() ? 0.0
                             : *std::max_element(t.node_busy_us.begin(), t.node_busy_us.end());
  const double failed_attempts =
      counter(r, "rpc.attempt.drops") + counter(r, "rpc.attempt.errors") +
      counter(r, "rpc.attempt.outages") + counter(r, "server.shed.requests") +
      counter(r, "client.batch.retries");

  std::map<std::string, double> v;
  std::map<std::string, std::string> note;
  if (apps) {
    v["adapter.busy_share"] = ratio(call_wall, in.generator_busy_ns);
    v["adapter.blob_ops_per_call"] = ratio(sum_calls(r, "client."), ops);
    v["adapter.meta_wall_share"] = ratio(meta_wall, call_wall);
    v["adapter.readdir_sim_p50_us"] = quantile(readdir_sim, 0.5);
  } else {
    for (const char* k : {"adapter.busy_share", "adapter.blob_ops_per_call",
                          "adapter.meta_wall_share", "adapter.readdir_sim_p50_us"}) {
      v[k] = 0;
      note[k] = "n/a: no adapter";
    }
  }
  v["client.rpc_attempts_per_op"] = ratio(counter(r, "rpc.attempts"), ops);
  v["client.batch.subops_per_envelope"] =
      ratio(counter(r, "rpc.batch.subops"), counter(r, "rpc.batches"));
  const double mc_hits = counter(r, "client.metacache.hits");
  v["client.metacache.hit_ratio"] =
      ratio(mc_hits, mc_hits + counter(r, "client.metacache.misses"));
  v["client.retries"] = failed_attempts;
  // Server requests: mutation envelopes (server.txn) plus read and metadata
  // sub-ops; the per-op write/truncate counts inside an envelope are not
  // requests of their own.
  v["server.calls_per_op"] =
      ratio(counter(r, "server.txn.calls") + counter(r, "server.read.calls") +
                counter(r, "server.stat.calls") + counter(r, "server.size.calls") +
                counter(r, "server.scan.calls"),
            ops);
  v["server.stripe.contended_ratio"] =
      ratio(counter(r, "server.stripe.contended"), counter(r, "server.stripe.acquisitions"));
  // Every client mutation reaches the server as an apply_ops envelope, whose
  // service time is published on server.txn; single-key reads publish on
  // server.read. Batched read envelopes publish no service time, so the
  // node-level mean below is the read service figure on blob-stripe.
  v["server.write.service_us_p50"] = hist_p50(r, "server.txn.service_us");
  v["server.read.service_us_p50"] = hist_p50(r, "server.read.service_us");
  v["server.service_us_mean"] = ratio(
      std::accumulate(t.node_busy_us.begin(), t.node_busy_us.end(), 0.0), t.node_requests);
  v["engine.bytes_written_per_user_byte"] =
      ratio(counter(r, "engine.bytes_written"), user_written);
  v["engine.dead_bytes_share"] = ratio(t.engine_dead, t.engine_live + t.engine_dead);
  v["engine.compactions"] = counter(r, "engine.compactions");
  v["engine.write_ns"] = in.engine_ns.first;
  v["engine.read_ns"] = in.engine_ns.second;
  v["cache.hit_ratio"] = ratio(t.cache_hits, t.cache_hits + t.cache_misses);
  v["cache.evictions"] = t.cache_evictions;
  v["sim.requests_per_op"] = ratio(t.node_requests, ops);
  v["sim.node_busy_max_share"] = ratio(busy_max, t.sim_elapsed_us);
  v["obs.tracing_overhead"] = ratio(in.untraced_tput, in.traced_tput) - 1.0;

  double total_s = 0, worst_spread = 0;
  for (const char* app : kAppNames) {
    const std::string k = std::string("sim.app_time_s.") + app;
    const std::string ks = std::string("sim.app_time_spread.") + app;
    const auto it = in.app_times_s.find(app);
    if (it == in.app_times_s.end() || it->second.empty()) {
      v[k] = v[ks] = 0;
      note[k] = note[ks] = "n/a: no apps";
      continue;
    }
    const auto& xs = it->second;
    const double med = median(xs);
    const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
    v[k] = med;
    v[ks] = ratio(*hi - *lo, med);
    note[k] = note[ks] = bsc::strfmt("%zu repetitions", xs.size());
    total_s += med;
    worst_spread = std::max(worst_spread, v[ks]);
  }
  v["sim.app_time_s"] = total_s;
  v["sim.app_time_spread"] = worst_spread;
  if (!apps) note["sim.app_time_s"] = note["sim.app_time_spread"] = "n/a: no apps";

  std::vector<Metric> out;
  for (const auto& spec : layer_specs()) {
    out.push_back({spec.name, spec.unit, v.at(spec.name), note[spec.name]});
  }
  return out;
}

/// Spans as CSV (id,parent,request,name,start_ns,end_ns) and the per-layer
/// table, both under opts.out_dir.
void write_trace_outputs(const Options& opts, const std::vector<Span>& spans,
                         const WorkloadResult& res) {
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  {
    std::ofstream f(opts.out_dir + "/spans-" + opts.workload + ".csv");
    f << "id,parent,request,name,start_ns,end_ns\n";
    for (const auto& s : spans) {
      f << s.id << ',' << s.parent << ',' << s.request << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  std::ofstream f(opts.out_dir + "/layers-" + opts.workload + ".txt");
  f << "workload " << opts.workload << " seed " << opts.seed << '\n';
  const auto& specs = layer_specs();
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    f << bsc::strfmt("%-40s %14.6g %-7s moves %-40s on %s%s\n", m.name.c_str(), m.value,
                     m.unit.c_str(), specs[i].moves.c_str(), specs[i].on.c_str(),
                     m.note.empty() ? "" : ("  (" + m.note + ")").c_str());
  }
}

// ------------------------------------------------------ blob workloads ----

struct BlobProfile {
  std::string name;
  std::uint32_t objects;        ///< distinct blobs
  bool owned;                   ///< each client owns objects / kGenerators blobs
  std::size_t object_bytes;
  double write_share;           ///< whole-object overwrites; the rest are reads
  double zipf_theta;            ///< 0 = uniform
  std::uint64_t warmup_ops;     ///< per client, part of set-up
};

BlobProfile put_profile() {
  return {"blob-put", 4 * 256, true, 64 * 1024, 0.7, 0.0, 256};
}
BlobProfile stripe_profile() {
  return {"blob-stripe", 32, false, 8 << 20, 0.1, 0.99, 8};
}

struct BlobRig {
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<blob::BlobStore> store;
  std::vector<std::unique_ptr<sim::SimAgent>> agents;
  std::vector<std::unique_ptr<blob::BlobClient>> clients;
  std::vector<bsc::Rng> rngs;
  std::vector<std::string> keys;
  /// Latest variant issued per object. Owned objects are only touched by
  /// their owner; shared ones by every writer (hence atomic).
  std::unique_ptr<std::atomic<std::uint64_t>[]> issued;
  std::vector<char> torn;  ///< owned object whose last write failed
};

struct PhaseOut {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double wall_s = 0;
  double sim_elapsed_us = 0;
};

class BlobWorkload {
 public:
  BlobWorkload(BlobProfile p, std::uint64_t seed)
      : p_(std::move(p)),
        seed_(seed),
        pool_(derive_seed(seed, 1),
              std::min<std::size_t>(p_.object_bytes, blob::StoreConfig{}.chunk_bytes), 16),
        zipf_(p_.objects, p_.zipf_theta > 0 ? p_.zipf_theta : 0.5) {}

  /// Build a cluster, pre-populate every object and warm up. Returns seconds.
  /// Each round draws its own op streams from the seed.
  double setup(std::size_t round) {
    // Free the previous set-up and hand its memory back to the kernel, so
    // this round's peak RSS is its own footprint, not the allocator's history.
    rig_ = BlobRig{};
    malloc_trim(0);
    reset_peak_rss();
    const std::int64_t t0 = now_ns();
    rig_.cluster = std::make_unique<sim::Cluster>(sim::ClusterSpec::parapluie());
    rig_.store = std::make_unique<blob::BlobStore>(*rig_.cluster);
    for (std::uint32_t c = 0; c < kGenerators; ++c) {
      rig_.agents.push_back(std::make_unique<sim::SimAgent>());
      rig_.clients.push_back(
          std::make_unique<blob::BlobClient>(*rig_.store, rig_.agents.back().get()));
      rig_.rngs.emplace_back(derive_seed(seed_, 100 + c + 16 * round));
    }
    for (std::uint32_t o = 0; o < p_.objects; ++o) {
      rig_.keys.push_back(bsc::strfmt("%s/obj-%05u", p_.name.c_str(), o));
    }
    rig_.issued = std::make_unique<std::atomic<std::uint64_t>[]>(p_.objects);
    rig_.torn.assign(p_.objects, 0);
    run_threads([&](std::uint32_t c) {
      Bytes buf(p_.object_bytes);
      for (std::uint32_t o = c; o < p_.objects; o += kGenerators) {
        pool_.fill(buf, o, 0);
        auto w = rig_.clients[c]->write(rig_.keys[o], 0, buf);
        if (!w.ok()) fail("pre-population of " + rig_.keys[o] + ": " + w.error().message());
      }
    });
    (void)phase(0.0, p_.warmup_ops, false);
    (void)Recorder::global().take_calls();
    return seconds_since(t0);
  }

  /// Closed-loop measurement: every client issues ops back to back for
  /// `seconds` (or `max_ops` each, when non-zero).
  PhaseOut phase(double seconds, std::uint64_t max_ops, bool tracing) {
    Recorder::global().set_tracing(tracing);
    std::vector<std::int64_t> sim_start(kGenerators), sim_end(kGenerators);
    const std::int64_t t0 = now_ns();
    const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
    run_threads([&](std::uint32_t c) {
      sim_start[c] = rig_.agents[c]->now();
      client_loop(c, deadline, max_ops, tracing);
      sim_end[c] = rig_.agents[c]->now();
    });
    Recorder::global().set_tracing(false);
    PhaseOut out;
    out.start_ns = t0;
    out.end_ns = now_ns();
    out.wall_s = static_cast<double>(out.end_ns - t0) / 1e9;
    out.sim_elapsed_us = static_cast<double>(
        *std::max_element(sim_end.begin(), sim_end.end()) -
        *std::min_element(sim_start.begin(), sim_start.end()));
    return out;
  }

  [[nodiscard]] BlobRig& rig() noexcept { return rig_; }
  [[nodiscard]] bool ok() const {
    std::scoped_lock lk(err_mu_);
    return error_.empty();
  }
  [[nodiscard]] std::string error() const {
    std::scoped_lock lk(err_mu_);
    return error_;
  }

 private:
  template <typename Fn>
  void run_threads(Fn&& fn) {
    std::vector<std::thread> ts;
    for (std::uint32_t c = 0; c < kGenerators; ++c) ts.emplace_back([&fn, c] { fn(c); });
    for (auto& t : ts) t.join();
  }

  void fail(const std::string& why) {
    std::scoped_lock lk(err_mu_);
    if (error_.empty()) error_ = why;
    stop_.store(true, std::memory_order_relaxed);
  }

  void client_loop(std::uint32_t c, std::int64_t deadline, std::uint64_t max_ops,
                   bool tracing) {
    Recorder& rec = Recorder::global();
    ThreadLog& log = rec.local();
    blob::BlobClient& client = *rig_.clients[c];
    sim::SimAgent& agent = *rig_.agents[c];
    bsc::Rng& rng = rig_.rngs[c];
    const std::uint32_t per_client = p_.objects / kGenerators;
    Bytes buf(p_.object_bytes);
    for (std::uint64_t n = 0; !stop_.load(std::memory_order_relaxed); ++n) {
      if (max_ops ? n >= max_ops : now_ns() >= deadline) break;
      const auto o = static_cast<std::uint32_t>(
          p_.owned ? c * per_client + rng.next_below(per_client)
                   : (p_.zipf_theta > 0 ? zipf_.sample(rng) : rng.next_below(p_.objects)));
      const bool is_write = rng.chance(p_.write_share);
      const std::string& key = rig_.keys[o];
      const std::int64_t op_t0 = now_ns();
      CallRec cr{};
      cr.kind = is_write ? Call::blob_write : Call::blob_read;
      std::int64_t t0 = 0, t1 = 0;
      const std::int64_t s0 = agent.now();
      if (is_write) {
        const std::uint64_t v = rig_.issued[o].fetch_add(1, std::memory_order_relaxed) + 1;
        pool_.fill(buf, o, v);
        t0 = now_ns();
        auto w = client.write(key, 0, buf);
        t1 = now_ns();
        cr.failed = !w.ok() || w.value() != p_.object_bytes;
        cr.bytes = w.ok() ? w.value() : 0;
        if (p_.owned) rig_.torn[o] = cr.failed;
      } else {
        t0 = now_ns();
        auto r = client.read(key, 0, p_.object_bytes);
        t1 = now_ns();
        cr.failed = !r.ok();
        if (r.ok()) {
          cr.bytes = r.value().size();
          // Shared objects: any variant issued up to now may be in any range.
          const std::uint64_t latest = rig_.issued[o].load(std::memory_order_relaxed);
          const CheckResult chk =
              p_.owned && !rig_.torn[o]
                  ? check_exact(pool_, r.value(), o, latest, p_.object_bytes)
                  : check_any_variant(pool_, r.value(), o, latest, p_.object_bytes);
          if (!chk.ok) fail("content mismatch: " + chk.detail);
        }
      }
      cr.wall_ns = t1 - t0;
      cr.end_ns = t1;
      cr.sim_us = agent.now() - s0;
      log.calls.push_back(cr);
      if (tracing) {
        const std::uint64_t op = rec.next_id();
        log.spans.push_back(Span{rec.next_id(), op, op, call_name(cr.kind), t0, t1});
        log.spans.push_back(Span{op, 0, op, "bench.op", op_t0, now_ns()});
      }
    }
  }

  BlobProfile p_;
  std::uint64_t seed_;
  PayloadPool pool_;
  bsc::Zipf zipf_;
  BlobRig rig_;
  std::atomic<bool> stop_{false};
  mutable std::mutex err_mu_;
  std::string error_;
};

WorkloadResult run_blob(const Options& opts, const BlobProfile& profile) {
  WorkloadResult res;
  res.workload = profile.name;
  const std::size_t stored =
      static_cast<std::size_t>(profile.objects) * profile.object_bytes;
  res.notes.push_back(bsc::strfmt(
      "%u closed-loop clients; %u objects x %zu KiB = %zu MiB logical, %zu MiB stored "
      "at R=3 (%.1f MiB per node vs a 48 MiB node cache); persistence off",
      kGenerators, profile.objects, profile.object_bytes >> 10, stored >> 20,
      (stored * 3) >> 20, static_cast<double>(stored * 3) / 8.0 / (1 << 20)));

  // The run is kRounds rounds, each on a freshly set-up cluster: lock
  // convoys and thread placement settle into a state that holds for a whole
  // round, so one long round would measure one draw of that state.
  BlobWorkload wl(profile, opts.seed);
  const double round_s = opts.seconds / kRounds;
  std::vector<double> setups, peaks;
  std::vector<WindowStats> windows;
  LayerTally tally;
  std::vector<CallRec> traced_calls;
  double plain_calls = 0, plain_s = 0, traced_s = 0;
  for (std::size_t round = 0; round < kRounds && wl.ok(); ++round) {
    setups.push_back(wl.setup(round));
    if (!opts.trace) {
      const PhaseOut ph = wl.phase(round_s, 0, false);
      peaks.push_back(peak_rss_mib());
      const auto w = window_stats(Recorder::global().take_calls(), ph.start_ns, ph.end_ns,
                                  kWindowsPerRound);
      windows.insert(windows.end(), w.begin(), w.end());
      continue;
    }
    // Untraced half for the overhead baseline, then the traced half, on the
    // same set-up so the two halves see the same state.
    const PhaseOut plain = wl.phase(round_s / 2, 0, false);
    plain_calls += static_cast<double>(Recorder::global().take_calls().size());
    plain_s += plain.wall_s;
    const obs::MetricsSnapshot reg0 = obs::MetricsRegistry::global().snapshot();
    const NodeSample nodes0 = sample_nodes(*wl.rig().cluster);
    const PhaseOut traced = wl.phase(round_s / 2, 0, true);
    tally.add_registry(obs::MetricsRegistry::global().snapshot().delta_since(reg0));
    tally.add_nodes(nodes0, sample_nodes(*wl.rig().cluster));
    if (round + 1 == kRounds) tally.add_engines(*wl.rig().store);
    tally.sim_elapsed_us += traced.sim_elapsed_us;
    traced_s += traced.wall_s;
    auto calls = Recorder::global().take_calls();
    traced_calls.insert(traced_calls.end(), calls.begin(), calls.end());
  }
  if (!opts.trace) {
    add_end_to_end(res, windows, median(setups), median(peaks), space_amp(*wl.rig().store));
  } else {
    for (const auto& c : traced_calls) res.failed += c.failed ? 1 : 0;
    res.attempted = traced_calls.size();
    LayerInputs in;
    in.tally = &tally;
    in.calls = &traced_calls;
    in.untraced_tput = ratio(plain_calls, plain_s);
    in.traced_tput = ratio(static_cast<double>(traced_calls.size()), traced_s);
    // Engine-level op: a whole 64 KiB blob, or one 1 MiB chunk of a striped
    // one, over one node's share of the stored keys; 64 MiB or 256 ops each way.
    const std::size_t op_bytes =
        std::min<std::size_t>(profile.object_bytes, blob::StoreConfig{}.chunk_bytes);
    const std::size_t node_keys = stored * 3 / 8 / op_bytes;
    in.engine_ns = replay_engine(derive_seed(opts.seed, 7), op_bytes, node_keys,
                                 std::max<std::size_t>(256, (64u << 20) / op_bytes));
    res.metrics = layer_metrics(profile.name, in);
    write_trace_outputs(opts, Recorder::global().take_spans(), res);
  }
  if (!wl.ok()) {
    res.correct = false;
    res.error = wl.error();
  }
  return res;
}

// ------------------------------------------------------- paper apps ----

/// One app run on its own fresh cluster: what it cost and what it did.
struct AppRun {
  std::string name;
  double sim_s = 0;
  bsc::trace::Census census;
};

struct PassOut {
  std::vector<AppRun> apps;
  double setup_s = 0;      ///< cluster builds + staging (agent-less calls)
  double traced_s = 0;     ///< wall time of the traced phases
  double engine_bytes = 0;
  double logical_bytes = 0;
  std::string error;
};

bool same_census(const bsc::trace::Census& a, const bsc::trace::Census& b) {
  return a.op_counts == b.op_counts && a.bytes_read == b.bytes_read &&
         a.bytes_written == b.bytes_written;
}

class PaperApps {
 public:
  explicit PaperApps(std::uint64_t seed) : seed_(seed), pool_(kGenerators) {}

  /// One pass: the four HPC models, then the Spark suite, each on a fresh
  /// cluster. With `tracing`, spans are recorded and the layers tallied.
  PassOut pass(bool tracing) {
    Recorder::global().set_tracing(tracing);
    PassOut out;
    const apps::HpcAppKind hpc[] = {apps::HpcAppKind::blast, apps::HpcAppKind::mom,
                                    apps::HpcAppKind::ecoham,
                                    apps::HpcAppKind::raytracing};
    for (std::size_t i = 0; i < std::size(hpc) && out.error.empty(); ++i) {
      run_on_fresh_cluster(out, tracing, kHpcSpans[i], [&](TimedFs& fs, sim::Cluster& c) {
        apps::HpcRunOptions o;
        o.ranks = kGenerators;
        o.with_prep_script = false;  // EH/MPI: the MPI phase only
        o.seed = derive_seed(seed_, 10 + i);
        auto r = apps::run_hpc_app(hpc[i], fs, c, o);
        if (!r.ok) return std::string(kAppNames[i]) + ": " + r.error;
        out.apps.push_back({kAppNames[i], static_cast<double>(r.sim_time) / 1e6,
                            r.census.census});
        return std::string();
      });
    }
    if (out.error.empty()) {
      run_on_fresh_cluster(out, tracing, "app.Spark", [&](TimedFs& fs, sim::Cluster& c) {
        apps::SparkSuiteOptions o;
        o.seed = derive_seed(seed_, 20);
        auto r = apps::run_spark_suite(fs, c, pool_, o);
        if (!r.ok) return "Spark suite: " + r.error;
        for (const auto& a : r.per_app) {
          out.apps.push_back({a.name, static_cast<double>(a.sim_time) / 1e6, a.census});
        }
        return std::string();
      });
    }
    Recorder::global().set_tracing(false);
    return out;
  }

  [[nodiscard]] LayerTally& tally() noexcept { return tally_; }

 private:
  template <typename Fn>
  void run_on_fresh_cluster(PassOut& out, bool tracing, const char* span_name, Fn&& body) {
    malloc_trim(0);  // the previous app's cluster is gone; see BlobWorkload::setup
    const std::int64_t t0 = now_ns();
    sim::Cluster cluster(sim::ClusterSpec::parapluie());
    blob::BlobStore store(cluster);
    adapter::BlobFs blobfs(store);
    TimedFs fs(blobfs);
    Recorder& rec = Recorder::global();
    const std::uint64_t span = tracing ? rec.next_id() : 0;
    std::int64_t t_first = 0;
    obs::MetricsSnapshot reg0;
    NodeSample nodes0;
    fs.begin_run(span, span, [&] {
      t_first = now_ns();
      if (tracing) {
        reg0 = obs::MetricsRegistry::global().snapshot();
        nodes0 = sample_nodes(cluster);
      }
    });
    const std::size_t first_app = out.apps.size();
    const std::string err = body(fs, cluster);
    const std::int64_t t_end = now_ns();
    if (!err.empty()) {
      out.error = err;
      return;
    }
    if (t_first == 0) t_first = t_end;
    const std::int64_t staging_after = fs.staging_after_first_ns();
    out.setup_s += static_cast<double>(t_first - t0 + staging_after) / 1e9;
    out.traced_s += static_cast<double>(t_end - t_first - staging_after) / 1e9;
    (void)space_amp(store, &out.engine_bytes, &out.logical_bytes);
    if (tracing) {
      rec.local().spans.push_back(Span{span, 0, span, span_name, t0, t_end});
      tally_.add_registry(obs::MetricsRegistry::global().snapshot().delta_since(reg0));
      tally_.add_nodes(nodes0, sample_nodes(cluster));
      tally_.add_engines(store);
      for (std::size_t i = first_app; i < out.apps.size(); ++i) {
        tally_.sim_elapsed_us += out.apps[i].sim_s * 1e6;
      }
    }
  }

  std::uint64_t seed_;
  bsc::ThreadPool pool_;
  LayerTally tally_;
};

WorkloadResult run_paper_apps(const Options& opts) {
  WorkloadResult res;
  res.workload = "paper-apps";
  const std::int64_t t_pool = now_ns();
  PaperApps pa(opts.seed);
  const double pool_setup_s = seconds_since(t_pool);
  res.notes.push_back(
      "4 MPI ranks (HPC) / 4-thread pool (Spark), closed loop; BlobFs over R=3 on 8 "
      "storage nodes, each app on a fresh cluster; persistence off");

  // Passes run until the budget is spent, at least two so the census can
  // be compared. A traced run alternates untraced and traced passes, so both
  // halves of the overhead comparison see the same host conditions.
  std::map<std::string, bsc::trace::Census> census;
  std::map<std::string, std::vector<double>> app_times;
  std::vector<double> setups, peaks;
  std::vector<WindowStats> windows;  ///< one per pass of an untraced run
  std::vector<CallRec> traced_calls;
  double engine_bytes = 0, logical_bytes = 0;
  double plain_calls = 0, plain_s = 0, traced_s = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t n = 0; res.correct && (n < 2 || seconds_since(t0) < opts.seconds); ++n) {
    const bool tracing = opts.trace && n % 2 == 1;
    reset_peak_rss();
    PassOut p = pa.pass(tracing);
    peaks.push_back(peak_rss_mib());
    if (!p.error.empty()) {
      res.correct = false;
      res.error = p.error;
      break;
    }
    setups.push_back(p.setup_s + (n == 0 ? pool_setup_s : 0.0));
    engine_bytes += p.engine_bytes;
    logical_bytes += p.logical_bytes;
    auto calls = Recorder::global().take_calls();
    if (!opts.trace) {
      windows.push_back(summarize(calls, p.traced_s));
    } else if (tracing) {
      traced_calls.insert(traced_calls.end(), calls.begin(), calls.end());
      traced_s += p.traced_s;
    } else {
      plain_calls += static_cast<double>(calls.size());
      plain_s += p.traced_s;
    }
    for (const auto& a : p.apps) {
      app_times[a.name].push_back(a.sim_s);
      auto [it, fresh] = census.try_emplace(a.name, a.census);
      if (!fresh && !same_census(it->second, a.census)) {
        res.correct = false;
        res.error = "census drift: " + a.name + " issued a different call mix";
      }
    }
  }
  if (res.correct && !opts.trace) {
    add_end_to_end(res, windows, median(setups), median(peaks),
                   ratio(engine_bytes, logical_bytes));
  } else if (res.correct) {
    for (const auto& c : traced_calls) res.failed += c.failed ? 1 : 0;
    res.attempted = traced_calls.size();
    LayerInputs in;
    in.tally = &pa.tally();
    in.calls = &traced_calls;
    in.generator_busy_ns = traced_s * 1e9 * kGenerators;
    in.untraced_tput = ratio(plain_calls, plain_s);
    in.traced_tput = ratio(static_cast<double>(traced_calls.size()), traced_s);
    in.app_times_s = app_times;
    in.engine_ns = replay_engine(derive_seed(opts.seed, 7), 1024, 4096, 20000);
    res.metrics = layer_metrics(res.workload, in);
    write_trace_outputs(opts, Recorder::global().take_spans(), res);
  }
  for (const auto& [name, xs] : app_times) {
    std::string line = "sim app time " + name + ":";
    for (double x : xs) line += bsc::strfmt(" %.3f", x);
    res.notes.push_back(line + " s");
  }
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper-apps", "blob-put", "blob-stripe"};
  return names;
}

const std::vector<LayerSpec>& layer_specs() {
  static const std::vector<LayerSpec> specs = [] {
    std::vector<LayerSpec> s = {
        {"adapter.busy_share", "ratio", "lower",
         "caps what any storage change can do to throughput_ops_s", "paper-apps"},
        {"adapter.blob_ops_per_call", "ratio", "lower", "sim_p50_us, throughput_ops_s",
         "paper-apps"},
        {"adapter.meta_wall_share", "ratio", "lower", "wall_p99_us, sim_p99_us",
         "paper-apps"},
        {"adapter.readdir_sim_p50_us", "sim_us", "lower", "wall_p99_us, sim_p99_us",
         "paper-apps"},
        {"client.rpc_attempts_per_op", "ratio", "lower", "sim_p50_us", "all"},
        {"client.batch.subops_per_envelope", "ratio", "higher",
         "throughput_ops_s, sim_p50_us", "blob-stripe"},
        {"client.metacache.hit_ratio", "ratio", "higher", "throughput_ops_s, sim_p50_us",
         "blob-stripe"},
        {"client.retries", "count", "lower", "fail_ratio (expected 0)", "all"},
        {"server.calls_per_op", "ratio", "lower", "throughput_ops_s", "blob-put"},
        {"server.stripe.contended_ratio", "ratio", "lower", "wall_p99_us, throughput_ops_s",
         "blob-put"},
        {"server.write.service_us_p50", "sim_us", "lower", "sim_p50_us", "blob-put"},
        {"server.read.service_us_p50", "sim_us", "lower", "sim_p50_us", "blob-put"},
        {"server.service_us_mean", "sim_us", "lower", "sim_p50_us", "blob-stripe"},
        {"engine.bytes_written_per_user_byte", "ratio", "lower",
         "space_amp, goodput_mb_s, wall_p99_us", "blob-put"},
        {"engine.dead_bytes_share", "ratio", "lower", "space_amp, goodput_mb_s, wall_p99_us",
         "blob-put"},
        {"engine.compactions", "count", "lower", "space_amp, goodput_mb_s, wall_p99_us",
         "blob-put"},
        {"engine.write_ns", "ns", "lower", "lower bound of wall_p50_us", "blob-put"},
        {"engine.read_ns", "ns", "lower", "lower bound of wall_p50_us", "blob-stripe"},
        {"cache.hit_ratio", "ratio", "higher", "sim_p50_us, sim_p99_us", "blob-stripe"},
        {"cache.evictions", "count", "lower", "sim_p50_us, sim_p99_us", "blob-stripe"},
        {"sim.requests_per_op", "ratio", "lower", "sim_p50_us, sim_p99_us", "blob-stripe"},
        {"sim.node_busy_max_share", "ratio", "lower", "sim_p50_us, sim_p99_us",
         "blob-stripe"},
        {"sim.app_time_s", "s", "lower", "none yet (sum of per-app medians)", "paper-apps"},
        {"sim.app_time_spread", "ratio", "lower",
         "none yet; deterministic sim time drives it to 0 (worst app)", "paper-apps"},
        {"obs.tracing_overhead", "ratio", "lower", "none (traced vs untraced throughput)",
         "all"},
    };
    for (const char* app : kAppNames) {
      s.push_back({std::string("sim.app_time_s.") + app, "s", "lower", "none yet",
                   "paper-apps"});
    }
    for (const char* app : kAppNames) {
      s.push_back({std::string("sim.app_time_spread.") + app, "ratio", "lower",
                   "none yet", "paper-apps"});
    }
    return s;
  }();
  return specs;
}

WorkloadResult run_workload(const Options& opts) {
  if (opts.workload == "paper-apps") return run_paper_apps(opts);
  if (opts.workload == "blob-put") return run_blob(opts, put_profile());
  if (opts.workload == "blob-stripe") return run_blob(opts, stripe_profile());
  WorkloadResult res;
  res.workload = opts.workload;
  res.correct = false;
  res.error = "unknown workload";
  return res;
}

}  // namespace perfbench
