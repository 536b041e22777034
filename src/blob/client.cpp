#include "blob/client.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <thread>
#include <type_traits>

#include "common/hash.hpp"
#include "rpc/wire.hpp"
#include "trace/taxonomy.hpp"

namespace bsc::blob {

namespace {
/// Wire envelope overhead of a request/response (header, op code, status).
constexpr std::uint64_t kEnvelope = 32;

/// Wire size of a plain stat request/response; a plain digest vote's reply
/// is one too.
constexpr std::uint64_t kProbeReq = 64;
constexpr std::uint64_t kProbeResp = kEnvelope + 24;

std::uint64_t req_bytes(std::string_view key, std::uint64_t payload = 0) {
  return kEnvelope + key.size() + payload;
}

/// Exact wire bytes of one batch sub-op header (payload excluded). Coalesced
/// runs of consecutive chunks share a single header (`span` chunks, one key);
/// the payload itself is charged once per envelope at the largest-leg rate,
/// the chunk payloads of one envelope stream in parallel.
std::uint64_t batch_header_bytes(std::string_view first_key, rpc::BatchOpKind kind,
                                 std::uint32_t span) {
  rpc::BatchOp op;
  op.kind = kind;
  op.key.assign(first_key);
  op.span = span;
  return rpc::wire_size(op);
}

/// The write op of every client mutation path: the one copy of `slice`,
/// into an immutable buffer that every replica's engine then references,
/// with its content checksum computed here, once, so replicas store the
/// sender's checksum instead of re-hashing the bytes. A mutation leg points
/// `key` at its sub's engine key itself.
BlobServer::OpRef write_op(std::uint64_t offset, ByteView slice,
                           const std::string* key = nullptr) {
  SharedBytes data = SharedBytes::copy_of(slice);
  const std::uint64_t checksum = content_checksum(data.view);
  return {BlobServer::OpRef::Kind::write, key, offset, std::move(data), 0, checksum};
}

/// Wire bytes of one per-sub status in a batch reply (payload excluded).
std::uint64_t batch_substatus_bytes() { return rpc::wire_size(rpc::BatchSubStatus{}); }

/// `n` value-initialized Ts, held inline when n <= N: the per-candidate
/// reply rows of a read leg, so a lone read allocates none.
template <typename T, std::size_t N>
class SmallBuf {
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  explicit SmallBuf(std::size_t n) {
    if (n > N) {
      heap_.resize(n);
      span_ = heap_;
    } else {
      T* first = std::launder(reinterpret_cast<T*>(inline_));
      std::uninitialized_value_construct_n(first, n);
      span_ = {first, n};
    }
  }
  SmallBuf(const SmallBuf&) = delete;
  SmallBuf& operator=(const SmallBuf&) = delete;
  std::span<T> span() const noexcept { return span_; }

 private:
  alignas(T) std::byte inline_[N * sizeof(T)];
  std::vector<T> heap_;
  std::span<T> span_;
};

/// Registry series of one client primitive. The category counter is the
/// paper's §IV taxonomy roll-up, reached through the closest POSIX OpKind:
/// create→open, remove→unlink, size/stat→stat, scan→readdir, txn→sync
/// (read/write/truncate map to themselves).
struct PrimSeries {
  std::string label;  ///< slow-op op name, e.g. "client.read"
  obs::Counter& calls;
  obs::Counter& category;
  obs::ShardedHistogram& latency_us;
};

PrimSeries make_series(const char* prim, trace::OpKind kind) {
  auto& reg = obs::MetricsRegistry::global();
  const std::string base = std::string{"client."} + prim;
  return PrimSeries{base, reg.counter(base + ".calls"),
                    reg.counter(std::string{"client.category."} +
                                std::string{trace::to_string(trace::classify(kind))}),
                    reg.histogram(base + ".latency_us")};
}

/// All client series, resolved once per process (registry references are
/// stable for the process lifetime).
struct ClientMetrics {
  PrimSeries create = make_series("create", trace::OpKind::open);
  PrimSeries remove = make_series("remove", trace::OpKind::unlink);
  PrimSeries read = make_series("read", trace::OpKind::read);
  PrimSeries write = make_series("write", trace::OpKind::write);
  PrimSeries truncate = make_series("truncate", trace::OpKind::truncate);
  PrimSeries size = make_series("size", trace::OpKind::stat);
  PrimSeries stat = make_series("stat", trace::OpKind::stat);
  PrimSeries scan = make_series("scan", trace::OpKind::readdir);
  PrimSeries txn = make_series("txn", trace::OpKind::sync);
  obs::ShardedHistogram& read_bytes =
      obs::MetricsRegistry::global().histogram("client.read.bytes");
  obs::ShardedHistogram& write_bytes =
      obs::MetricsRegistry::global().histogram("client.write.bytes");
  // Batched scatter-gather + metadata cache series.
  obs::ShardedHistogram& read_hole_bytes =
      obs::MetricsRegistry::global().histogram("client.read.hole_bytes");
  obs::ShardedHistogram& batch_size =
      obs::MetricsRegistry::global().histogram("client.batch.size");
  obs::Counter& batch_envelopes =
      obs::MetricsRegistry::global().counter("client.batch.envelopes");
  obs::Counter& batch_coalesced =
      obs::MetricsRegistry::global().counter("client.batch.coalesced");
  obs::Counter& metacache_hits =
      obs::MetricsRegistry::global().counter("client.metacache.hits");
  obs::Counter& metacache_misses =
      obs::MetricsRegistry::global().counter("client.metacache.misses");
  obs::Counter& metacache_invalidations =
      obs::MetricsRegistry::global().counter("client.metacache.invalidations");
  // Quorum-aware batched reads: per-sub version voting in the envelope.
  obs::Counter& quorum_probes =
      obs::MetricsRegistry::global().counter("client.batch.quorum_probes");
  obs::Counter& quorum_winners =
      obs::MetricsRegistry::global().counter("client.batch.quorum_winners");
  obs::Counter& quorum_digest_savings =
      obs::MetricsRegistry::global().counter("client.batch.quorum_digest_savings_bytes");
  obs::Counter& quorum_refetches =
      obs::MetricsRegistry::global().counter("client.batch.quorum_refetches");
  // Elastic membership: the epoch protocol and dual writes. dual_writes is
  // the same registry series the rebalancer interns — one counter tells the
  // whole story of a migration window regardless of which side mirrored.
  obs::Counter& epoch_refreshes =
      obs::MetricsRegistry::global().counter("client.epoch.refreshes");
  obs::Counter& stale_retries =
      obs::MetricsRegistry::global().counter("client.epoch.stale_retries");
  obs::Counter& batch_retries =
      obs::MetricsRegistry::global().counter("client.batch.retries");
  obs::Counter& dual_writes =
      obs::MetricsRegistry::global().counter("rebalance.dual_writes");
  obs::Counter& chain_dual_writes =
      obs::MetricsRegistry::global().counter("rebalance.chain_dual_writes");
  // Overload resilience: end-to-end deadline budgets, the client-wide retry
  // token bucket, and the per-node circuit breakers.
  obs::Counter& deadline_exceeded =
      obs::MetricsRegistry::global().counter("client.deadline.exceeded");
  obs::Counter& deadline_clamped =
      obs::MetricsRegistry::global().counter("client.deadline.clamped_attempts");
  obs::Counter& retries_suppressed =
      obs::MetricsRegistry::global().counter("client.deadline.retries_suppressed");
  obs::Counter& sheds_observed =
      obs::MetricsRegistry::global().counter("client.breaker.sheds_observed");
  obs::Counter& breaker_opens =
      obs::MetricsRegistry::global().counter("client.breaker.opens");
  obs::Counter& breaker_closes =
      obs::MetricsRegistry::global().counter("client.breaker.closes");
  obs::Counter& breaker_probes =
      obs::MetricsRegistry::global().counter("client.breaker.probes");
  obs::Counter& breaker_fast_hints =
      obs::MetricsRegistry::global().counter("client.breaker.fast_hints");
  obs::Counter& breaker_demotions =
      obs::MetricsRegistry::global().counter("client.breaker.demotions");
  obs::Gauge& breaker_open_nodes =
      obs::MetricsRegistry::global().gauge("client.breaker.open_nodes");
};

ClientMetrics& client_metrics() {
  static ClientMetrics m;
  return m;
}

/// Publishes one primitive call on every return path: calls + category
/// counters, the simulated-latency histogram (the agent-clock delta this
/// call cost, scatter-gather legs included), and slow-op admission.
class PrimTimer {
 public:
  PrimTimer(const PrimSeries& s, sim::SimAgent* agent, std::string_view key)
      : s_(s), agent_(agent), key_(key), start_(agent ? agent->now() : 0) {}
  PrimTimer(const PrimTimer&) = delete;
  PrimTimer& operator=(const PrimTimer&) = delete;
  ~PrimTimer() {
    const SimMicros end = agent_ ? agent_->now() : start_;
    const auto latency = static_cast<std::uint64_t>(end - start_);
    s_.calls.inc();
    s_.category.inc();
    s_.latency_us.add(latency);
    obs::MetricsRegistry::global().slow_ops().observe(s_.label, key_, latency,
                                                      static_cast<std::uint64_t>(end));
  }

 private:
  const PrimSeries& s_;
  sim::SimAgent* agent_;
  std::string_view key_;  // outlived by the caller's key argument
  SimMicros start_;
};
}  // namespace

BlobClient::AttemptPlan BlobClient::plan_attempt(BlobServer& srv, SimMicros attempt_start,
                                                 std::uint64_t request_bytes,
                                                 std::uint32_t batch_subs,
                                                 SimMicros attempt_deadline_us) {
  const auto& net = store_->cluster().net();
  rpc::FaultVerdict v =
      batch_subs > 0
          ? store_->transport().admit_batch(srv.node(), attempt_start, batch_subs)
          : store_->transport().admit(srv.node(), attempt_start);
  AttemptPlan plan;
  switch (v.kind) {
    case rpc::FaultVerdict::Kind::deliver:
      plan.delivered = true;
      plan.extra_latency_us = v.extra_latency_us;
      return plan;
    case rpc::FaultVerdict::Kind::drop: {
      // Lost request: indistinguishable from a slow reply, so the client
      // burns the whole per-attempt deadline before concluding timeout.
      // Callers with an op budget pass the remaining-budget clamp in.
      const SimMicros deadline = attempt_deadline_us > 0
                                     ? attempt_deadline_us
                                     : store_->config().retry.attempt_deadline_us;
      plan.failed_at = attempt_start +
                       (deadline > 0 ? deadline : rpc::Transport::kDefaultDropWaitUs);
      plan.err = Errc::timeout;
      return plan;
    }
    case rpc::FaultVerdict::Kind::error:
      // The node answered with a transient error after one short round trip.
      plan.failed_at = attempt_start + 2 * net.transfer_us(request_bytes);
      plan.err = Errc::unavailable;
      return plan;
    case rpc::FaultVerdict::Kind::outage:
      // Connection refused: detected after the send attempt.
      plan.failed_at = attempt_start + net.transfer_us(request_bytes);
      plan.err = Errc::unavailable;
      return plan;
    case rpc::FaultVerdict::Kind::shed:
      // Bounced at the server's backlog bound: request out, tiny reject
      // back — fast fail, not a burned deadline.
      plan.failed_at = attempt_start + 2 * net.transfer_us(request_bytes);
      plan.err = Errc::overloaded;
      counters_.sheds_observed.inc();
      client_metrics().sheds_observed.inc();
      return plan;
  }
  plan.failed_at = attempt_start;
  plan.err = Errc::io_error;
  return plan;
}

SimMicros BlobClient::next_backoff(SimMicros* prev) {
  const RetryPolicy& rp = store_->config().retry;
  const SimMicros lo = rp.backoff_base_us;
  const SimMicros hi = std::max(lo, *prev * 3);
  SimMicros sleep = lo >= hi ? lo
                             : static_cast<SimMicros>(rng_.next_in(
                                   static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  if (rp.backoff_cap_us > 0) sleep = std::min(sleep, rp.backoff_cap_us);
  *prev = sleep;
  return sleep;
}

// --- overload resilience helpers -------------------------------------------

BlobClient::OpBudget::OpBudget(BlobClient& c, SimMicros start) : c_(&c) {
  const SimMicros budget = c.store_->config().deadline.op_deadline_us;
  if (budget > 0 && c.op_deadline_at_ == 0) {
    c.op_deadline_at_ = start + budget;
    installed_ = true;
  }
}

BlobClient::OpBudget::~OpBudget() {
  if (installed_) c_->op_deadline_at_ = 0;
}

SimMicros BlobClient::attempt_deadline_at(SimMicros t) const noexcept {
  const SimMicros policy = store_->config().retry.attempt_deadline_us;
  if (op_deadline_at_ == 0) return policy;
  const SimMicros remaining =
      op_deadline_at_ > t ? op_deadline_at_ - t : 1;
  if (policy == 0 || remaining < policy) {
    return std::max<SimMicros>(1, remaining);
  }
  return policy;
}

void BlobClient::health_on_success(std::uint32_t node, SimMicros latency_us) {
  if (!store_->config().breaker.enabled) return;
  const BreakerPolicy& bp = store_->config().breaker;
  std::lock_guard<std::mutex> lk(health_mu_);
  NodeHealth& h = health_[node];
  h.consecutive_failures = 0;
  if (latency_us > 0) {  // 0 = delivery confirmation only, no latency sample
    h.ewma_latency_us = h.samples == 0
                            ? static_cast<double>(latency_us)
                            : bp.ewma_alpha * static_cast<double>(latency_us) +
                                  (1.0 - bp.ewma_alpha) * h.ewma_latency_us;
    ++h.samples;
    fleet_ewma_us_ = fleet_samples_ == 0
                         ? static_cast<double>(latency_us)
                         : bp.ewma_alpha * static_cast<double>(latency_us) +
                               (1.0 - bp.ewma_alpha) * fleet_ewma_us_;
    ++fleet_samples_;
  }
  if (h.state == NodeHealth::Breaker::half_open) {
    if (++h.half_open_successes >= bp.half_open_probes) {
      h.state = NodeHealth::Breaker::closed;
      h.half_open_successes = 0;
      counters_.breaker_closes.inc();
      client_metrics().breaker_closes.inc();
      client_metrics().breaker_open_nodes.add(-1);
    }
  }
}

void BlobClient::health_on_failure(std::uint32_t node, SimMicros now) {
  if (!store_->config().breaker.enabled) return;
  const BreakerPolicy& bp = store_->config().breaker;
  std::lock_guard<std::mutex> lk(health_mu_);
  NodeHealth& h = health_[node];
  ++h.consecutive_failures;
  if (h.state == NodeHealth::Breaker::half_open ||
      (h.state == NodeHealth::Breaker::closed &&
       h.consecutive_failures >= bp.failure_threshold)) {
    if (h.state == NodeHealth::Breaker::closed) {
      client_metrics().breaker_open_nodes.add(1);
    }
    h.state = NodeHealth::Breaker::open;
    h.opened_at = now;
    h.half_open_successes = 0;
    counters_.breaker_opens.inc();
    client_metrics().breaker_opens.inc();
  }
}

bool BlobClient::breaker_allows(std::uint32_t node, SimMicros now) {
  if (!store_->config().breaker.enabled) return true;
  const BreakerPolicy& bp = store_->config().breaker;
  std::lock_guard<std::mutex> lk(health_mu_);
  auto it = health_.find(node);
  if (it == health_.end()) return true;
  NodeHealth& h = it->second;
  switch (h.state) {
    case NodeHealth::Breaker::closed:
      return true;
    case NodeHealth::Breaker::open:
      if (now >= h.opened_at + bp.open_cooldown_us) {
        h.state = NodeHealth::Breaker::half_open;
        h.half_open_successes = 0;
        counters_.breaker_probes.inc();
        client_metrics().breaker_probes.inc();
        return true;  // this caller is the first probe
      }
      return false;
    case NodeHealth::Breaker::half_open:
      counters_.breaker_probes.inc();
      client_metrics().breaker_probes.inc();
      return true;  // half-open admits single probes
  }
  return true;
}

bool BlobClient::is_suspect(std::uint32_t node) {
  if (!store_->config().breaker.enabled) return false;
  const BreakerPolicy& bp = store_->config().breaker;
  std::lock_guard<std::mutex> lk(health_mu_);
  auto it = health_.find(node);
  if (it == health_.end()) return false;
  const NodeHealth& h = it->second;
  if (h.state != NodeHealth::Breaker::closed) return true;
  return h.samples >= bp.suspect_min_samples && fleet_samples_ > 0 &&
         h.ewma_latency_us > bp.suspect_latency_factor * fleet_ewma_us_;
}

void BlobClient::demote_suspects(std::vector<std::uint32_t>& candidates) {
  if (!store_->config().breaker.enabled || candidates.size() < 2) return;
  // Candidates are server indices; health is keyed by SimNode id.
  const auto suspect_idx = [this](std::uint32_t server_index) {
    return is_suspect(store_->server(server_index).node().id());
  };
  const auto first_suspect =
      std::find_if(candidates.begin(), candidates.end(), suspect_idx);
  if (first_suspect == candidates.end()) return;
  std::stable_partition(
      candidates.begin(), candidates.end(),
      [&suspect_idx](std::uint32_t n) { return !suspect_idx(n); });
  counters_.breaker_demotions.inc();
  client_metrics().breaker_demotions.inc();
}

BlobClient::NodeHealth::Breaker BlobClient::breaker_state(std::uint32_t node) {
  std::lock_guard<std::mutex> lk(health_mu_);
  auto it = health_.find(node);
  return it == health_.end() ? NodeHealth::Breaker::closed : it->second.state;
}

bool BlobClient::take_retry_token() {
  std::lock_guard<std::mutex> lk(health_mu_);
  if (retry_tokens_ < 1.0) return false;
  retry_tokens_ -= 1.0;
  return true;
}

BlobClient::LegDelivery BlobClient::try_deliver(BlobServer& srv, SimMicros start,
                                                std::uint64_t request_bytes,
                                                std::uint32_t batch_subs) {
  const RetryPolicy& rp = store_->config().retry;
  const DeadlinePolicy& dp = store_->config().deadline;
  const std::uint32_t attempts = std::max<std::uint32_t>(1, rp.max_attempts);
  const std::uint32_t node = srv.node().id();
  SimMicros t = start;
  SimMicros prev = rp.backoff_base_us;
  LegDelivery out;
  // Each fresh leg earns retry tokens; each retry below spends one. The
  // bucket is client-wide, so a correlated failure drains it and retries
  // stop fleet-wide instead of amplifying the overload.
  // Guarded by health_mu_: the legs of one batched wave run on pool threads.
  const bool bucket_on = dp.retry_token_cap > 0.0;
  if (bucket_on) {
    std::lock_guard<std::mutex> lk(health_mu_);
    if (retry_tokens_ < 0.0) retry_tokens_ = dp.retry_token_cap;  // initial fill
    retry_tokens_ = std::min(dp.retry_token_cap, retry_tokens_ + dp.retry_token_ratio);
  }
  for (std::uint32_t a = 0; a < attempts; ++a) {
    if (a > 0) {
      if (bucket_on && !take_retry_token()) {
        counters_.retries_suppressed.inc();
        client_metrics().retries_suppressed.inc();
        break;
      }
      t += next_backoff(&prev);
      counters_.retries.inc();
    }
    // End-to-end budget: stop before sending an attempt the op can no
    // longer afford (spent budget means the caller already missed its
    // deadline — more attempts are pure retry amplification).
    if (op_deadline_at_ > 0 && t >= op_deadline_at_) {
      out.err = Errc::deadline_exceeded;
      counters_.deadline_exceeded.inc();
      client_metrics().deadline_exceeded.inc();
      break;
    }
    SimMicros attempt_deadline = 0;
    if (op_deadline_at_ > 0) {
      attempt_deadline = attempt_deadline_at(t);
      if (attempt_deadline < rp.attempt_deadline_us) {
        client_metrics().deadline_clamped.inc();
      }
    }
    AttemptPlan p = plan_attempt(srv, t, request_bytes, batch_subs, attempt_deadline);
    if (p.delivered) {
      out.ok = true;
      out.attempt_start = t;
      out.extra_latency_us = p.extra_latency_us;
      health_on_success(node, 0);  // latency EWMA is fed at leg completion
      return out;
    }
    health_on_failure(node, p.failed_at);
    t = p.failed_at;
    out.err = p.err;
  }
  out.failed_at = t;
  return out;
}

// ----------------------------------------------- batched striping ------

void BlobClient::cache_put(const std::string& key, MetaEntry e) {
  if (meta_cache_.size() >= kMetaCacheCap &&
      meta_cache_.find(key) == meta_cache_.end()) {
    // Blunt cap: entries are tiny and stat-verified on use, so a full reset
    // costs one extra stat round per blob, not correctness.
    meta_cache_.clear();
  }
  meta_cache_[key] = e;
}

void BlobClient::cache_erase(const std::string& key) {
  if (meta_cache_.erase(key) > 0) {
    counters_.metacache_invalidations.inc();
    client_metrics().metacache_invalidations.inc();
  }
}

Placement BlobClient::locate(const std::string& ekey) {
  if (const auto it = place_cache_.find(ekey); it != place_cache_.end()) {
    return it->second;
  }
  Placement p = store_->placement_of(ekey);
  // Only window-free placements are cacheable: a cached entry never carries
  // dual-write targets, and the stamp check catches it going stale.
  if (p.pending.empty()) {
    if (place_cache_.size() >= kMetaCacheCap &&
        place_cache_.find(ekey) == place_cache_.end()) {
      place_cache_.clear();  // same blunt cap policy as the metadata cache
    }
    place_cache_[ekey] = p;
  }
  return p;
}

void BlobClient::place_flush(const std::string& ekey) { place_cache_.erase(ekey); }

ThreadPool& BlobClient::pool() {
  if (!pool_) {
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    pool_ = std::make_unique<ThreadPool>(std::min<std::size_t>(8, hw));
  }
  return *pool_;
}

namespace {
rpc::BatchOpKind to_wire_kind(BlobServer::OpRef::Kind k) {
  switch (k) {
    case BlobServer::OpRef::Kind::write: return rpc::BatchOpKind::write;
    case BlobServer::OpRef::Kind::truncate: return rpc::BatchOpKind::truncate;
    case BlobServer::OpRef::Kind::create: return rpc::BatchOpKind::create;
    case BlobServer::OpRef::Kind::remove: return rpc::BatchOpKind::remove;
    case BlobServer::OpRef::Kind::grow: return rpc::BatchOpKind::grow;
  }
  return rpc::BatchOpKind::write;
}

std::uint64_t payload_bytes(const std::vector<BlobServer::OpRef>& ops) {
  std::uint64_t n = 0;
  for (const auto& op : ops) n += op.data.size();
  return n;
}
}  // namespace

Status BlobClient::mutation_group_leg(std::span<MutationSub* const> subs,
                                      std::optional<std::uint32_t> wave_primary,
                                      SimMicros start, SimMicros* completion) {
  using Kind = BlobServer::OpRef::Kind;
  *completion = start;
  const auto& net = store_->cluster().net();
  const bool wave = wave_primary.has_value();
  const std::uint32_t W = store_->config().write_quorum;
  for (MutationSub* sub : subs) {
    for (auto& op : sub->ops) op.key = &sub->ekey;
  }

  struct SubState {
    Placement place;    ///< replicas + dual-write targets, as locked
    bool skip = false;  ///< chunk sub whose truncate/remove target is a hole
    Version pre_version = 0;
    bool continue_versions = false;
    bool ends_removed = false;
    std::uint32_t acks = 1;  ///< the primary's ack, counted below
    std::vector<std::uint32_t> missed;
  };
  std::vector<SubState> st(subs.size());

  // Placement + lock round: resolve, take one MultiKeyLock per involved node
  // (ascending id) covering every key replicated OR dual-targeted there —
  // the same (node, stripe) global order as transaction commits and the
  // rebalancer, so none of them can deadlock — then re-resolve under the
  // held stripes. The rebalancer flips a key's migration state under those
  // same stripes, so a placement that re-reads identically is stable for the
  // rest of the leg; a mismatch means membership moved: flush, pay one
  // refresh round trip, and retry against the authoritative placement. The
  // final pass proceeds on whatever it locked: finalize()'s verify sweep
  // repairs any drift a pathological race could leave behind. A plain leg's
  // pass 0 resolves through the placement cache; wave groups were placed
  // fresh by their wave and may run on pool threads, so they never touch the
  // per-client cache.
  std::map<std::uint32_t, std::vector<std::string_view>> node_keys;
  std::vector<BlobServer::MultiKeyLock> locks;
  for (int pass = 0;; ++pass) {
    node_keys.clear();
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const std::string& ekey = subs[i]->ekey;
      st[i].place = pass == 0 && !wave ? locate(ekey) : store_->placement_of(ekey);
      const Placement& p = st[i].place;
      if (p.replicas.empty()) return {Errc::no_space, "no storage nodes in ring"};
      for (std::uint32_t n : p.replicas) node_keys[n].push_back(ekey);
      for (std::uint32_t n : p.pending) node_keys[n].push_back(ekey);
    }
    locks.clear();
    locks.reserve(node_keys.size());
    for (auto& [n, keys] : node_keys) locks.push_back(store_->server(n).lock_keys(keys));
    bool stable = true;
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const Placement fresh = store_->placement_of(subs[i]->ekey);
      const Placement& held = st[i].place;
      if (fresh.replicas == held.replicas && fresh.pending == held.pending) continue;
      stable = false;
      if (!wave) place_flush(subs[i]->ekey);
    }
    if (stable) break;
    counters_.epoch_refreshes.inc();
    client_metrics().epoch_refreshes.inc();
    if (pass >= 2) break;
    counters_.stale_epoch_retries.inc();
    client_metrics().stale_retries.inc();
    start += 2 * net.transfer_us(kProbeReq);
  }

  // Acting primary. A wave grouped its subs under `wave_primary` from
  // pre-lock placements; if a cutover moved one off it in between, the wave
  // must re-group — applying through a non-owner could strand an acked write
  // on servers about to drop it. A plain leg picks its acting primary here,
  // under its own locks, so it never needs a re-group.
  std::uint32_t primary_id = 0;
  if (wave) {
    primary_id = *wave_primary;
    for (std::size_t i = 0; i < subs.size(); ++i) {
      if (std::ranges::find(st[i].place.replicas, primary_id) == st[i].place.replicas.end()) {
        return {Errc::busy, "placement moved during batch: " + subs[i]->ekey};
      }
    }
  } else {
    const auto acting = store_->first_up(st.front().place.replicas);
    if (!acting) return {Errc::unavailable, "all replicas down: " + subs.front()->ekey};
    primary_id = *acting;
  }
  BlobServer& primary = store_->server(primary_id);

  // Applicability check against the acting primary's current state, op by
  // op (later ops see earlier ops' effects), so the apply below cannot fail
  // on one replica and succeed on another. Then one version exchange per
  // key, piggybacked on the lock round already holding every replica:
  // `pre_version` is the base a replica must hold to apply the sub (else it
  // missed earlier ops and would diverge — it gets a hint instead), and the
  // new version continues above the highest version any live replica holds,
  // so versions never regress across remove/recreate cycles and "max
  // version = freshest" stays true for quorum arbitration.
  for (std::size_t i = 0; i < subs.size(); ++i) {
    MutationSub& sub = *subs[i];
    const bool pre_exists = !primary.version_matches(sub.ekey, 0);
    bool exists = pre_exists;
    Status check = Status::success();
    for (const auto& op : sub.ops) {
      switch (op.kind) {
        case Kind::create:
          if (exists) check = {Errc::already_exists, sub.ekey};
          exists = true;
          break;
        case Kind::remove:
          if (!exists) check = {Errc::not_found, sub.ekey};
          exists = false;
          break;
        case Kind::truncate:
        case Kind::grow:
          if (!exists) check = {Errc::not_found, sub.ekey};
          break;
        case Kind::write:
          if (!exists && !sub.chunk_sub && !store_->config().write_creates) {
            check = {Errc::not_found, sub.ekey};
          }
          exists = true;
          break;
      }
      if (!check.ok()) break;
    }
    if (!check.ok()) {
      if (sub.chunk_sub) {  // an absent chunk is a hole: nothing to apply
        st[i].skip = true;
        continue;
      }
      // Pay the failed round trip to the primary (the rejection itself is a
      // tiny, delivered reply — a faulted leg would surface below anyway).
      const std::uint64_t sent = req_bytes(sub.ekey, payload_bytes(sub.ops));
      const SimMicros done = primary.node().serve(start + net.transfer_us(sent), 3);
      *completion = done + net.transfer_us(kEnvelope);
      return check;
    }
    st[i].ends_removed = !exists;
    st[i].pre_version = pre_exists ? primary.peek_version(sub.ekey).value_or(0) : 0;
    Version base = st[i].pre_version;
    BlobServer* freshest = &primary;
    for (std::uint32_t rid : st[i].place.replicas) {
      if (store_->is_down(rid)) continue;
      BlobServer& srv = store_->server(rid);
      const Version v = srv.peek_version(sub.ekey).value_or(0);
      if (v > base) {
        base = v;
        freshest = &srv;
      }
    }
    st[i].continue_versions = base > st[i].pre_version;
    // Pre-leg size for the striped layout; in quorum mode the freshest live
    // replica is authoritative (a stale primary may have missed acked writes).
    sub.pre_exists = pre_exists;
    sub.pre_size =
        pre_exists ? (W == 0 ? primary : *freshest).peek_size(sub.ekey).value_or(0) : 0;
    sub.new_version = base + sub.ops.size();
  }

  std::vector<std::size_t> run_idx;
  run_idx.reserve(subs.size());
  for (std::size_t i = 0; i < subs.size(); ++i) {
    if (!st[i].skip) run_idx.push_back(i);
  }
  if (run_idx.empty()) return Status::success();  // all holes: nothing to send

  // Wire form, decided here once. A plain leg is one request:
  // req_bytes(key, payload) out, a kEnvelope status back, one
  // Transport::admit verdict, no whole-envelope re-send. A wave group is one
  // batch envelope: one sub header per coalesced run of consecutive
  // same-kind chunks, and chunk payloads stream in parallel, as independent
  // per-chunk legs would — a vectored run is scattered at the NIC, so it is
  // charged at the largest single chunk, not the run's sum; what coalescing
  // saves is header bytes and per-sub fixed costs.
  std::uint64_t req = 0;
  std::uint64_t reply = kEnvelope;
  std::uint32_t batch_subs = 0;  // 0: plain request
  if (!wave) {
    req = req_bytes(subs.front()->ekey, payload_bytes(subs.front()->ops));
  } else {
    batch_subs = static_cast<std::uint32_t>(run_idx.size());
    req = kEnvelope;
    std::uint64_t max_payload = 0;
    std::size_t r = 0;
    while (r < run_idx.size()) {
      const MutationSub& first = *subs[run_idx[r]];
      const Kind kind = first.ops.front().kind;
      std::size_t e = r + 1;
      std::uint64_t run_max = payload_bytes(first.ops);
      while (e < run_idx.size() && subs[run_idx[e]]->ops.front().kind == kind &&
             subs[run_idx[e]]->chunk == subs[run_idx[e - 1]]->chunk + 1) {
        run_max = std::max(run_max, payload_bytes(subs[run_idx[e]]->ops));
        ++e;
      }
      const auto span = static_cast<std::uint32_t>(e - r);
      req += batch_header_bytes(first.ekey, to_wire_kind(kind), span);
      if (span >= 2) {
        counters_.coalesced_ops.inc();
        client_metrics().batch_coalesced.inc();
      }
      max_payload = std::max(max_payload, run_max);
      r = e;
    }
    req += max_payload;
    reply += run_idx.size() * batch_substatus_bytes();
    counters_.batch_envelopes.inc();
    client_metrics().batch_envelopes.inc();
    client_metrics().batch_size.add(run_idx.size());
  }
  // Bytes of one sub streamed to a forwarding replica (`first` opens the
  // forward envelope).
  const auto slice_bytes = [&](const MutationSub& sub, bool first) {
    if (!wave) return req;
    return batch_header_bytes(sub.ekey, to_wire_kind(sub.ops.front().kind), 1) +
           payload_bytes(sub.ops) + (first ? kEnvelope : 0);
  };

  // Coordinator trip: one request, one fault decision, one apply_ops, one
  // queueing trip. Nothing is applied anywhere if it fails — the leg is
  // atomically absent.
  LegDelivery prim = try_deliver(primary, start, req, batch_subs);
  if (!prim.ok && wave) {
    // One whole-envelope re-send after a fresh backoff before giving up: a
    // batch envelope represents many legs, so it earns one extra attempt
    // beyond the per-attempt retry policy (ROADMAP "batch-envelope retry
    // semantics").
    counters_.batch_retries.inc();
    client_metrics().batch_retries.inc();
    SimMicros prev = store_->config().retry.backoff_base_us;
    prim = try_deliver(primary, prim.failed_at + next_backoff(&prev), req, batch_subs);
  }
  if (!prim.ok) {
    *completion = prim.failed_at;
    return {prim.err, "primary unreachable: " + subs.front()->ekey};
  }
  // The shipped ops in sub order; run sub j's ops end at refs[op_end[j] - 1].
  std::vector<BlobServer::OpRef> refs;
  std::vector<std::size_t> op_end;
  op_end.reserve(run_idx.size());
  for (std::size_t i : run_idx) {
    refs.insert(refs.end(), subs[i]->ops.begin(), subs[i]->ops.end());
    op_end.push_back(refs.size());
  }
  SimMicros svc0 = 0;
  std::vector<SimMicros> marks(refs.size(), 0);
  Status ast = primary.apply_ops(refs.data(), refs.size(), &svc0, marks.data());
  if (ast.ok()) {
    for (std::size_t i : run_idx) {
      if (st[i].continue_versions && !st[i].ends_removed) {
        (void)primary.force_version(subs[i]->ekey, subs[i]->new_version);
      }
    }
  }
  const SimMicros prim_arrival =
      prim.attempt_start + net.transfer_us(req) + prim.extra_latency_us;
  if (!ast.ok()) {
    const SimMicros pd = primary.node().serve(prim_arrival, svc0);
    *completion = pd + net.transfer_us(reply) + prim.extra_latency_us;
    return ast;
  }
  // The request is ONE queueing trip, but subs stream out of the primary as
  // their slice of the service completes: sub j finishes at serve-start +
  // its last op's mark and its replica forwards launch right then — the
  // same pipelining independent per-chunk legs would get, without paying
  // one envelope per chunk. Chained serve() calls (same arrival, per-sub
  // deltas) leave the node's FCFS busy-until identical to one serve(total).
  std::vector<SimMicros> prim_sub_done(run_idx.size(), prim_arrival);
  SimMicros prim_done = prim_arrival;
  {
    SimMicros prev = 0;
    for (std::size_t j = 0; j < run_idx.size(); ++j) {
      const SimMicros mark = marks[op_end[j] - 1];
      prim_done = primary.node().serve(prim_arrival, mark - prev);
      prim_sub_done[j] = prim_done;
      prev = mark;
    }
  }
  SimMicros done = prim_done + net.transfer_us(reply) + prim.extra_latency_us;

  // Forward to the remaining replicas: one request per node, in replica
  // order (first appearance across the subs), pipelined off the primary's
  // apply, with the per-key freshness gate.
  std::vector<std::uint32_t> fwd_nodes;
  for (std::size_t i : run_idx) {
    for (std::uint32_t rid : st[i].place.replicas) {
      if (rid != primary_id && std::ranges::find(fwd_nodes, rid) == fwd_nodes.end()) {
        fwd_nodes.push_back(rid);
      }
    }
  }
  Errc miss_err = Errc::unavailable;
  Status fail = Status::success();
  for (std::uint32_t rid : fwd_nodes) {
    auto replicated_here = [&](std::size_t i) {
      return std::ranges::find(st[i].place.replicas, rid) != st[i].place.replicas.end();
    };
    if (store_->is_down(rid)) {
      for (std::size_t i : run_idx) {
        if (replicated_here(i)) st[i].missed.push_back(rid);
      }
      continue;
    }
    BlobServer& rep = store_->server(rid);
    std::vector<std::size_t> fwd;  // positions into run_idx
    for (std::size_t j = 0; j < run_idx.size(); ++j) {
      const std::size_t i = run_idx[j];
      if (!replicated_here(i)) continue;
      if (!rep.version_matches(subs[i]->ekey, st[i].pre_version)) {
        st[i].missed.push_back(rid);  // behind: applying would interleave
      } else {
        fwd.push_back(j);
      }
    }
    if (fwd.empty()) continue;
    if (W > 0 && !breaker_allows(rep.node().id(), prim_sub_done[fwd.front()])) {
      // Open breaker on a quorum-mode forward: convert straight to a hint
      // instead of burning the retry/timeout ladder against a replica
      // already known to be failing. Classic mode (W=0) keeps trying —
      // there every live replica must ack and no hint repair path absorbs
      // the miss.
      for (std::size_t j : fwd) st[run_idx[j]].missed.push_back(rid);
      counters_.breaker_fast_hints.inc();
      client_metrics().breaker_fast_hints.inc();
      continue;
    }
    // One forward per node (one fault decision), opened when the FIRST
    // forwarded sub streams out of the primary.
    LegDelivery d = try_deliver(rep, prim_sub_done[fwd.front()], req,
                                wave ? static_cast<std::uint32_t>(fwd.size()) : 0);
    if (!d.ok) {
      for (std::size_t j : fwd) st[run_idx[j]].missed.push_back(rid);
      miss_err = d.err;
      done = std::max(done, d.failed_at);
      continue;
    }
    std::vector<BlobServer::OpRef> frefs;
    std::vector<std::size_t> fop_end;
    fop_end.reserve(fwd.size());
    for (std::size_t j : fwd) {
      const auto& ops = subs[run_idx[j]]->ops;
      frefs.insert(frefs.end(), ops.begin(), ops.end());
      fop_end.push_back(frefs.size());
    }
    SimMicros svc = 0;
    std::vector<SimMicros> fmarks(frefs.size(), 0);
    Status rs = rep.apply_ops(frefs.data(), frefs.size(), &svc, fmarks.data());
    if (!rs.ok()) {
      fail = {Errc::io_error, "replica divergence: " + rs.message()};
      break;
    }
    for (std::size_t j : fwd) {
      const std::size_t i = run_idx[j];
      if (st[i].continue_versions && !st[i].ends_removed) {
        (void)rep.force_version(subs[i]->ekey, subs[i]->new_version);
      }
      ++st[i].acks;
    }
    // Pipelined forwarding: sub j leaves the primary at prim_sub_done[j]
    // (not at the whole group's prim_done) — or when the delivered forward
    // attempt was sent, if retries made that later — so later subs' primary
    // serves overlap earlier subs' replica serves. The replica applies each
    // sub FCFS as it lands.
    SimMicros rep_done = 0;
    SimMicros prev = 0;
    for (std::size_t k = 0; k < fwd.size(); ++k) {
      const std::size_t j = fwd[k];
      const SimMicros launch = std::max(d.attempt_start, prim_sub_done[j]);
      const SimMicros arr = launch +
                            net.transfer_us(slice_bytes(*subs[run_idx[j]], k == 0)) +
                            d.extra_latency_us;
      const SimMicros mark = fmarks[fop_end[k] - 1];
      rep_done = rep.node().serve(arr, mark - prev);
      prev = mark;
    }
    done = std::max(done, rep_done + net.transfer_us(reply) + d.extra_latency_us);
  }
  if (!fail.ok()) {
    *completion = done;
    return fail;
  }

  // Dual-write targets (open migration window): the pending new owners get
  // each applied sub too, version-gated exactly like forwarding replicas so
  // an out-of-order migration copy can never interleave histories. They are
  // NOT acks — the old set stays authoritative for quorum — and a missed or
  // down target gets a hint; finalize()'s verify sweep repairs whatever the
  // hints don't. This is what makes the write-vs-copy race safe in both
  // orders: copy-then-write lands here, write-then-copy is picked up by the
  // copy itself.
  for (std::size_t i : run_idx) {
    MutationSub& sub = *subs[i];
    for (std::uint32_t tid : st[i].place.pending) {
      if (store_->is_down(tid)) {
        if (primary.add_hint(tid, sub.ekey)) counters_.hints_written.inc();
        continue;
      }
      BlobServer& tgt = store_->server(tid);
      if (!tgt.version_matches(sub.ekey, st[i].pre_version)) continue;  // copy not landed
      const std::uint64_t dreq = req_bytes(sub.ekey, payload_bytes(sub.ops));
      LegDelivery dd = try_deliver(tgt, prim_done, dreq);
      if (!dd.ok) {
        if (primary.add_hint(tid, sub.ekey)) counters_.hints_written.inc();
        done = std::max(done, dd.failed_at);
        continue;
      }
      SimMicros dsvc = 0;
      if (!tgt.apply_ops(sub.ops.data(), sub.ops.size(), &dsvc).ok()) continue;
      if (st[i].continue_versions && !st[i].ends_removed) {
        (void)tgt.force_version(sub.ekey, sub.new_version);
      }
      counters_.dual_writes.inc();
      client_metrics().dual_writes.inc();
      if (st[i].place.windows >= 2) {
        counters_.chain_dual_writes.inc();
        client_metrics().chain_dual_writes.inc();
      }
      const SimMicros arr = dd.attempt_start + net.transfer_us(dreq) + dd.extra_latency_us;
      done = std::max(done, tgt.node().serve(arr, dsvc) + net.transfer_us(kEnvelope) +
                                dd.extra_latency_us);
    }
  }
  *completion = done;

  // Each sub is now applied at the primary regardless of its quorum outcome.
  // In quorum mode, hint every miss so the repair path knows exactly what
  // to fix; classic mode (W=0) repairs a recovered replica by the full
  // digest resync instead. Quorum: W=0 needs every live replica; W>0 needs
  // W acks, except for a sub that ENDS with the key removed — a removal must
  // reach every live replica, or a stale copy could win version arbitration
  // against "absent" (there are no tombstones).
  for (std::size_t i : run_idx) {
    if (W > 0) {
      for (std::uint32_t rid : st[i].missed) {
        if (primary.add_hint(rid, subs[i]->ekey)) counters_.hints_written.inc();
      }
    }
    bool quorum_met;
    if (W == 0 || st[i].ends_removed) {
      quorum_met = true;
      for (std::uint32_t rid : st[i].missed) {
        if (!store_->is_down(rid)) quorum_met = false;
      }
    } else {
      quorum_met = st[i].acks >=
                   std::min<std::uint32_t>(W, static_cast<std::uint32_t>(
                                                  st[i].place.replicas.size()));
    }
    if (!quorum_met) return {miss_err, "insufficient acks: " + subs[i]->ekey};
    if (!st[i].missed.empty()) counters_.quorum_degraded_writes.inc();
  }
  return Status::success();
}

Status BlobClient::plain_leg(MutationSub& sub) {
  const SimMicros start = agent_ ? agent_->now() : 0;
  SimMicros done = start;
  MutationSub* const one = &sub;
  Status st = mutation_group_leg({&one, 1}, std::nullopt, start, &done);
  if (agent_) agent_->advance_to(done);
  return st;
}

Status BlobClient::batched_mutation_wave(std::vector<MutationSub>& subs, SimMicros start) {
  if (subs.empty()) return Status::success();

  for (int pass = 0;; ++pass) {
  const std::uint64_t epoch0 = store_->ring_epoch();
  // Group by acting primary; groups are formed and ordered by chunk index —
  // deterministic batch formation, independent of execution timing.
  std::map<std::uint32_t, std::vector<MutationSub*>> by_primary;
  for (auto& s : subs) {
    const auto replicas = store_->replicas_of(s.ekey);
    if (replicas.empty()) return {Errc::no_space, "no storage nodes in ring"};
    const auto acting = store_->first_up(replicas);
    if (!acting) return {Errc::unavailable, "all replicas down: " + s.ekey};
    by_primary[*acting].push_back(&s);
  }
  struct Group {
    std::uint32_t primary = 0;
    std::vector<MutationSub*> subs;
    Status status = Status::success();
    SimMicros completion = 0;
  };
  std::vector<Group> groups;
  groups.reserve(by_primary.size());
  for (auto& [p, v] : by_primary) groups.push_back({p, std::move(v)});
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    return a.subs.front()->chunk < b.subs.front()->chunk;
  });

  // Wall-clock fan-out across per-primary groups. Every group forks from
  // `start` and the call completes at the slowest one, but the traces of the
  // two orders are not identical: groups whose replica sets share a node
  // book that node's FCFS queue in wall-clock order when fanned out, so the
  // simulated cost of a parallel wave can vary from run to run. With a fault
  // injector installed, the sequential order keeps verdict draws (and the
  // trace) deterministic.
  const bool parallel = groups.size() > 1 &&
                        store_->transport().fault_injector() == nullptr &&
                        std::thread::hardware_concurrency() > 1;
  if (parallel) {
    pool().parallel_for(groups.size(), [&](std::size_t gi) {
      Group& g = groups[gi];
      g.status = mutation_group_leg(g.subs, g.primary, start, &g.completion);
    });
  } else {
    for (Group& g : groups) {
      g.status = mutation_group_leg(g.subs, g.primary, start, &g.completion);
    }
  }
  Status st = Status::success();
  for (Group& g : groups) {
    if (agent_) agent_->advance_to(g.completion);
    if (st.ok() && !g.status.ok()) st = g.status;
  }
  // A group that saw its placement move under it (membership cutover racing
  // the wave) asks for a re-group: re-place every sub on the new ring and
  // re-run. Sub ops are content-idempotent, so re-applying an already-
  // applied sub only advances its version.
  if (st.code() == Errc::busy && store_->ring_epoch() != epoch0 && pass < 1) {
    counters_.stale_epoch_retries.inc();
    client_metrics().stale_retries.inc();
    continue;
  }
  return st;
  }
}

void BlobClient::read_group_leg(std::span<ReadSub* const> subs,
                                std::span<const std::uint32_t> candidates, bool plain,
                                SimMicros start, SimMicros* completion) {
  using SubResult = BlobServer::ReadSubResult;
  *completion = start;
  const auto& net = store_->cluster().net();
  const StoreConfig& cfg = store_->config();
  const std::size_t n = subs.size();
  // Quorum candidates actually voted: the group's candidate tuple is sized
  // for max(R, hedge target), so clamp to the subs' vote size.
  const std::uint32_t R = std::min<std::uint32_t>(
      subs.front()->votes, static_cast<std::uint32_t>(candidates.size()));

  // One sub-op per sub: a sub with a caller-buffer slice (striped) gathers
  // into it, a sub without one (a lone read) into a reply buffer sized by
  // the replica, clipped at EOF; a digest vote answers (version, digest)
  // from the extent index; a hedge stand-in is a digest vote charged like
  // the payload read it stands in for.
  struct Mode {
    bool digest = false;
    bool want_digest = false;
    bool probe_payload = false;
  };
  const auto make_op = [](ReadSub* sub, Mode mode) {
    BlobServer::ReadSubOp op;
    op.key = &sub->ekey;
    op.off = sub->off;
    op.len = sub->len;
    op.stat_only = sub->stat_only;
    if (!sub->stat_only && mode.digest) {
      op.digest_only = true;
      op.probe_payload = mode.probe_payload;
    } else if (!sub->stat_only) {
      if (sub->dst.empty()) {
        op.out = &sub->data;
      } else {
        op.dst = sub->dst;
      }
      op.want_digest = mode.want_digest;
    }
    return op;
  };

  // Wire form, decided here once: the only place `plain` shapes a request.
  // A plain request carries one sub: req_bytes(key) out for a read or vote
  // (kProbeReq for a stat), kEnvelope + payload back (kProbeResp for a stat
  // or a digest vote), served and charged as BlobServer::read()/stat(), one
  // Transport::admit verdict, no whole-envelope re-send, no batch
  // accounting. A batch envelope carries one header per coalesced run
  // (stat subs never coalesce) and is re-sent once whole before its subs
  // move; payload-vs-digest reply mode rides in the envelope flags byte,
  // part of the kEnvelope overhead. Its reply carries per-sub statuses
  // plus, on a payload envelope, the largest single chunk (chunk payloads
  // stream back in parallel, like independent per-chunk replies — a
  // vectored run gathers at the NIC, it does not serialize).
  const int resends = plain ? 0 : 1;
  const auto batch_subs = [plain](std::span<ReadSub* const> list) {
    return plain ? 0U : static_cast<std::uint32_t>(list.size());
  };
  const auto request_bytes = [&](std::span<ReadSub* const> list, std::uint32_t* coalesced) {
    *coalesced = 0;
    if (plain) return list[0]->stat_only ? kProbeReq : req_bytes(list[0]->ekey);
    std::uint64_t req = kEnvelope;
    std::size_t r = 0;
    while (r < list.size()) {
      std::size_t e = r + 1;
      while (e < list.size() && !list[r]->stat_only && !list[e]->stat_only &&
             list[e]->chunk == list[e - 1]->chunk + 1) {
        ++e;
      }
      const auto span = static_cast<std::uint32_t>(e - r);
      req += batch_header_bytes(list[r]->ekey,
                                list[r]->stat_only ? rpc::BatchOpKind::stat
                                                   : rpc::BatchOpKind::read,
                                span);
      if (span >= 2) ++(*coalesced);
      r = e;
    }
    return req;
  };
  const auto reply_bytes = [&](std::span<ReadSub* const> list,
                               std::span<const SubResult> results, bool digest_mode) {
    std::uint64_t max_chunk = 0;
    for (const auto& res : results) max_chunk = std::max(max_chunk, res.data_len);
    if (plain) {
      return list[0]->stat_only || digest_mode ? kProbeResp : kEnvelope + max_chunk;
    }
    return kEnvelope + list.size() * batch_substatus_bytes() + (digest_mode ? 0 : max_chunk);
  };
  // Serve one request on `srv` (one fault verdict already drawn), with
  // cumulative per-sub service marks.
  const auto serve = [&](BlobServer& srv, std::span<ReadSub* const> list, Mode mode,
                         std::span<SubResult> results, std::span<SimMicros> marks) {
    if (plain) {
      results[0] = srv.read_one(make_op(list[0], mode), &marks[0]);
      return;
    }
    std::vector<BlobServer::ReadSubOp> ops;
    ops.reserve(list.size());
    for (ReadSub* sub : list) ops.push_back(make_op(sub, mode));
    SimMicros svc = 0;
    srv.read_batch(ops.data(), ops.size(), results.data(), &svc, marks.data());
  };

  // One request against one candidate, into `run`: deliver, serve the subs
  // with per-sub completion marks into the caller's result rows, charge the
  // reply.
  struct CandRun {
    bool delivered = false;
    Errc err = Errc::unavailable;
    SimMicros failed_at = 0;
    SimMicros attempt_start = 0;
    SimMicros comp = 0;
    std::span<SubResult> results;
    std::span<SimMicros> sub_done;  ///< per-sub availability at the client
  };
  const auto run_envelope = [&](CandRun& run, std::uint32_t rid,
                                std::span<ReadSub* const> list, bool digest_mode,
                                bool want_digest, SimMicros at, std::span<SubResult> results,
                                std::span<SimMicros> marks) {
    BlobServer& srv = store_->server(rid);
    std::uint32_t coalesced = 0;
    const std::uint64_t reqb = request_bytes(list, &coalesced);
    const std::uint32_t nsubs = batch_subs(list);
    if (nsubs > 0) {
      counters_.batch_envelopes.inc();
      client_metrics().batch_envelopes.inc();
      client_metrics().batch_size.add(nsubs);
      counters_.coalesced_ops.add(coalesced);
      client_metrics().batch_coalesced.add(coalesced);
    }
    LegDelivery d = try_deliver(srv, at, reqb, nsubs);
    for (int i = 0; !d.ok && i < resends; ++i) {
      counters_.batch_retries.inc();
      client_metrics().batch_retries.inc();
      SimMicros prev = cfg.retry.backoff_base_us;
      d = try_deliver(srv, d.failed_at + next_backoff(&prev), reqb, nsubs);
    }
    if (!d.ok) {
      run.err = d.err;
      run.failed_at = d.failed_at;
      return;
    }
    run.delivered = true;
    run.attempt_start = d.attempt_start;
    run.results = results;
    run.sub_done = marks;
    serve(srv, list, {.digest = digest_mode, .want_digest = want_digest}, results, marks);
    const std::uint64_t reply = reply_bytes(list, results, digest_mode);
    // Chained serve: per-sub deltas leave the node's FCFS busy-until
    // identical to one serve(total); sub j streams out at its own mark
    // (same pipelining argument as mutation_group_leg). The marks turn into
    // per-sub availability times in place.
    const SimMicros arr = d.attempt_start + net.transfer_us(reqb) + d.extra_latency_us;
    const SimMicros back = net.transfer_us(reply) + d.extra_latency_us;
    SimMicros node_done = arr;
    SimMicros prev_mark = 0;
    for (SimMicros& mark : marks) {
      node_done = srv.node().serve(arr, mark - prev_mark);
      prev_mark = mark;
      mark = node_done + back;
    }
    run.comp = node_done + back;
    // Epoch stamp: a reply from a membership newer than the one a sub was
    // placed at may come from a replica its data has left; the wave re-runs.
    for (ReadSub* sub : list) {
      if (srv.ring_epoch() > sub->epoch) sub->stale = true;
    }
  };

  // An undelivered request hands its subs back to read_wave, which moves
  // them off that candidate and resends them from the failure time.
  const auto move_off = [&](std::uint32_t rid, std::span<ReadSub* const> list,
                            const CandRun& run) {
    *completion = std::max(*completion, run.failed_at);
    for (ReadSub* sub : list) {
      sub->resend = true;
      sub->unreachable = rid;
      sub->err = run.err;
      sub->ready = run.failed_at;
    }
  };

  // Fan one request to each of the R quorum candidates: full payload from
  // candidates[0], digest-only version votes from the rest, all forked from
  // the same instant — ~1x payload bytes on the wire instead of Rx. Row j
  // of the result and mark rows holds candidate j's per-sub replies; a lone
  // sub at R <= 3 keeps every row on the stack.
  SmallBuf<CandRun, 3> runs(R);
  SmallBuf<SubResult, 4> result_rows(R * n);
  SmallBuf<SimMicros, 4> mark_rows(R * n);
  const std::span<CandRun> cand = runs.span();
  for (std::uint32_t j = 0; j < R; ++j) {
    run_envelope(cand[j], candidates[j], subs, /*digest_mode=*/j > 0,
                 /*want_digest=*/R > 1, start, result_rows.span().subspan(j * n, n),
                 mark_rows.span().subspan(j * n, n));
    if (!cand[j].delivered) {
      move_off(candidates[j], subs, cand[j]);
      return;
    }
    if (j > 0) {
      counters_.quorum_probes.inc();
      client_metrics().quorum_probes.inc();
      std::uint64_t avoided = 0;
      for (const auto& res : cand[j].results) avoided = std::max(avoided, res.data_len);
      counters_.quorum_digest_savings_bytes.add(avoided);
      client_metrics().quorum_digest_savings.add(avoided);
    }
  }

  // Hedging: a payload request running past the hedge delay arms a
  // duplicate to candidates[1] at attempt_start + delay, and the client
  // takes the earlier completion when the hedged replica's per-sub versions
  // prove its payload byte-identical (at R == 1 every live replica holds
  // every acked write, so matching versions are the common case). A suspect
  // payload replica is hedged against at half the delay. The hedge is
  // served as a digest vote so the caller's buffer keeps a single writer,
  // but it is charged like the payload read it stands in for, and its reply
  // at full payload size — it is the payload that would have won.
  {
    SimMicros delay = hedge_delay();
    if (delay > 1 && is_suspect(store_->server(candidates[0]).node().id())) delay /= 2;
    if (delay > 0 && candidates.size() > 1 &&
        cand[0].comp - cand[0].attempt_start > delay) {
      counters_.hedges.inc();
      BlobServer& alt = store_->server(candidates[1]);
      const SimMicros h_start = cand[0].attempt_start + delay;
      std::uint32_t coalesced = 0;
      const std::uint64_t req = request_bytes(subs, &coalesced);
      AttemptPlan hp = plan_attempt(alt, h_start, req, batch_subs(subs));
      if (hp.delivered) {
        SmallBuf<SubResult, 4> hres_buf(n);
        SmallBuf<SimMicros, 4> hmarks_buf(n);
        const std::span<SubResult> hres = hres_buf.span();
        const std::span<SimMicros> hmarks = hmarks_buf.span();
        serve(alt, subs, {.digest = true, .probe_payload = true}, hres, hmarks);
        bool same = true;
        for (std::size_t k = 0; k < n; ++k) {
          const SubResult& r0 = cand[0].results[k];
          same = same && (subs[k]->stat_only ||
                          (hres[k].err == r0.err && hres[k].version == r0.version));
        }
        if (same) {
          const std::uint64_t reply = reply_bytes(subs, hres, /*digest_mode=*/false);
          const SimMicros harr = h_start + net.transfer_us(req) + hp.extra_latency_us;
          SimMicros hdone = harr;
          SimMicros prev_mark = 0;
          for (std::size_t k = 0; k < n; ++k) {
            hdone = alt.node().serve(harr, hmarks[k] - prev_mark);
            prev_mark = hmarks[k];
            const SimMicros avail = hdone + net.transfer_us(reply) + hp.extra_latency_us;
            cand[0].sub_done[k] = std::min(cand[0].sub_done[k], avail);
          }
          cand[0].comp = std::min(
              cand[0].comp, hdone + net.transfer_us(reply) + hp.extra_latency_us);
        }
      }
    }
  }
  // Routing rule: a plain reply's latency is one request's, so it feeds the
  // serving node's latency EWMA (gray-failure suspicion). A batch
  // envelope's latency grows with its sub count, so it would read a busy
  // node as a slow one.
  if (plain && !subs.front()->stat_only) {
    health_on_success(store_->server(candidates[0]).node().id(),
                      cand[0].comp - cand[0].attempt_start);
  }

  // A sub takes one candidate's reply, available at the client at `avail`.
  const auto take = [&](ReadSub* sub, const SubResult& res, SimMicros avail) {
    sub->err = res.err;
    sub->covered = res.covered;
    sub->size = res.size;
    sub->version = res.version;
    sub->latency_us = std::max<SimMicros>(0, avail - cand[0].attempt_start);
  };
  // Default every sub to the payload candidate's result (the payload is
  // already gathered in place).
  for (std::size_t k = 0; k < n; ++k) take(subs[k], cand[0].results[k], cand[0].sub_done[k]);
  SimMicros done = start;
  for (const CandRun& run : cand) done = std::max(done, run.comp);

  if (R > 1) {
    // Per-sub version vote across the R replies. The payload wins at the
    // max version, or below it when both its span digest and its object
    // size match the winner's (a version bump that changed neither these
    // bytes nor where the reply is clipped: a missed truncate-grow keeps
    // every extent, so only the size tells it apart); otherwise the sub is
    // stale and is re-fetched — one payload request per winning replica,
    // forked at the vote barrier, so the winning payload still crosses the
    // wire once. A stat sub takes the max-version responder's stat, and is
    // absent only when every responder reports absent.
    std::map<std::uint32_t, std::vector<ReadSub*>> refetch;  // cand idx -> subs
    for (std::size_t k = 0; k < n; ++k) {
      ReadSub* sub = subs[k];
      // A sub's reply is arbitrated once every vote for it has landed.
      SimMicros avail = 0;
      for (const CandRun& run : cand) avail = std::max(avail, run.sub_done[k]);
      sub->latency_us = std::max<SimMicros>(0, avail - cand[0].attempt_start);
      Version maxv = 0;
      std::uint32_t win = 0;
      bool any = false;
      for (std::uint32_t j = 0; j < R; ++j) {
        const SubResult& r = cand[j].results[k];
        if (r.err != Errc::ok) continue;
        if (!any || r.version > maxv) {
          any = true;
          maxv = r.version;
          win = j;
        }
      }
      const SubResult& rw = cand[win].results[k];
      if (sub->stat_only) {
        sub->err = any ? Errc::ok : Errc::not_found;
        sub->size = any ? rw.size : 0;
        sub->version = maxv;
        continue;
      }
      if (!any) continue;  // absent everywhere: the chunk is a hole
      const SubResult& r0 = cand[0].results[k];
      if (r0.err == Errc::ok &&
          (r0.version >= maxv ||
           (r0.digest != 0 && r0.digest == rw.digest && r0.size == rw.size))) {
        sub->version = maxv;
        counters_.quorum_winners.inc();
        client_metrics().quorum_winners.inc();
        continue;
      }
      refetch[win].push_back(sub);
    }

    for (auto& [win, list] : refetch) {
      // The stale payload may cover spans the fresh version leaves as
      // holes; re-zero before gathering so read_into's pre-zeroed-dst
      // contract holds.
      for (ReadSub* sub : list) std::fill(sub->dst.begin(), sub->dst.end(), std::byte{0});
      SmallBuf<SubResult, 4> rres(list.size());
      SmallBuf<SimMicros, 4> rmarks(list.size());
      CandRun rr;
      run_envelope(rr, candidates[win], list, /*digest_mode=*/false, /*want_digest=*/false,
                   done, rres.span(), rmarks.span());
      if (!rr.delivered) {
        move_off(candidates[win], list, rr);
        continue;
      }
      for (std::size_t i = 0; i < list.size(); ++i) {
        take(list[i], rr.results[i], rr.sub_done[i]);
        counters_.quorum_refetches.inc();
        client_metrics().quorum_refetches.inc();
      }
      done = std::max(done, rr.comp);
    }
  }

  *completion = std::max(*completion, done);
}

Status BlobClient::read_wave(std::span<ReadSub* const> subs, bool plain) {
  const StoreConfig& cfg = store_->config();
  const std::uint32_t R = cfg.read_quorum();
  // A group's candidate tuple: its R vote replicas, plus a hedge target.
  const std::size_t K = std::max<std::uint32_t>(R, cfg.hedge.enabled ? 2 : 1);
  const SimMicros start = agent_ ? agent_->now() : 0;
  SimMicros done = start;
  Status fail = Status::success();
  for (int pass = 0;; ++pass) {
    // Candidates are the live replicas in replica order; a lone sub reads
    // the placement cache first and puts suspects last (the routing rules
    // in read_wave's doc).
    for (ReadSub* sub : subs) {
      Placement p = plain && pass == 0 ? locate(sub->ekey) : store_->placement_of(sub->ekey);
      if (p.replicas.empty()) {
        fail = {Errc::no_space, "no storage nodes in ring"};
        break;
      }
      sub->replicas = std::move(p.replicas);
      std::erase_if(sub->replicas, [this](std::uint32_t rid) { return store_->is_down(rid); });
      if (sub->replicas.empty()) {
        fail = {Errc::unavailable, "all replicas down: " + sub->ekey};
        break;
      }
      if (plain) demote_suspects(sub->replicas);
      sub->votes = std::min<std::uint32_t>(R, static_cast<std::uint32_t>(sub->replicas.size()));
      sub->epoch = p.epoch;
      sub->ready = done;
      sub->resend = true;
      sub->stale = false;
      if (pass > 0) std::fill(sub->dst.begin(), sub->dst.end(), std::byte{0});
    }

    while (fail.ok()) {
      // Group the subs to (re)send by candidate tuple, in sub (chunk) order:
      // deterministic, independent of timing. Subs sharing a tuple share
      // all of its requests, so a group costs its candidates' queueing
      // trips regardless of its sub count. The group lists are scratch
      // reused across waves (read_wave runs on the client's own thread and
      // never nests).
      const auto tuple_of = [K](const ReadSub* sub) {
        return std::span<const std::uint32_t>(sub->replicas)
            .first(std::min(K, sub->replicas.size()));
      };
      std::vector<ReadGroup>& groups = wave_groups_;
      std::vector<ReadSub*>& order = wave_order_;
      groups.clear();
      order.clear();
      for (ReadSub* sub : subs) {
        if (sub->resend && std::ranges::none_of(groups, [&](const ReadGroup& g) {
              return std::ranges::equal(g.candidates, tuple_of(sub));
            })) {
          groups.push_back({.candidates = tuple_of(sub)});
        }
      }
      if (groups.empty()) break;
      for (ReadGroup& g : groups) {
        const std::size_t first = order.size();
        for (ReadSub* sub : subs) {
          if (!sub->resend || !std::ranges::equal(g.candidates, tuple_of(sub))) continue;
          order.push_back(sub);
          g.start = std::max(g.start, sub->ready);
        }
        g.first = first;
        g.count = order.size() - first;
      }
      for (ReadSub* sub : subs) sub->resend = false;
      // Wall-clock fan-out across groups; with a fault injector installed,
      // the sequential order keeps verdict draws deterministic. Groups that
      // share a node book its queue in wall-clock order when fanned out.
      const bool parallel = groups.size() > 1 &&
                            store_->transport().fault_injector() == nullptr &&
                            std::thread::hardware_concurrency() > 1;
      const auto run = [&](ReadGroup& g) {
        read_group_leg(std::span<ReadSub* const>(order).subspan(g.first, g.count), g.candidates,
                       plain, g.start, &g.completion);
      };
      if (parallel) {
        pool().parallel_for(groups.size(), [&](std::size_t gi) { run(groups[gi]); });
      } else {
        for (ReadGroup& g : groups) run(g);
      }
      for (const ReadGroup& g : groups) done = std::max(done, g.completion);

      // The one failover rule: every sub of an undelivered request moves off
      // that candidate to its own next live replica, suspects last, and is
      // resent, regrouped, from the failure time; a sub left with fewer
      // live replicas than its vote needs fails the read.
      for (ReadSub* sub : subs) {
        if (!sub->resend) continue;
        std::erase(sub->replicas, sub->unreachable);
        if (sub->replicas.size() < std::max<std::uint32_t>(1, sub->votes)) {
          fail = {sub->err,
                  (sub->votes > 1 ? "read quorum unreachable: " : "unreachable: ") + sub->ekey};
          break;
        }
        demote_suspects(sub->replicas);
        counters_.failovers.inc();
        // An earlier candidate of its group may already have gathered into it.
        std::fill(sub->dst.begin(), sub->dst.end(), std::byte{0});
      }
    }

    // The one epoch rule: a reply stamped with a ring epoch newer than the
    // one a sub was placed at means membership moved under the placement —
    // the data may have left the replica that answered. Flush, re-place
    // and re-run the wave from its completion (the wasted round is paid).
    const bool stale = std::ranges::any_of(subs, [](const ReadSub* s) { return s->stale; });
    if (!fail.ok() || !stale || pass >= 2) break;
    for (ReadSub* sub : subs) place_flush(sub->ekey);
    counters_.epoch_refreshes.inc();
    client_metrics().epoch_refreshes.inc();
    counters_.stale_epoch_retries.inc();
    client_metrics().stale_retries.inc();
  }
  if (agent_) agent_->advance_to(done);
  // Completion marks feed the hedging histogram after the barrier, on the
  // caller's thread (the histogram is not thread-safe and groups may fan
  // out on the pool).
  for (const ReadSub* sub : subs) {
    if (!sub->stat_only && sub->latency_us > 0) {
      read_latency_.add(static_cast<std::uint64_t>(sub->latency_us));
    }
  }
  return fail;
}

Status BlobClient::lone_leg(ReadSub& sub) {
  ReadSub* const one = &sub;
  Status st = read_wave({&one, 1}, /*plain=*/true);
  if (st.ok() && sub.err != Errc::ok) return {sub.err, sub.ekey};
  return st;
}

SimMicros BlobClient::hedge_delay() const {
  const HedgePolicy& h = store_->config().hedge;
  if (!h.enabled) return 0;
  if (read_latency_.count() >= h.min_samples) {
    return static_cast<SimMicros>(read_latency_.percentile(h.percentile));
  }
  return h.fixed_delay_us;
}

Status BlobClient::create(std::string_view key) {
  counters_.creates.inc();
  PrimTimer timer(client_metrics().create, agent_, key);
  OpBudget budget(*this, agent_ ? agent_->now() : 0);
  if (key.empty()) return {Errc::invalid_argument, "empty blob key"};
  cache_erase(std::string{key});
  MutationSub sub{.ekey = std::string{key}, .ops = {{BlobServer::OpRef::Kind::create}}};
  return plain_leg(sub);
}

Status BlobClient::remove(std::string_view key) {
  counters_.removes.inc();
  PrimTimer timer(client_metrics().remove, agent_, key);
  OpBudget budget(*this, agent_ ? agent_->now() : 0);
  const std::uint64_t cb = store_->config().chunk_bytes;
  const std::string base{key};

  // Remove chunk 0 first: its leg reports the pre-image logical size, which
  // plans the sweep of the chunk keys c >= 1 in per-primary batch envelopes
  // with tolerated not_found (hole chunks have no stored key).
  const SimMicros start = agent_ ? agent_->now() : 0;
  MutationSub base_sub{.ekey = base, .ops = {{BlobServer::OpRef::Kind::remove}}};
  Status st = plain_leg(base_sub);
  if (st.ok() && cb > 0 && base_sub.pre_size > cb) {
    std::vector<MutationSub> subs;
    const std::uint64_t chunks = (base_sub.pre_size + cb - 1) / cb;
    for (std::uint64_t c = 1; c < chunks; ++c) {
      subs.push_back({.ekey = chunk_engine_key(key, c),
                      .chunk = c,
                      .ops = {{BlobServer::OpRef::Kind::remove}},
                      .chunk_sub = true});
    }
    st = batched_mutation_wave(subs, start);
  }
  cache_erase(base);
  return st;
}

Result<Bytes> BlobClient::read(std::string_view key, std::uint64_t offset,
                               std::uint64_t len, BlobStat* served) {
  counters_.reads.inc();
  PrimTimer timer(client_metrics().read, agent_, key);
  OpBudget budget(*this, agent_ ? agent_->now() : 0);
  const std::uint64_t cb = store_->config().chunk_bytes;
  // bytes_read counts extent-backed bytes only; zero-filled hole bytes in
  // the returned span are accounted separately in read_hole_bytes.
  const auto account = [this](std::uint64_t returned, std::uint64_t covered) {
    counters_.bytes_read.add(covered);
    counters_.read_hole_bytes.add(returned - covered);
    client_metrics().read_bytes.add(returned);
    client_metrics().read_hole_bytes.add(returned - covered);
  };
  if (cb == 0 || (len <= cb && offset <= cb - len)) {
    // A lone read: one plain request, its reply clipped at EOF.
    ReadSub sub{.ekey = std::string{key}, .off = offset, .len = len};
    Status st = lone_leg(sub);
    if (!st.ok()) return st.error();
    if (served) *served = {sub.ekey, sub.size, sub.version};
    account(sub.data.size(), sub.covered);
    return std::move(sub.data);
  }

  // Striped read: chunk sub-ops grouped by candidate replica set, one batch
  // envelope per candidate (R > 1 and hedged reads arbitrate per-sub versions
  // inside the envelopes, see read_group_leg). The client metadata cache
  // supplies the layout — a miss pays one stat round, which is the complete
  // answer for an absent blob; a stat sub piggybacked on the data envelopes
  // verifies it (mismatch = relayout and re-read).
  const std::string base{key};
  auto cached = cached_stat(base);
  if (!cached.ok()) return cached.error();
  MetaEntry entry{cached.value().size, cached.value().version};

  for (int attempt = 0;; ++attempt) {
    const std::uint64_t logical = entry.logical;
    const std::uint64_t rlen =
        offset < logical ? std::min(len, logical - offset) : 0;
    if (rlen == 0) {
      // At/after EOF per the cached size: verify with one stat round (there
      // is no data envelope to piggyback on) instead of shipping a
      // full-length probe leg.
      ReadSub stat{.ekey = base, .stat_only = true};
      Status st = lone_leg(stat);
      if (!st.ok()) {
        cache_erase(base);
        return st.error();
      }
      entry = {stat.size, stat.version};
      cache_put(base, entry);
      if (attempt < 2 && offset < stat.size) continue;  // stale: there is data after all
      if (served) *served = {base, stat.size, stat.version};
      client_metrics().read_bytes.add(0);
      return Bytes{};
    }

    Bytes out(rlen, std::byte{0});  // holes and absent chunks read as zero
    const std::uint64_t end = offset + rlen;
    std::vector<ReadSub> subs;
    subs.reserve(end / cb - offset / cb + 2);
    for (std::uint64_t c = offset / cb; c * cb < end; ++c) {
      const std::uint64_t lo = std::max(offset, c * cb);
      const std::uint64_t hi = std::min(end, (c + 1) * cb);
      subs.push_back({.ekey = chunk_engine_key(key, c),
                      .chunk = c,
                      .off = lo - c * cb,
                      .len = hi - lo,
                      .dst = MutableByteView{out}.subspan(lo - offset, hi - lo)});
    }
    // Cache-verification stat of the base key, piggybacked on the group
    // whose primary holds chunk 0 (or a mini-group of its own otherwise).
    // The chunk sentinel never coalesces and stays last in its group.
    subs.push_back({.ekey = base, .chunk = ~0ULL, .stat_only = true});
    std::vector<ReadSub*> ptrs;
    ptrs.reserve(subs.size());
    for (ReadSub& s : subs) ptrs.push_back(&s);
    Status st = read_wave(ptrs, /*plain=*/false);
    if (!st.ok()) return st.error();

    const ReadSub& vstat = subs.back();
    if (vstat.err == Errc::not_found) {
      cache_erase(base);
      return {Errc::not_found, base};
    }
    if (vstat.size != logical && attempt < 2) {
      // Size drifted (concurrent truncate/recreate): relayout and re-read.
      counters_.metacache_invalidations.inc();
      client_metrics().metacache_invalidations.inc();
      entry = {vstat.size, vstat.version};
      cache_put(base, entry);
      continue;
    }
    if (vstat.version != entry.v0 || vstat.size != logical) {
      // Version-only drift (or a still-moving size on the final attempt):
      // the chunk data just read is current as of its serve; refresh the
      // entry and accept.
      cache_put(base, {vstat.size, vstat.version});
    }

    std::uint64_t covered = 0;
    for (const auto& s : subs) {
      if (s.stat_only) continue;
      if (s.err != Errc::ok && s.err != Errc::not_found) return {s.err, s.ekey};
      covered += s.covered;
    }
    if (served) *served = {base, vstat.size, vstat.version};
    account(rlen, covered);
    return out;
  }
}

Result<BlobStat> BlobClient::cached_stat(const std::string& base) {
  // Same cache lookup/invalidate discipline as the read paths: a hit
  // answers from the client-held {logical size, chunk-0 version} entry with
  // zero rounds (the entry is erased by every local mutation and verified
  // against a replica by every striped read); a miss pays one stat round
  // and primes the cache. Absent blobs are not cached — a stat after a
  // failed stat pays the round again, matching read-path probe economy.
  if (const auto it = meta_cache_.find(base); it != meta_cache_.end()) {
    counters_.metacache_hits.inc();
    client_metrics().metacache_hits.inc();
    return BlobStat{base, it->second.logical, it->second.v0};
  }
  counters_.metacache_misses.inc();
  client_metrics().metacache_misses.inc();
  ReadSub sub{.ekey = base, .stat_only = true};
  Status st = lone_leg(sub);
  if (!st.ok()) return st.error();
  cache_put(base, {sub.size, sub.version});
  return BlobStat{base, sub.size, sub.version};
}

Result<std::uint64_t> BlobClient::size(std::string_view key) {
  counters_.sizes.inc();
  PrimTimer timer(client_metrics().size, agent_, key);
  OpBudget budget(*this, agent_ ? agent_->now() : 0);
  // Chunk 0 carries the full logical size of a striped blob.
  auto s = cached_stat(std::string{key});
  if (!s.ok()) return s.error();
  return s.value().size;
}

Result<BlobStat> BlobClient::stat(std::string_view key) {
  PrimTimer timer(client_metrics().stat, agent_, key);
  OpBudget budget(*this, agent_ ? agent_->now() : 0);
  return cached_stat(std::string{key});
}

bool BlobClient::exists(std::string_view key) { return stat(key).ok(); }

Result<std::uint64_t> BlobClient::write(std::string_view key, std::uint64_t offset,
                                        ByteView data) {
  counters_.writes.inc();
  PrimTimer timer(client_metrics().write, agent_, key);
  OpBudget budget(*this, agent_ ? agent_->now() : 0);
  if (key.empty()) return {Errc::invalid_argument, "empty blob key"};
  const std::uint64_t cb = store_->config().chunk_bytes;
  const std::uint64_t end = offset + data.size();
  if (cb == 0 || end <= cb) {
    // Single-chunk fast path. Any cached size/version for this key is stale
    // the moment the mutation lands.
    cache_erase(std::string{key});
    MutationSub sub{.ekey = std::string{key}, .ops = {write_op(offset, data)}};
    Status st = plain_leg(sub);
    if (!st.ok()) return st.error();
    counters_.bytes_written.add(data.size());
    client_metrics().write_bytes.add(data.size());
    return data.size();
  }

  // Striped write: slice the range over fixed-size chunks. The base leg
  // (chunk 0) carries its slice — or an empty creating write when the range
  // starts past chunk 0 — plus a grow() keeping the full logical size on the
  // chunk-0 record. It runs first (it owns create semantics); the remaining
  // chunk legs travel as per-primary batch envelopes forked from the same
  // simulated instant (scatter-gather: the ack waits for the slowest leg).
  const std::string base{key};
  const SimMicros start = agent_ ? agent_->now() : 0;
  const ByteView base_slice =
      offset < cb ? data.subspan(0, std::min(end, cb) - offset) : ByteView{};
  MutationSub base_sub{.ekey = base,
                       .ops = {write_op(offset < cb ? offset : 0, base_slice),
                               {BlobServer::OpRef::Kind::grow, nullptr, 0, {}, end}}};
  Status st = plain_leg(base_sub);

  // Chunk legs c >= 1: one queueing trip, one lock round, one fault decision
  // per acting primary. The wave creates chunk keys on demand — the base leg
  // already enforced write_creates for the application-visible blob.
  if (st.ok()) {
    std::vector<MutationSub> subs;
    for (std::uint64_t c = std::max<std::uint64_t>(1, offset / cb); c * cb < end; ++c) {
      const std::uint64_t lo = std::max(offset, c * cb);
      const std::uint64_t hi = std::min(end, (c + 1) * cb);
      subs.push_back({.ekey = chunk_engine_key(key, c),
                      .chunk = c,
                      .ops = {write_op(lo - c * cb, data.subspan(lo - offset, hi - lo))},
                      .chunk_sub = true});
    }
    st = batched_mutation_wave(subs, start);
  }
  if (!st.ok()) {
    cache_erase(base);
    return st.error();
  }
  // The base leg told us the pre-image size and the version it installed:
  // enough to refresh the metadata cache without another round.
  cache_put(base, {std::max(base_sub.pre_size, end), base_sub.new_version});
  counters_.bytes_written.add(data.size());
  client_metrics().write_bytes.add(data.size());
  return data.size();
}

Status BlobClient::truncate(std::string_view key, std::uint64_t new_size) {
  counters_.truncates.inc();
  PrimTimer timer(client_metrics().truncate, agent_, key);
  OpBudget budget(*this, agent_ ? agent_->now() : 0);
  const std::uint64_t cb = store_->config().chunk_bytes;
  const std::string base{key};

  // The base leg is a plain truncate to new_size (chunk 0's record carries
  // the logical size: shrinking below chunk_bytes drops data extents, any
  // other target only moves the logical length) and reports the pre-image
  // size, which plans the chunk wave. Chunks entirely past the new end
  // become tolerated removes; the straddling chunk is trimmed.
  const SimMicros start = agent_ ? agent_->now() : 0;
  MutationSub base_sub{.ekey = base,
                       .ops = {{BlobServer::OpRef::Kind::truncate, nullptr, 0, {}, new_size}}};
  Status st = plain_leg(base_sub);
  const std::uint64_t chunks =
      cb == 0 ? 0 : (std::max(base_sub.pre_size, new_size) + cb - 1) / cb;
  if (st.ok() && chunks > 1) {
    std::vector<MutationSub> subs;
    for (std::uint64_t c = 1; c < chunks; ++c) {
      const std::uint64_t cstart = c * cb;
      BlobServer::OpRef op{BlobServer::OpRef::Kind::remove};
      if (cstart < new_size) {
        if (new_size >= cstart + cb) continue;  // chunk fully below the new end
        op = {BlobServer::OpRef::Kind::truncate, nullptr, 0, {}, new_size - cstart};
      }
      subs.push_back({.ekey = chunk_engine_key(key, c), .chunk = c, .ops = {op},
                      .chunk_sub = true});  // hole chunks have no stored key
    }
    st = batched_mutation_wave(subs, start);
  }
  if (!st.ok()) {
    cache_erase(base);
    return st;
  }
  cache_put(base, {new_size, base_sub.new_version});
  return st;
}

Result<std::vector<BlobStat>> BlobClient::scan(std::string_view prefix) {
  counters_.scans.inc();
  PrimTimer timer(client_metrics().scan, agent_, prefix);
  OpBudget budget(*this, agent_ ? agent_->now() : 0);
  const auto& net = store_->cluster().net();
  const SimMicros start = agent_ ? agent_->now() : 0;
  const std::string pfx{prefix};

  // Fan out to every server in parallel; merge + dedupe (replicas hold
  // copies of the same key) and present a sorted global namespace view.
  // Internal chunk keys are implementation detail — hidden from the
  // namespace (their bytes are reported via chunk 0's logical size).
  // Namespace enumeration is management-plane traffic on the reliable
  // channel: a scan's answer is best-effort by nature (it merges whatever
  // the live servers hold), so injected faults add nothing to test here.
  std::map<std::string, BlobStat> merged;
  SimMicros done = start;
  for (std::size_t i = 0; i < store_->server_count(); ++i) {
    if (store_->is_down(static_cast<std::uint32_t>(i))) continue;
    BlobServer& s = store_->server(i);
    SimMicros svc = 0;
    auto part = s.scan(pfx, &svc);
    const SimMicros arr = start + net.transfer_us(req_bytes(prefix));
    std::uint64_t resp = kEnvelope;
    for (auto& bs : part) resp += bs.key.size() + 16;
    const SimMicros fin = s.node().serve(arr, svc) + net.transfer_us(resp);
    done = std::max(done, fin);
    for (auto& bs : part) {
      if (is_chunk_key(bs.key)) continue;
      auto [it, inserted] = merged.try_emplace(bs.key, bs);
      if (!inserted && bs.version > it->second.version) it->second = bs;
    }
  }
  if (agent_) agent_->advance_to(done);

  std::vector<BlobStat> out;
  out.reserve(merged.size());
  for (auto& [k, v] : merged) out.push_back(std::move(v));
  return out;
}

BlobTransaction BlobClient::begin_transaction() { return BlobTransaction(*this); }

// ---------------------------------------------------------------- txn ----

BlobTransaction& BlobTransaction::write(std::string_view key, std::uint64_t offset,
                                        ByteView data) {
  // write_op makes the one copy of the caller's bytes (they may change or
  // die before commit); every server's engine references it.
  ops_.push_back(write_op(offset, data, &keys_.emplace_back(key)));
  return *this;
}

BlobTransaction& BlobTransaction::truncate(std::string_view key, std::uint64_t new_size) {
  ops_.push_back(
      {BlobServer::OpRef::Kind::truncate, &keys_.emplace_back(key), 0, {}, new_size});
  return *this;
}

BlobTransaction& BlobTransaction::create(std::string_view key) {
  ops_.push_back({BlobServer::OpRef::Kind::create, &keys_.emplace_back(key)});
  return *this;
}

BlobTransaction& BlobTransaction::remove(std::string_view key) {
  ops_.push_back({BlobServer::OpRef::Kind::remove, &keys_.emplace_back(key)});
  return *this;
}

BlobTransaction& BlobTransaction::expect_version(std::string_view key, Version version) {
  preconditions_.emplace_back(std::string{key}, version);
  return *this;
}

Status BlobTransaction::commit() {
  BlobClient& c = *client_;
  BlobClient::OpBudget budget(c, c.agent() ? c.agent()->now() : 0);
  // Both branches must already be string_views: a ""/std::string ternary
  // would materialize a temporary string that dies here while the timer's
  // view of it lives until end of commit().
  PrimTimer timer(client_metrics().txn, c.agent(),
                  ops_.empty() ? std::string_view{}
                               : std::string_view{*ops_.front().key});
  if (ops_.empty()) return Status::success();
  BlobStore& store = c.store();
  const std::uint32_t W = store.config().write_quorum;
  // Transactional ops address the key itself, i.e. chunk 0: a range or size
  // past chunk_bytes would land bytes that read() looks for in chunk keys.
  const std::uint64_t cb = store.config().chunk_bytes;
  for (const auto& op : ops_) {
    const std::uint64_t end =
        op.kind == BlobServer::OpRef::Kind::write ? op.offset + op.data.size() : op.new_size;
    if (cb > 0 && end > cb) {
      return {Errc::invalid_argument, "transaction op past chunk_bytes: " + *op.key};
    }
  }

  // Involved servers (ascending id): every replica of every touched key.
  // Each server's batch copies the transaction's ops, which share their key
  // and payload buffer, never copy them.
  std::map<std::uint32_t, std::vector<BlobServer::OpRef>> per_server;
  std::uint64_t payload = 0;
  for (const auto& op : ops_) {
    payload += op.key->size() + op.data.size() + 24;
    for (std::uint32_t n : store.replicas_of(*op.key)) per_server[n].push_back(op);
  }
  if (per_server.empty()) return {Errc::no_space, "no storage nodes in ring"};

  // Lock phase: whole-server exclusive locks in ascending node id order —
  // the one global order shared with the per-key mutation path, which rules
  // out deadlock between concurrent transactions and striped writers alike.
  // The commit protocol itself runs on the reliable channel (Týr's commit
  // rounds carry their own acknowledgment/retry machinery); what failures
  // leave behind is modeled by the version gating below.
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(per_server.size());
  for (const auto& [n, ops] : per_server) locks.push_back(store.server(n).lock_exclusive());

  const auto& net = store.cluster().net();
  sim::SimAgent* agent = c.agent();
  const SimMicros start = agent ? agent->now() : 0;

  // Prepare round: small validation message to every involved server.
  SimMicros prepare_done = start;
  for (const auto& [n, ops] : per_server) {
    const SimMicros arr = start + net.transfer_us(64);
    prepare_done = std::max(prepare_done, store.server(n).node().serve(arr, 3));
  }

  // Authoritative per-key version: the freshest live replica (in classic
  // mode every live replica agrees; in quorum mode stale replicas may lag).
  std::set<std::string> touched;
  for (const auto& op : ops_) touched.insert(*op.key);
  // A committed transaction bumps versions behind the metadata cache's back;
  // dropping the entries before application covers every outcome.
  for (const std::string& k : touched) c.cache_erase(k);
  std::map<std::string, Version> auth;
  std::map<std::string, std::uint32_t> auth_holder;
  for (const std::string& key : touched) {
    const auto reps = store.replicas_of(key);
    const auto acting = store.first_up(reps);
    if (!acting) {
      if (agent) agent->advance_to(prepare_done + net.transfer_us(32));
      return {Errc::unavailable, "all replicas down: " + key};
    }
    Version v = 0;
    std::uint32_t holder = *acting;
    for (std::uint32_t r : reps) {
      if (store.is_down(r)) continue;
      auto rv = store.server(r).peek_version(key);
      if (rv.ok() && rv.value() > v) {
        v = rv.value();
        holder = r;
      }
    }
    auth[key] = v;
    auth_holder[key] = holder;
  }

  // Precondition validation against the authoritative versions.
  for (const auto& [key, expected] : preconditions_) {
    const Version have = auth.count(key) ? auth[key] : [&] {
      Version v = 0;
      for (std::uint32_t r : store.replicas_of(key)) {
        if (store.is_down(r)) continue;
        auto rv = store.server(r).peek_version(key);
        if (rv.ok()) v = std::max(v, rv.value());
      }
      return v;
    }();
    if (have != expected) {
      if (agent) agent->advance_to(prepare_done + net.transfer_us(32));
      return {Errc::conflict, "precondition failed: " + key};
    }
  }

  // Applicability validation against the pre-transaction state, so the
  // commit round below cannot fail halfway (all-or-nothing). Ops within one
  // transaction apply in order on every server, so a create followed by
  // ops on the same key is fine; validation only checks the initial state.
  std::set<std::string> created_in_txn;
  for (const auto& op : ops_) {
    const bool pre_exists = [&] {
      const std::uint32_t holder = auth_holder[*op.key];
      return !store.server(holder).version_matches(*op.key, 0);
    }();
    const bool exists = pre_exists || created_in_txn.count(*op.key) != 0;
    bool applicable = true;
    switch (op.kind) {
      case BlobServer::OpRef::Kind::create:
        applicable = !exists;
        created_in_txn.insert(*op.key);
        break;
      case BlobServer::OpRef::Kind::remove:
      case BlobServer::OpRef::Kind::truncate:
      case BlobServer::OpRef::Kind::grow:
        applicable = exists;
        break;
      case BlobServer::OpRef::Kind::write:
        created_in_txn.insert(*op.key);  // auto-creates
        break;
    }
    if (!applicable) {
      if (agent) agent->advance_to(prepare_done + net.transfer_us(32));
      return {Errc::conflict, "inapplicable op on: " + *op.key};
    }
  }

  // Freshness gate: a replica applies a key's ops only from the
  // authoritative version (else histories would interleave). Because the
  // exclusive locks freeze every version, ack counts are known BEFORE
  // anything applies — an under-replicated key aborts the whole
  // transaction atomically instead of committing partially.
  std::map<std::uint32_t, std::set<std::string>> stale;  // server -> gated keys
  for (const std::string& key : touched) {
    std::uint32_t acks = 0;
    std::uint32_t live = 0;
    const auto reps = store.replicas_of(key);
    for (std::uint32_t r : reps) {
      if (store.is_down(r)) continue;
      ++live;
      auto rv = store.server(r).peek_version(key);
      const Version have = rv.ok() ? rv.value() : 0;
      if (have == auth[key]) {
        ++acks;
      } else {
        stale[r].insert(key);
      }
    }
    const std::uint32_t need =
        (W == 0) ? live : std::min<std::uint32_t>(W, static_cast<std::uint32_t>(reps.size()));
    if (acks < need || acks == 0) {
      if (agent) agent->advance_to(prepare_done + net.transfer_us(32));
      return {Errc::unavailable, "insufficient fresh replicas: " + key};
    }
  }

  // Commit round: apply the batch on every involved fresh server; gated
  // (stale) replicas are hinted for repair instead.
  SimMicros commit_done = prepare_done;
  Status failure = Status::success();
  std::map<std::string, std::uint64_t> key_op_count;
  for (const auto& op : ops_) ++key_op_count[*op.key];
  for (auto& [n, server_ops] : per_server) {
    if (store.is_down(n)) continue;  // degraded commit; resync repairs later
    std::vector<BlobServer::OpRef> runnable;
    const auto& gated = stale.count(n) ? stale[n] : std::set<std::string>{};
    for (const auto& op : server_ops) {
      if (!gated.count(*op.key)) runnable.push_back(op);
    }
    for (const std::string& key : gated) {
      if (W > 0 && store.server(auth_holder[key]).add_hint(n, key)) {
        c.counters_.hints_written.inc();
      }
    }
    if (runnable.empty()) continue;
    SimMicros svc = 0;
    Status st = store.server(n).apply_ops(runnable.data(), runnable.size(), &svc);
    if (!st.ok() && failure.ok()) failure = st;
    // Version continuation: a remove+recreate inside the transaction resets
    // the engine version, which could lose arbitration against a stale
    // copy. Lift such keys to a floor above every pre-commit version. Plain
    // mutations already land above the floor — no extra journaling.
    if (st.ok()) {
      std::set<std::string> seen;
      for (const auto& op : runnable) {
        const std::string& key = *op.key;
        if (!seen.insert(key).second) continue;
        const Version floor = auth[key] + key_op_count[key];
        auto pv = store.server(n).peek_version(key);
        if (pv.ok() && pv.value() < floor) {
          (void)store.server(n).force_version(key, floor);
        }
      }
    }
    const SimMicros arr = prepare_done + net.transfer_us(64 + payload);
    commit_done = std::max(commit_done, store.server(n).node().serve(arr, svc));
  }
  if (agent) agent->advance_to(commit_done + net.transfer_us(32));
  return failure;
}

}  // namespace bsc::blob
