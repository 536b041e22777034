#include "blob/server.hpp"

#include <cmath>

#include "common/hash.hpp"
#include "obs/metrics.hpp"

namespace bsc::blob {

namespace {
/// Registry series of one server-side op (calls + simulated service time).
struct OpSeries {
  obs::Counter& calls;
  obs::ShardedHistogram& service_us;
};

OpSeries make_op(const char* op) {
  auto& reg = obs::MetricsRegistry::global();
  const std::string base = std::string{"server."} + op;
  return OpSeries{reg.counter(base + ".calls"), reg.histogram(base + ".service_us")};
}

/// All server series, aggregated across every BlobServer instance in the
/// process (per-server decomposition stays with the stripe counter arrays).
struct ServerMetrics {
  OpSeries create = make_op("create");
  OpSeries remove = make_op("remove");
  OpSeries write = make_op("write");
  OpSeries read = make_op("read");
  OpSeries truncate = make_op("truncate");
  OpSeries size = make_op("size");
  OpSeries stat = make_op("stat");
  OpSeries scan = make_op("scan");
  OpSeries txn = make_op("txn");
  obs::ShardedHistogram& read_bytes =
      obs::MetricsRegistry::global().histogram("server.read.bytes");
  obs::ShardedHistogram& write_bytes =
      obs::MetricsRegistry::global().histogram("server.write.bytes");
  obs::Counter& stripe_acquisitions =
      obs::MetricsRegistry::global().counter("server.stripe.acquisitions");
  obs::Counter& stripe_contended =
      obs::MetricsRegistry::global().counter("server.stripe.contended");
};

ServerMetrics& server_metrics() {
  static ServerMetrics m;
  return m;
}

/// Publishes one op when the enclosing call returns; every return path
/// writes the service cost through `service_us` first.
class OpPublisher {
 public:
  OpPublisher(const OpSeries& s, const SimMicros* service_us)
      : s_(s), svc_(service_us) {}
  OpPublisher(const OpPublisher&) = delete;
  OpPublisher& operator=(const OpPublisher&) = delete;
  ~OpPublisher() {
    s_.calls.inc();
    s_.service_us.add(static_cast<std::uint64_t>(*svc_));
  }

 private:
  const OpSeries& s_;
  const SimMicros* svc_;
};
}  // namespace

std::size_t BlobServer::stripe_of(std::string_view key) noexcept {
  return StorageEngine::shard_of(key);
}

BlobServer::KeyLock BlobServer::lock_key(std::string_view key) {
  KeyLock lk;
  lk.structure = std::shared_lock(mu_);
  Stripe& s = stripes_[stripe_of(key)];
  auto& m = server_metrics();
  m.stripe_acquisitions.inc();
  // Contention probe: a failed try_lock means another writer holds this
  // stripe right now — the wait that follows is real contention, not just
  // an acquisition.
  lk.stripe = std::unique_lock(s.mu, std::try_to_lock);
  if (!lk.stripe.owns_lock()) {
    m.stripe_contended.inc();
    lk.stripe.lock();
  }
  s.acquisitions.fetch_add(1, std::memory_order_relaxed);
  return lk;
}

BlobServer::MultiKeyLock BlobServer::lock_keys(const std::vector<std::string_view>& keys) {
  MultiKeyLock lk;
  lk.structure = std::shared_lock(mu_);
  // Dedup the batch's stripes and take them in ascending index order — the
  // same total order repeated lock_key() calls would follow, minus the
  // duplicate acquisitions when several chunk keys share a stripe.
  std::array<bool, kLockStripes> want{};
  for (std::string_view key : keys) want[stripe_of(key)] = true;
  auto& m = server_metrics();
  for (std::size_t i = 0; i < kLockStripes; ++i) {
    if (!want[i]) continue;
    Stripe& s = stripes_[i];
    m.stripe_acquisitions.inc();
    std::unique_lock stripe(s.mu, std::try_to_lock);
    if (!stripe.owns_lock()) {
      m.stripe_contended.inc();
      stripe.lock();
    }
    s.acquisitions.fetch_add(1, std::memory_order_relaxed);
    lk.stripes.push_back(std::move(stripe));
  }
  return lk;
}

Status BlobServer::enable_persistence(const std::string& dir, persist::JournalConfig jcfg) {
  std::unique_lock lk(mu_);
  auto j = persist::Journal::open(dir, jcfg);
  if (!j.ok()) return j.error();
  journal_ = std::move(j).take();
  persist_dir_ = dir;
  jcfg_ = jcfg;
  engine_.attach_journal(journal_.get());
  if (engine_.object_count() > 0) {
    // Late enable: objects written before the journal existed are only in
    // memory; snapshot them so the log has a durable base.
    auto c = engine_.write_checkpoint();
    if (!c.ok()) return c.error();
  }
  return Status::success();
}

void BlobServer::crash() {
  std::unique_lock lk(mu_);
  engine_.attach_journal(nullptr);
  if (journal_) journal_->abandon();  // un-fsynced batch dies with the process
  journal_.reset();
  engine_ = StorageEngine(ecfg_);
  {
    // Hints are process state, not engine state: they die too. Resync is
    // the durable backstop for whatever they would have repaired.
    std::scoped_lock hlk(hints_mu_);
    hints_.clear();
  }
}

Status BlobServer::restart(persist::RecoveryReport* report) {
  std::unique_lock lk(mu_);
  if (persist_dir_.empty()) return {Errc::invalid_argument, "persistence not enabled"};
  auto e = StorageEngine::recover(persist_dir_, ecfg_, report);
  if (!e.ok()) return e.error();
  engine_ = std::move(e).take();
  auto j = persist::Journal::open(persist_dir_, jcfg_);
  if (!j.ok()) return j.error();
  journal_ = std::move(j).take();
  engine_.attach_journal(journal_.get());
  return Status::success();
}

Result<std::uint64_t> BlobServer::checkpoint_now(SimMicros* service_us, bool prune_wal) {
  std::unique_lock lk(mu_);
  // Checkpointing reads and rewrites every live byte sequentially, plus a
  // journal barrier.
  *service_us = node_->disk().service_us(engine_.live_bytes(), true) +
                costs_.meta_journal_us;
  return engine_.write_checkpoint(prune_wal);
}

Status BlobServer::sync_journal() {
  std::unique_lock lk(mu_);
  if (!journal_) return Status::success();
  return journal_->sync();
}

std::array<std::uint64_t, BlobServer::kLockStripes> BlobServer::stripe_acquisitions() const {
  std::array<std::uint64_t, kLockStripes> out{};
  for (std::size_t i = 0; i < kLockStripes; ++i) {
    out[i] = stripes_[i].acquisitions.load(std::memory_order_relaxed);
  }
  return out;
}

SimMicros BlobServer::svc_read(const std::string& key, std::uint64_t obj_size,
                               std::uint64_t data_len, std::uint32_t extents_touched) {
  server_metrics().read_bytes.add(data_len);
  const SimMicros t = svc_bytes_cpu(data_len);
  if (node_->cache().touch_read(fnv1a64(key), obj_size) || extents_touched == 0) {
    // Served from the page cache (or a pure hole): no disk access.
    return t + 1;
  }
  // First extent pays the seek; subsequent extents are near-sequential in
  // the log and pay a short settle instead of a full stroke.
  const auto& dp = node_->disk().params();
  return t + node_->disk().service_us(data_len, /*sequential=*/false) +
         static_cast<SimMicros>(extents_touched - 1) * (dp.rotational_us / 2);
}

Status BlobServer::remove(const std::string& key, SimMicros* service_us) {
  OpPublisher pub(server_metrics().remove, service_us);
  KeyLock lk = lock_key(key);
  *service_us = svc_metadata();
  node_->cache().invalidate(fnv1a64(key));
  return engine_.remove(key);
}

Result<ReadOutcome> BlobServer::read(const std::string& key, std::uint64_t off,
                                     std::uint64_t len, SimMicros* service_us) {
  std::shared_lock lk(mu_);
  return read_locked(key, off, len, service_us);
}

SimMicros BlobServer::serve_read_sub(const ReadSubOp& sub, ReadSubResult& res) {
  // Each sub is one engine call, so its data, size and version come from
  // one shard hold. Digest-only subs are answered from the extent index
  // (span_probe folds the stored per-extent checksums): no payload bytes are
  // read, so a quorum vote costs what a stat does, and the reply carries
  // only (version, digest). probe_payload votes charge the full read cost
  // anyway: they stand in for a real payload serve on a hedged replica.
  res = {};
  if (sub.stat_only) {
    auto s = engine_.stat(*sub.key);
    if (!s.ok()) {
      res.err = Errc::not_found;
      return 0;
    }
    res.size = s.value().size;
    res.version = s.value().version;
    return 0;
  }
  if (sub.digest_only) {
    auto pr = engine_.span_probe(*sub.key, sub.off, sub.len);
    if (!pr.ok()) {
      res.err = pr.code();
      return 0;
    }
    const SpanProbeOutcome& probe = pr.value();
    res.size = probe.size;
    res.version = probe.version;
    res.digest = probe.digest;
    res.data_len = probe.data_len;  // the payload bytes the vote avoided
    res.covered = probe.covered;
    return sub.probe_payload
               ? svc_read(*sub.key, probe.size, probe.data_len, probe.extents_touched)
               : 0;
  }
  if (sub.out) {
    auto r = engine_.read(*sub.key, sub.off, sub.len, sub.want_digest);
    if (!r.ok()) {
      res.err = r.code();
      return 0;
    }
    ReadOutcome& out = r.value();
    res.data_len = out.data.size();
    res.covered = out.covered;
    res.size = out.size;
    res.version = out.version;
    res.digest = out.digest;
    *sub.out = std::move(out.data);
    return svc_read(*sub.key, out.size, res.data_len, out.extents_touched);
  }
  auto r = engine_.read_into(*sub.key, sub.off, sub.dst, sub.want_digest);
  if (!r.ok()) {
    res.err = r.code();
    return 0;
  }
  const ReadIntoOutcome& out = r.value();
  res.data_len = out.data_len;
  res.covered = out.covered;
  res.size = out.size;
  res.version = out.version;
  res.digest = out.digest;
  return svc_read(*sub.key, out.size, out.data_len, out.extents_touched);
}

void BlobServer::read_batch(const ReadSubOp* subs, std::size_t count,
                            ReadSubResult* results, SimMicros* service_us,
                            SimMicros* per_op_us) {
  auto& m = server_metrics();
  // One structure-lock acquisition and one fixed CPU charge for the whole
  // envelope; each sub-op then pays exactly what read()/stat() would have
  // charged for its own data, while stat and vote subs ride along for 1µs.
  std::shared_lock lk(mu_);
  SimMicros t = costs_.cpu_op_us;
  for (std::size_t i = 0; i < count; ++i) {
    const ReadSubOp& sub = subs[i];
    const ReadSubResult& res = results[i];
    t += serve_read_sub(sub, results[i]);
    if (sub.stat_only) {
      m.stat.calls.inc();
      t += 1;
    } else if (res.err != Errc::ok) {
      if (sub.digest_only) t += 1;
    } else if (!sub.digest_only || sub.probe_payload) {
      m.read.calls.inc();
    } else {
      m.stat.calls.inc();
      t += 1;
    }
    if (per_op_us) per_op_us[i] = t;
  }
  *service_us = t;
}

BlobServer::ReadSubResult BlobServer::read_one(const ReadSubOp& sub, SimMicros* service_us) {
  std::shared_lock lk(mu_);
  return read_one_locked(sub, service_us);
}

BlobServer::ReadSubResult BlobServer::read_one_locked(const ReadSubOp& sub,
                                                      SimMicros* service_us) {
  // The one charge of a plain read or stat: cpu_op_us plus the sub's own
  // cost, published on server.read for a payload, server.stat otherwise.
  const bool payload = !sub.stat_only && (!sub.digest_only || sub.probe_payload);
  OpPublisher pub(payload ? server_metrics().read : server_metrics().stat, service_us);
  ReadSubResult res;
  *service_us = costs_.cpu_op_us + serve_read_sub(sub, res);
  return res;
}

Result<std::uint64_t> BlobServer::size(const std::string& key, SimMicros* service_us) {
  OpPublisher pub(server_metrics().size, service_us);
  std::shared_lock lk(mu_);
  *service_us = costs_.cpu_op_us;
  return engine_.size(key);
}

Result<BlobStat> BlobServer::stat(const std::string& key, SimMicros* service_us) {
  std::shared_lock lk(mu_);
  ReadSubOp op;
  op.key = &key;
  op.stat_only = true;
  const ReadSubResult res = read_one_locked(op, service_us);
  if (res.err != Errc::ok) return {res.err, key};
  return BlobStat{key, res.size, res.version};
}

std::vector<BlobStat> BlobServer::scan(const std::string& prefix, SimMicros* service_us) {
  OpPublisher pub(server_metrics().scan, service_us);
  std::shared_lock lk(mu_);
  // The flat namespace has no directory index: scan walks every object
  // regardless of how selective the prefix is (§III: "far from optimized").
  std::uint64_t walked = 0;
  auto out = engine_.scan(prefix, &walked);
  *service_us = costs_.cpu_op_us +
                static_cast<SimMicros>(std::ceil(static_cast<double>(walked) *
                                                 costs_.scan_per_obj_us));
  return out;
}

Status BlobServer::apply_ops(const OpRef* ops, std::size_t count, SimMicros* service_us,
                             SimMicros* per_op_us) {
  auto& m = server_metrics();
  OpPublisher pub(m.txn, service_us);
  // Every client mutation arrives here (single-op calls are one-op legs), so
  // per-op attribution lives in this loop: each applied op counts against its
  // own server.<op>.calls series, while the envelope-level call + service
  // time stay on server.txn.*. The fixed request-handling CPU is charged
  // once per envelope — k batched sub-ops parse once, not k times.
  // Caller holds lock_exclusive() or a (Multi)KeyLock covering every op's
  // key; each op is one engine call (one shard hold), so concurrent readers
  // of other keys interleave between ops, never inside one.
  SimMicros t = costs_.cpu_op_us;
  for (std::size_t i = 0; i < count; ++i) {
    const OpRef& op = ops[i];
    Status st;
    switch (op.kind) {
      case OpRef::Kind::write: {
        auto r = engine_.write(*op.key, op.offset, op.data, true, op.checksum);
        if (!r.ok()) {
          st = r.error();
          break;
        }
        m.write.calls.inc();
        m.write_bytes.add(op.data.size());
        t += svc_bytes_cpu(op.data.size()) +
             node_->disk().service_us(op.data.size(), true);
        node_->cache().touch_write(fnv1a64(*op.key), r.value().size);
        break;
      }
      case OpRef::Kind::truncate: {
        auto r = engine_.truncate(*op.key, op.new_size);
        if (!r.ok()) {
          st = r.error();
          break;
        }
        m.truncate.calls.inc();
        t += svc_metadata();
        break;
      }
      case OpRef::Kind::create:
        st = engine_.create(*op.key);
        if (st.ok()) {
          m.create.calls.inc();
          t += svc_metadata();
        }
        break;
      case OpRef::Kind::remove:
        node_->cache().invalidate(fnv1a64(*op.key));
        st = engine_.remove(*op.key);
        if (st.ok()) {
          m.remove.calls.inc();
          t += svc_metadata();
        }
        break;
      case OpRef::Kind::grow: {
        auto r = engine_.grow(*op.key, op.new_size);
        if (!r.ok()) {
          st = r.error();
          break;
        }
        t += svc_metadata();
        break;
      }
    }
    if (!st.ok()) {
      *service_us = t;
      return st;
    }
    if (per_op_us != nullptr) per_op_us[i] = t;
  }
  *service_us = t;
  return Status::success();
}

bool BlobServer::version_matches(const std::string& key, Version expected) {
  // Caller holds lock_exclusive() or a KeyLock on `key`.
  auto v = engine_.version(key);
  if (!v.ok()) return expected == 0;  // "must not exist"
  return v.value() == expected;
}

Result<std::uint64_t> BlobServer::peek_size(const std::string& key) {
  return engine_.size(key);
}

Result<Version> BlobServer::peek_version(const std::string& key) {
  return engine_.version(key);
}

Status BlobServer::force_version(const std::string& key, Version v) {
  return engine_.set_version(key, v);
}

Status BlobServer::install_copy(const std::string& key, ByteView data,
                                std::uint64_t logical_size, Version version,
                                SimMicros* service_us) {
  KeyLock lk = lock_key(key);
  return install_copy_locked(key, data, logical_size, version, service_us);
}

Status BlobServer::install_copy_locked(const std::string& key, ByteView data,
                                       std::uint64_t logical_size, Version version,
                                       SimMicros* service_us) {
  // Caller holds lock_exclusive() or a KeyLock on `key`. One engine call:
  // readers never see the key vanish between the remove and the rewrite.
  node_->cache().invalidate(fnv1a64(key));
  Status st = engine_.install(key, data, logical_size, version);
  SimMicros t = costs_.cpu_op_us + svc_bytes_cpu(data.size());
  if (st.ok()) {
    t += node_->disk().service_us(data.size(), /*sequential=*/true);
    node_->cache().touch_write(fnv1a64(key), logical_size);
  }
  *service_us = t;
  return st;
}

Result<ReadOutcome> BlobServer::read_locked(const std::string& key, std::uint64_t off,
                                            std::uint64_t len, SimMicros* service_us) {
  // Caller holds mu_ (shared or exclusive) or a KeyLock on `key`; read()
  // is this plus the structure lock, which the rebalancer's copy path
  // already holds (re-acquiring it could self-deadlock).
  ReadOutcome out;
  ReadSubOp op;
  op.key = &key;
  op.off = off;
  op.out = &out.data;
  op.len = len;
  const ReadSubResult res = read_one_locked(op, service_us);
  if (res.err != Errc::ok) return {res.err, key};
  out.covered = res.covered;
  out.size = res.size;
  out.version = res.version;
  return out;
}

bool BlobServer::add_hint(std::uint32_t target, const BlobKey& key) {
  std::scoped_lock lk(hints_mu_);
  auto& keys = hints_[target];
  for (const BlobKey& k : keys) {
    if (k == key) return false;  // dedup: one hint per (target, key) suffices
  }
  keys.push_back(key);
  return true;
}

std::vector<BlobKey> BlobServer::take_hints_for(std::uint32_t target) {
  std::scoped_lock lk(hints_mu_);
  auto it = hints_.find(target);
  if (it == hints_.end()) return {};
  std::vector<BlobKey> out = std::move(it->second);
  hints_.erase(it);
  return out;
}

std::uint64_t BlobServer::hint_count() const {
  std::scoped_lock lk(hints_mu_);
  std::uint64_t n = 0;
  for (const auto& [target, keys] : hints_) n += keys.size();
  return n;
}

std::uint64_t BlobServer::object_count() {
  std::shared_lock lk(mu_);
  return engine_.object_count();
}

std::uint64_t BlobServer::live_bytes() {
  std::shared_lock lk(mu_);
  return engine_.live_bytes();
}

std::uint64_t BlobServer::dead_bytes() {
  std::shared_lock lk(mu_);
  return engine_.dead_bytes();
}

std::uint64_t BlobServer::compact(SimMicros* service_us) {
  std::unique_lock lk(mu_);
  const std::uint64_t live = engine_.live_bytes();
  const std::uint64_t reclaimed = engine_.compact();
  // Compaction reads and rewrites every live byte sequentially.
  *service_us = node_->disk().service_us(live, true) * 2;
  return reclaimed;
}

Status BlobServer::verify_integrity() {
  std::shared_lock lk(mu_);
  return engine_.verify_integrity();
}

Status BlobServer::verify_key(const std::string& key) {
  std::shared_lock lk(mu_);
  return engine_.verify_object(key);
}

bool BlobServer::corrupt_for_testing(const std::string& key) {
  std::unique_lock lk(mu_);
  return engine_.corrupt_for_testing(key);
}

}  // namespace bsc::blob
