#include "blob/storage_engine.hpp"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <utility>

#include "common/hash.hpp"
#include "obs/metrics.hpp"
#include "persist/fault_file.hpp"

namespace bsc::blob {

namespace {
/// Checkpoint key prefix marking a version-floor entry (ASCII "record
/// separator" — never the first byte of a real engine key, which is either
/// an application key or an application key plus a chunk suffix).
constexpr char kFloorMarker = '\x1e';

/// Process-wide engine op counts: every StorageEngine instance (one per
/// server) publishes into the same aggregate series.
struct EngineMetrics {
  obs::Counter& creates;
  obs::Counter& removes;
  obs::Counter& writes;
  obs::Counter& reads;
  obs::Counter& truncates;
  obs::Counter& grows;
  obs::Counter& bytes_written;
  obs::Counter& bytes_read;
  obs::Counter& compactions;
  obs::Counter& shard_acquisitions;
  obs::Counter& shard_contended;
};

EngineMetrics& engine_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static EngineMetrics m{
      reg.counter("engine.op.create"),    reg.counter("engine.op.remove"),
      reg.counter("engine.op.write"),     reg.counter("engine.op.read"),
      reg.counter("engine.op.truncate"),  reg.counter("engine.op.grow"),
      reg.counter("engine.bytes_written"), reg.counter("engine.bytes_read"),
      reg.counter("engine.compactions"),
      reg.counter("engine.shard.acquisitions"), reg.counter("engine.shard.contended")};
  return m;
}
}  // namespace

std::size_t StorageEngine::shard_of(std::string_view key) noexcept {
  static_assert((kShards & (kShards - 1)) == 0, "shard count is a power of two");
  return fnv1a64(key) & (kShards - 1);
}

StorageEngine::StorageEngine(EngineConfig cfg)
    : cfg_(cfg), shards_(std::make_unique<Shards>()) {}

StorageEngine::StorageEngine(StorageEngine&& other) noexcept
    : cfg_(other.cfg_),
      shards_(std::move(other.shards_)),
      warm_slots_(other.warm_slots_.load()),
      journal_(std::exchange(other.journal_, nullptr)) {}

StorageEngine& StorageEngine::operator=(StorageEngine&& other) noexcept {
  if (this == &other) return *this;
  if (!shards_) shards_ = std::make_unique<Shards>();  // assigning to a moved-from engine
  cfg_ = other.cfg_;
  // Swap rather than move: `other` (a temporary nobody else can reach)
  // takes the old contents and frees them outside our shard locks.
  for (std::size_t i = 0; i < kShards; ++i) {
    Shard& dst = (*shards_)[i];
    Shard& src = (*other.shards_)[i];
    std::scoped_lock lk(dst.mu);
    dst.objects.swap(src.objects);
    dst.removed_floors.swap(src.removed_floors);
    dst.segments.swap(src.segments);
    std::swap(dst.active, src.active);
    dst.seg_live.swap(src.seg_live);
    dst.free_slots.swap(src.free_slots);
    std::swap(dst.live_bytes, src.live_bytes);
    std::swap(dst.dead_bytes, src.dead_bytes);
  }
  warm_slots_ = other.warm_slots_.exchange(warm_slots_.load());
  journal_ = std::exchange(other.journal_, nullptr);
  return *this;
}

std::unique_lock<std::mutex> StorageEngine::lock(const Shard& s) {
  auto& m = engine_metrics();
  m.shard_acquisitions.inc();
  // Contention probe, as for the server's stripes: a failed try_lock means
  // another thread is inside this shard right now.
  std::unique_lock lk(s.mu, std::try_to_lock);
  if (!lk.owns_lock()) {
    m.shard_contended.inc();
    lk.lock();
  }
  return lk;
}

Status StorageEngine::journal_append(persist::WalRecord rec) {
  if (!journal_) return Status::success();
  // The in-memory apply already happened; a failed append means the journal
  // is behind the engine, which the caller must see as an op failure.
  return journal_->append(std::move(rec));
}

Version StorageEngine::take_floor(Shard& s, const std::string& key) {
  auto it = s.removed_floors.find(key);
  if (it == s.removed_floors.end()) return 0;
  const Version v = it->second;
  s.removed_floors.erase(it);
  return v;
}

Status StorageEngine::create(const std::string& key) {
  if (key.empty()) return {Errc::invalid_argument, "empty blob key"};
  Shard& s = shard(key);
  auto lk = lock(s);
  auto [it, inserted] = s.objects.try_emplace(key);
  if (!inserted) return {Errc::already_exists, key};
  it->second.version = take_floor(s, key) + 1;
  engine_metrics().creates.inc();
  return journal_append({.op = persist::WalOp::create, .key = key});
}

Status StorageEngine::remove(const std::string& key) {
  Shard& s = shard(key);
  auto lk = lock(s);
  return remove_locked(s, key);
}

Status StorageEngine::remove_locked(Shard& s, const std::string& key) {
  auto it = s.objects.find(key);
  if (it == s.objects.end()) return {Errc::not_found, key};
  // Keep the dead object's version as a floor so a recreation continues the
  // sequence — see the header for why freshest-wins repair depends on this.
  s.removed_floors[key] = it->second.version;
  for (const auto& e : it->second.extents) retire_bytes(s, e.segment, e.len);
  s.objects.erase(it);
  engine_metrics().removes.inc();
  return journal_append({.op = persist::WalOp::remove, .key = key});
}

bool StorageEngine::contains(const std::string& key) const {
  const Shard& s = shard(key);
  auto lk = lock(s);
  return s.objects.count(key) != 0;
}

std::pair<std::uint32_t, std::uint64_t> StorageEngine::append_to_log(Shard& s,
                                                                     ByteView data) {
  if (s.segments.empty()) {
    s.segments.emplace_back();
    s.seg_live.push_back(0);
    s.active = 0;
  } else if (s.segments[s.active].size() + data.size() > cfg_.segment_bytes &&
             !s.segments[s.active].empty()) {
    // Seal the active segment and open a fresh one. Prefer a recycled
    // fully-dead slot: its buffer's pages are already faulted in, and cold
    // first-touch faults — not the copy itself — dominate append cost on a
    // log that only ever grows (steady-state overwrite workloads retire
    // whole segments continuously).
    const std::uint32_t sealed = s.active;
    if (!s.free_slots.empty()) {
      s.active = s.free_slots.back();
      s.free_slots.pop_back();
      if (s.segments[s.active].capacity() != 0) --warm_slots_;
    } else {
      s.segments.emplace_back();
      s.seg_live.push_back(0);
      s.active = static_cast<std::uint32_t>(s.segments.size() - 1);
    }
    maybe_recycle(s, sealed);  // a sealed segment can already be fully dead
  }
  Bytes& seg = s.segments[s.active];
  if (seg.empty() && data.size() >= (64u << 10) && data.size() < cfg_.segment_bytes) {
    // Large-write workloads fill the segment in a handful of appends;
    // reserving the full segment up front avoids the doubling reallocations
    // (and their copy passes) on the hot write path. Small-object engines
    // never trigger this, so they keep their proportional footprint.
    seg.reserve(cfg_.segment_bytes);
  }
  const std::uint64_t seg_off = seg.size();
  append(seg, data);
  s.seg_live[s.active] += data.size();
  return {s.active, seg_off};
}

void StorageEngine::retire_bytes(Shard& s, std::uint32_t segment, std::uint64_t n) {
  s.live_bytes -= n;
  s.dead_bytes += n;
  s.seg_live[segment] -= n;
  maybe_recycle(s, segment);
}

void StorageEngine::maybe_recycle(Shard& s, std::uint32_t segment) {
  if (segment == s.active || s.seg_live[segment] != 0 || s.segments[segment].empty()) {
    return;
  }
  // Every byte in the segment is dead: no live extent references it, so the
  // buffer can be reused wholesale. clear() keeps the capacity (warm pages);
  // past kWarmSlots engine-wide the memory is returned and only the slot is
  // recycled.
  s.segments[segment].clear();
  if (warm_slots_++ >= kWarmSlots) {
    --warm_slots_;
    Bytes().swap(s.segments[segment]);
  }
  s.free_slots.push_back(segment);
}

void StorageEngine::supersede_range(Shard& s, ObjectRec& rec, std::uint64_t off,
                                    std::uint64_t len) {
  const std::uint64_t end = off + len;
  std::vector<Extent> kept;
  kept.reserve(rec.extents.size() + 2);
  for (const Extent& e : rec.extents) {
    const std::uint64_t e_end = e.log_off + e.len;
    if (e_end <= off || e.log_off >= end) {
      kept.push_back(e);
      continue;
    }
    // Overlap: keep the non-overlapping left/right slices, kill the middle.
    std::uint64_t killed = std::min(e_end, end) - std::max(e.log_off, off);
    retire_bytes(s, e.segment, killed);
    if (e.log_off < off) {
      Extent left = e;
      left.len = off - e.log_off;
      left.checksum = 0;  // partial extents lose their whole-extent checksum
      kept.push_back(left);
    }
    if (e_end > end) {
      Extent right = e;
      const std::uint64_t skip = end - e.log_off;
      right.log_off = end;
      right.seg_off = e.seg_off + skip;
      right.len = e_end - end;
      right.checksum = 0;
      kept.push_back(right);
    }
  }
  rec.extents = std::move(kept);
}

Result<WriteOutcome> StorageEngine::write(const std::string& key, std::uint64_t offset,
                                          ByteView data, bool create_if_missing,
                                          std::uint64_t checksum) {
  if (key.empty()) return {Errc::invalid_argument, "empty blob key"};
  Shard& s = shard(key);
  auto lk = lock(s);
  return write_locked(s, key, offset, data, create_if_missing, checksum);
}

Result<WriteOutcome> StorageEngine::write_locked(Shard& s, const std::string& key,
                                                 std::uint64_t offset, ByteView data,
                                                 bool create_if_missing,
                                                 std::uint64_t checksum) {
  auto it = s.objects.find(key);
  if (it == s.objects.end()) {
    if (!create_if_missing) return {Errc::not_found, key};
    it = s.objects.try_emplace(key).first;
    it->second.version = take_floor(s, key);  // ++ below lands at floor + 1
  }
  ObjectRec& rec = it->second;
  if (!data.empty()) {
    // In-place fast path: a write that exactly replaces one existing extent
    // overwrites its segment bytes directly. Extents never overlap, so an
    // exact match means no other extent touches the range — no supersede or
    // append churn, no dead-byte growth, and under steady-state full-chunk
    // overwrites (the striped-write pattern) the destination stays
    // cache-warm instead of streaming into a fresh cold slot every round.
    bool in_place = false;
    for (Extent& e : rec.extents) {
      if (e.log_off > offset) break;  // sorted by log_off: no match possible
      if (e.log_off == offset && e.len == data.size()) {
        Bytes& seg = s.segments[e.segment];
        std::copy(data.begin(), data.end(),
                  seg.begin() + static_cast<std::ptrdiff_t>(e.seg_off));
        e.checksum = checksum != 0 ? checksum : content_checksum(data);
        in_place = true;
        break;
      }
    }
    if (!in_place) {
      supersede_range(s, rec, offset, data.size());
      auto [seg, seg_off] = append_to_log(s, data);
      Extent e{.log_off = offset, .segment = seg, .seg_off = seg_off,
               .len = data.size(),
               .checksum = checksum != 0 ? checksum : content_checksum(data)};
      auto pos = std::lower_bound(rec.extents.begin(), rec.extents.end(), e,
                                  [](const Extent& a, const Extent& b) {
                                    return a.log_off < b.log_off;
                                  });
      rec.extents.insert(pos, e);
      s.live_bytes += data.size();
    }
  }
  rec.length = std::max(rec.length, offset + data.size());
  ++rec.version;
  if (journal_ != nullptr) {
    // The WAL record owns a copy of the payload; constructing it with no
    // journal attached would be a dead full-payload copy on every write.
    auto jst = journal_append({.op = persist::WalOp::write,
                               .key = key,
                               .offset = offset,
                               .create_if_missing = create_if_missing,
                               .data = Bytes(data.begin(), data.end())});
    if (!jst.ok()) return jst.error();
  }
  engine_metrics().writes.inc();
  engine_metrics().bytes_written.add(data.size());
  return WriteOutcome{.bytes = data.size(), .sequential_disk = true,
                      .version = rec.version, .size = rec.length};
}

Result<ReadOutcome> StorageEngine::read(const std::string& key, std::uint64_t offset,
                                        std::uint64_t len) const {
  const Shard& s = shard(key);
  auto lk = lock(s);
  auto it = s.objects.find(key);
  if (it == s.objects.end()) return {Errc::not_found, key};
  const ObjectRec& rec = it->second;
  ReadOutcome out;
  out.size = rec.length;
  out.version = rec.version;
  if (offset >= rec.length) return out;
  len = std::min(len, rec.length - offset);
  out.data.assign(len, std::byte{0});  // holes read as zero
  const std::uint64_t end = offset + len;
  for (const Extent& e : rec.extents) {
    const std::uint64_t e_end = e.log_off + e.len;
    if (e_end <= offset || e.log_off >= end) continue;
    const std::uint64_t lo = std::max(e.log_off, offset);
    const std::uint64_t hi = std::min(e_end, end);
    const Bytes& seg = s.segments[e.segment];
    std::copy_n(seg.begin() + static_cast<std::ptrdiff_t>(e.seg_off + (lo - e.log_off)),
                hi - lo, out.data.begin() + static_cast<std::ptrdiff_t>(lo - offset));
    out.covered += hi - lo;
    ++out.extents_touched;
  }
  engine_metrics().reads.inc();
  engine_metrics().bytes_read.add(out.data.size());
  return out;
}

Result<ReadIntoOutcome> StorageEngine::read_into(const std::string& key,
                                                 std::uint64_t offset, MutableByteView dst,
                                                 bool want_digest) const {
  const Shard& s = shard(key);
  auto lk = lock(s);
  auto it = s.objects.find(key);
  if (it == s.objects.end()) return {Errc::not_found, key};
  const ObjectRec& rec = it->second;
  ReadIntoOutcome out;
  out.size = rec.length;
  out.version = rec.version;
  // Same extent-index fold the digest-only votes use, so both sides of an
  // arbitration compare digests with one definition.
  if (want_digest) out.digest = probe_locked(s, rec, offset, dst.size()).digest;
  if (offset >= rec.length || dst.empty()) return out;
  out.data_len = std::min<std::uint64_t>(dst.size(), rec.length - offset);
  const std::uint64_t end = offset + out.data_len;
  for (const Extent& e : rec.extents) {
    const std::uint64_t e_end = e.log_off + e.len;
    if (e_end <= offset || e.log_off >= end) continue;
    const std::uint64_t lo = std::max(e.log_off, offset);
    const std::uint64_t hi = std::min(e_end, end);
    const Bytes& seg = s.segments[e.segment];
    std::copy_n(seg.begin() + static_cast<std::ptrdiff_t>(e.seg_off + (lo - e.log_off)),
                hi - lo, dst.begin() + static_cast<std::ptrdiff_t>(lo - offset));
    out.covered += hi - lo;
    ++out.extents_touched;
  }
  engine_metrics().reads.inc();
  engine_metrics().bytes_read.add(out.data_len);
  return out;
}

Result<SpanProbeOutcome> StorageEngine::span_probe(const std::string& key,
                                                   std::uint64_t offset,
                                                   std::uint64_t len) const {
  const Shard& s = shard(key);
  auto lk = lock(s);
  auto it = s.objects.find(key);
  if (it == s.objects.end()) return {Errc::not_found, key};
  return probe_locked(s, it->second, offset, len);
}

SpanProbeOutcome StorageEngine::probe_locked(const Shard& s, const ObjectRec& rec,
                                             std::uint64_t offset, std::uint64_t len) {
  SpanProbeOutcome out;
  out.size = rec.length;
  out.version = rec.version;
  out.digest = 0x9d5c0a7c3f4e1b27ULL;  // nonzero seed: 0 means "no digest" on the wire
  if (offset >= rec.length || len == 0) return out;
  out.data_len = std::min(len, rec.length - offset);
  const std::uint64_t end = offset + out.data_len;
  for (const Extent& e : rec.extents) {
    const std::uint64_t e_end = e.log_off + e.len;
    if (e_end <= offset || e.log_off >= end) continue;
    const std::uint64_t lo = std::max(e.log_off, offset);
    const std::uint64_t hi = std::min(e_end, end);
    // The fold pins the window's position in the span, its position inside
    // the extent, and the whole-extent (length, checksum): equal tuples mean
    // the window covers the same bytes. Split/trimmed extents dropped their
    // checksum (0), so hash their overlapping stored bytes instead.
    std::uint64_t content = e.checksum;
    if (content == 0) {
      const Bytes& seg = s.segments[e.segment];
      content = content_checksum(
          subview(as_view(seg), e.seg_off + (lo - e.log_off), hi - lo));
    }
    out.digest = hash_combine(out.digest, lo - offset);
    out.digest = hash_combine(out.digest, hi - lo);
    out.digest = hash_combine(out.digest, lo - e.log_off);
    out.digest = hash_combine(out.digest, e.len);
    out.digest = hash_combine(out.digest, content);
    out.covered += hi - lo;
    ++out.extents_touched;
  }
  return out;
}

Result<Version> StorageEngine::truncate(const std::string& key, std::uint64_t new_size) {
  Shard& s = shard(key);
  auto lk = lock(s);
  return truncate_locked(s, key, new_size);
}

Result<Version> StorageEngine::truncate_locked(Shard& s, const std::string& key,
                                               std::uint64_t new_size) {
  auto it = s.objects.find(key);
  if (it == s.objects.end()) return {Errc::not_found, key};
  ObjectRec& rec = it->second;
  if (new_size < rec.length) {
    // Drop extents fully past the new end; trim any extent straddling it.
    std::vector<Extent> kept;
    for (const Extent& e : rec.extents) {
      if (e.log_off >= new_size) {
        retire_bytes(s, e.segment, e.len);
        continue;
      }
      if (e.log_off + e.len > new_size) {
        Extent trimmed = e;
        const std::uint64_t cut = e.log_off + e.len - new_size;
        trimmed.len -= cut;
        trimmed.checksum = 0;
        retire_bytes(s, e.segment, cut);
        kept.push_back(trimmed);
      } else {
        kept.push_back(e);
      }
    }
    rec.extents = std::move(kept);
  }
  rec.length = new_size;
  ++rec.version;
  auto jst = journal_append({.op = persist::WalOp::truncate, .key = key, .size = new_size});
  if (!jst.ok()) return jst.error();
  engine_metrics().truncates.inc();
  return rec.version;
}

Result<Version> StorageEngine::grow(const std::string& key, std::uint64_t min_size) {
  Shard& s = shard(key);
  auto lk = lock(s);
  auto it = s.objects.find(key);
  if (it == s.objects.end()) return {Errc::not_found, key};
  ObjectRec& rec = it->second;
  rec.length = std::max(rec.length, min_size);
  ++rec.version;
  auto jst = journal_append({.op = persist::WalOp::grow, .key = key, .size = min_size});
  if (!jst.ok()) return jst.error();
  engine_metrics().grows.inc();
  return rec.version;
}

Result<std::uint64_t> StorageEngine::size(const std::string& key) const {
  const Shard& s = shard(key);
  auto lk = lock(s);
  auto it = s.objects.find(key);
  if (it == s.objects.end()) return {Errc::not_found, key};
  return it->second.length;
}

Result<Version> StorageEngine::version(const std::string& key) const {
  const Shard& s = shard(key);
  auto lk = lock(s);
  auto it = s.objects.find(key);
  if (it == s.objects.end()) return {Errc::not_found, key};
  return it->second.version;
}

Result<BlobStat> StorageEngine::stat(const std::string& key) const {
  const Shard& s = shard(key);
  auto lk = lock(s);
  auto it = s.objects.find(key);
  if (it == s.objects.end()) return {Errc::not_found, key};
  return BlobStat{key, it->second.length, it->second.version};
}

Status StorageEngine::set_version(const std::string& key, Version v) {
  Shard& s = shard(key);
  auto lk = lock(s);
  return set_version_locked(s, key, v);
}

Status StorageEngine::set_version_locked(Shard& s, const std::string& key, Version v) {
  auto it = s.objects.find(key);
  if (it == s.objects.end()) return {Errc::not_found, key};
  it->second.version = v;
  // The version rides in the `size` field — set_version carries no payload.
  return journal_append({.op = persist::WalOp::set_version, .key = key, .size = v});
}

Status StorageEngine::install(const std::string& key, ByteView data,
                              std::uint64_t logical_size, Version version) {
  if (key.empty()) return {Errc::invalid_argument, "empty blob key"};
  Shard& s = shard(key);
  auto lk = lock(s);
  if (s.objects.count(key) != 0) {
    auto rm = remove_locked(s, key);
    if (!rm.ok()) return rm;
  }
  auto w = write_locked(s, key, 0, data, /*create_if_missing=*/true, 0);
  if (!w.ok()) return w.error();
  if (logical_size != data.size()) {
    auto t = truncate_locked(s, key, logical_size);
    if (!t.ok()) return t.error();
  }
  return set_version_locked(s, key, version);
}

std::vector<BlobStat> StorageEngine::scan(const std::string& prefix,
                                          std::uint64_t* visited) const {
  std::vector<BlobStat> out;
  std::uint64_t walked = 0;
  for (const Shard& s : *shards_) {
    auto lk = lock(s);
    walked += s.objects.size();
    for (auto it = s.objects.lower_bound(prefix);
         it != s.objects.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
      out.push_back({it->first, it->second.length, it->second.version});
    }
  }
  // Each shard's slice is sorted; the merged listing must be too.
  std::sort(out.begin(), out.end(),
            [](const BlobStat& a, const BlobStat& b) { return a.key < b.key; });
  if (visited != nullptr) *visited = walked;
  return out;
}

std::uint64_t StorageEngine::object_count() const {
  std::uint64_t n = 0;
  for (const Shard& s : *shards_) {
    auto lk = lock(s);
    n += s.objects.size();
  }
  return n;
}

std::uint64_t StorageEngine::live_bytes() const {
  std::uint64_t n = 0;
  for (const Shard& s : *shards_) {
    auto lk = lock(s);
    n += s.live_bytes;
  }
  return n;
}

std::uint64_t StorageEngine::dead_bytes() const {
  std::uint64_t n = 0;
  for (const Shard& s : *shards_) {
    auto lk = lock(s);
    n += s.dead_bytes;
  }
  return n;
}

std::uint64_t StorageEngine::segments_total() const {
  std::uint64_t n = 0;
  for (const Shard& s : *shards_) {
    auto lk = lock(s);
    n += s.segments.size();
  }
  return n;
}

bool StorageEngine::needs_compaction() const {
  std::uint64_t live = 0;
  std::uint64_t dead = 0;
  for (const Shard& s : *shards_) {
    auto lk = lock(s);
    live += s.live_bytes;
    dead += s.dead_bytes;
  }
  const std::uint64_t total = live + dead;
  return total > 0 &&
         static_cast<double>(dead) / static_cast<double>(total) > cfg_.compact_dead_ratio;
}

std::uint64_t StorageEngine::compact() {
  std::uint64_t reclaimed = 0;
  for (Shard& s : *shards_) {
    auto lk = lock(s);
    reclaimed += compact_locked(s);
  }
  engine_metrics().compactions.inc();
  return reclaimed;
}

std::uint64_t StorageEngine::compact_locked(Shard& s) {
  const std::uint64_t reclaimed = s.dead_bytes;
  std::vector<Bytes> fresh;
  auto fresh_append = [&](ByteView data) -> std::pair<std::uint32_t, std::uint64_t> {
    if (fresh.empty() ||
        (fresh.back().size() + data.size() > cfg_.segment_bytes && !fresh.back().empty())) {
      fresh.emplace_back();
    }
    Bytes& seg = fresh.back();
    const std::uint64_t off = seg.size();
    append(seg, data);
    return {static_cast<std::uint32_t>(fresh.size() - 1), off};
  };
  for (auto& [key, rec] : s.objects) {
    for (Extent& e : rec.extents) {
      const Bytes& seg = s.segments[e.segment];
      ByteView data = subview(as_view(seg), e.seg_off, e.len);
      auto [ns, noff] = fresh_append(data);
      e.segment = ns;
      e.seg_off = noff;
      e.checksum = content_checksum(data);
    }
  }
  for (std::uint32_t slot : s.free_slots) {
    if (s.segments[slot].capacity() != 0) --warm_slots_;
  }
  s.free_slots.clear();
  s.segments = std::move(fresh);
  s.seg_live.assign(s.segments.size(), 0);
  for (std::size_t i = 0; i < s.segments.size(); ++i) s.seg_live[i] = s.segments[i].size();
  s.active = s.segments.empty() ? 0 : static_cast<std::uint32_t>(s.segments.size() - 1);
  s.dead_bytes = 0;
  return reclaimed;
}

Status StorageEngine::verify_integrity() const {
  for (const Shard& s : *shards_) {
    auto lk = lock(s);
    for (const auto& [key, rec] : s.objects) {
      auto st = verify_locked(s, key, rec);
      if (!st.ok()) return st;
    }
  }
  return Status::success();
}

Status StorageEngine::verify_object(const std::string& key) const {
  const Shard& s = shard(key);
  auto lk = lock(s);
  auto it = s.objects.find(key);
  if (it == s.objects.end()) return {Errc::not_found, key};
  return verify_locked(s, key, it->second);
}

Status StorageEngine::verify_locked(const Shard& s, const std::string& key,
                                    const ObjectRec& rec) {
  for (const Extent& e : rec.extents) {
    if (e.checksum == 0) continue;  // partial extents: checksum dropped
    const Bytes& seg = s.segments[e.segment];
    if (e.seg_off + e.len > seg.size()) {
      return {Errc::io_error, "extent past segment end: " + key};
    }
    if (content_checksum(subview(as_view(seg), e.seg_off, e.len)) != e.checksum) {
      return {Errc::io_error, "checksum mismatch: " + key};
    }
  }
  return Status::success();
}

Result<std::uint64_t> StorageEngine::write_checkpoint(bool prune_wal) {
  if (!journal_) return {Errc::invalid_argument, "no journal attached"};
  // Covers every record assigned so far — including ones still sitting in
  // the group-commit buffer, since the in-memory state already reflects
  // them. The shards are snapshotted one at a time, so the caller must keep
  // mutations out (BlobServer holds its structure lock exclusively); a
  // record assigned meanwhile would be in the snapshot AND replayed on top
  // of it, so the LSN is re-checked and a raced snapshot is refused.
  const std::uint64_t lsn = journal_->last_assigned_lsn();
  std::vector<persist::CheckpointObject> objs;
  std::vector<persist::CheckpointObject> floors;
  for (const Shard& s : *shards_) {
    auto lk = lock(s);
    for (const auto& [key, rec] : s.objects) {
      persist::CheckpointObject obj;
      obj.key = key;
      obj.length = rec.length;
      obj.version = rec.version;
      obj.runs.reserve(rec.extents.size());
      for (const Extent& e : rec.extents) {
        persist::CheckpointRun run;
        run.log_off = e.log_off;
        const ByteView data = subview(as_view(s.segments[e.segment]), e.seg_off, e.len);
        run.data.assign(data.begin(), data.end());
        // Partial extents carry checksum 0 in the index; the snapshot always
        // records a real one so recovery can validate every run.
        run.checksum = content_checksum(data);
        obj.runs.push_back(std::move(run));
      }
      objs.push_back(std::move(obj));
    }
    // Outstanding version floors ride along as marker entries (key prefixed
    // with kFloorMarker, version = floor, no data). Floors and live objects
    // are disjoint — creation consumes the floor — so no key appears twice.
    for (const auto& [key, floor] : s.removed_floors) {
      persist::CheckpointObject obj;
      obj.key = std::string(1, kFloorMarker) + key;
      obj.version = floor;
      floors.push_back(std::move(obj));
    }
  }
  if (journal_->last_assigned_lsn() != lsn) {
    return {Errc::busy, "mutation raced the checkpoint snapshot"};
  }
  // Key order, objects then floors: the file does not depend on sharding.
  const auto by_key = [](const persist::CheckpointObject& a,
                         const persist::CheckpointObject& b) { return a.key < b.key; };
  std::sort(objs.begin(), objs.end(), by_key);
  std::sort(floors.begin(), floors.end(), by_key);
  std::move(floors.begin(), floors.end(), std::back_inserter(objs));
  auto st = persist::write_checkpoint(journal_->dir(), lsn, objs);
  if (!st.ok()) return st.error();
  if (prune_wal) {
    auto ts = journal_->truncate_log();
    if (!ts.ok()) return ts.error();
  }
  return lsn;
}

Status StorageEngine::restore_object(const persist::CheckpointObject& obj) {
  if (obj.key.empty()) return {Errc::io_error, "checkpoint object with empty key"};
  if (obj.key[0] == kFloorMarker) {
    const std::string key = obj.key.substr(1);
    Shard& s = shard(key);
    auto lk = lock(s);
    s.removed_floors[key] = obj.version;
    return Status::success();
  }
  Shard& s = shard(obj.key);
  auto lk = lock(s);
  auto [it, inserted] = s.objects.try_emplace(obj.key);
  if (!inserted) return {Errc::io_error, "duplicate checkpoint object: " + obj.key};
  ObjectRec& rec = it->second;
  rec.length = obj.length;
  rec.version = obj.version;
  rec.extents.reserve(obj.runs.size());
  std::uint64_t prev_end = 0;
  for (const persist::CheckpointRun& run : obj.runs) {
    if (run.log_off < prev_end || run.log_off + run.data.size() > obj.length) {
      s.objects.erase(it);
      return {Errc::io_error, "checkpoint runs out of order: " + obj.key};
    }
    if (content_checksum(as_view(run.data)) != run.checksum) {
      s.objects.erase(it);
      return {Errc::io_error, "checkpoint run checksum mismatch: " + obj.key};
    }
    prev_end = run.log_off + run.data.size();
    auto [seg, seg_off] = append_to_log(s, as_view(run.data));
    rec.extents.push_back({.log_off = run.log_off, .segment = seg, .seg_off = seg_off,
                           .len = run.data.size(), .checksum = run.checksum});
    s.live_bytes += run.data.size();
  }
  return Status::success();
}

Result<StorageEngine> StorageEngine::recover(const std::string& dir, EngineConfig cfg,
                                             persist::RecoveryReport* report) {
  StorageEngine e(cfg);
  persist::RecoveryReport rep;

  persist::CheckpointState ckpt = persist::load_newest_checkpoint(dir);
  rep.checkpoint_lsn = ckpt.found ? ckpt.lsn : 0;
  rep.checkpoints_skipped = ckpt.skipped;
  for (const auto& obj : ckpt.objects) {
    auto st = e.restore_object(obj);
    if (!st.ok()) return st.error();
  }

  persist::WalScanResult scan = persist::scan_wal(persist::wal_path(dir));
  rep.tail_torn = scan.tail_torn;
  rep.tail_reason = scan.tail_reason;
  rep.wal_valid_bytes = scan.valid_bytes;
  for (const persist::WalRecord& r : scan.records) {
    if (ckpt.found && r.lsn <= ckpt.lsn) {
      ++rep.records_skipped;
      continue;
    }
    Status st;
    switch (r.op) {
      case persist::WalOp::create:
        st = e.create(r.key);
        break;
      case persist::WalOp::remove:
        st = e.remove(r.key);
        break;
      case persist::WalOp::write: {
        auto w = e.write(r.key, r.offset, as_view(r.data), r.create_if_missing);
        st = w.ok() ? Status::success() : Status(w.error());
        break;
      }
      case persist::WalOp::truncate: {
        auto t = e.truncate(r.key, r.size);
        st = t.ok() ? Status::success() : Status(t.error());
        break;
      }
      case persist::WalOp::grow: {
        auto g = e.grow(r.key, r.size);
        st = g.ok() ? Status::success() : Status(g.error());
        break;
      }
      case persist::WalOp::set_version:
        st = e.set_version(r.key, r.size);
        break;
    }
    if (!st.ok()) {
      return Error{Errc::io_error,
                   "wal replay failed at lsn " + std::to_string(r.lsn) + ": " + st.message()};
    }
    ++rep.records_replayed;
  }

  if (scan.tail_torn && std::filesystem::exists(persist::wal_path(dir))) {
    // Discard the torn/corrupt tail so future appends extend a clean prefix.
    auto ts = persist::FaultFile(persist::wal_path(dir)).truncate_to(scan.valid_bytes);
    if (!ts.ok()) return ts.error();
  }

  // Recovery feeds the same verification machinery the scrubber uses: a
  // rebuilt engine with a bad extent checksum is an error, not a warning.
  auto vi = e.verify_integrity();
  if (!vi.ok()) return vi.error();

  if (report) *report = rep;
  return e;
}

bool StorageEngine::corrupt_for_testing(const std::string& key) {
  Shard& s = shard(key);
  auto lk = lock(s);
  auto it = s.objects.find(key);
  if (it == s.objects.end() || it->second.extents.empty()) return false;
  const Extent& e = it->second.extents.front();
  if (e.len == 0) return false;
  Bytes& seg = s.segments[e.segment];
  seg[e.seg_off] ^= std::byte{0xff};
  return true;
}

}  // namespace bsc::blob
