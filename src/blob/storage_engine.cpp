#include "blob/storage_engine.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <unordered_set>
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
    std::swap(dst.live_bytes, src.live_bytes);
    std::swap(dst.dead_bytes, src.dead_bytes);
  }
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
  for (const auto& e : it->second.extents) retire_bytes(s, e.len);
  s.objects.erase(it);
  engine_metrics().removes.inc();
  return journal_append({.op = persist::WalOp::remove, .key = key});
}

bool StorageEngine::contains(const std::string& key) const {
  const Shard& s = shard(key);
  auto lk = lock(s);
  return s.objects.count(key) != 0;
}

void StorageEngine::retire_bytes(Shard& s, std::uint64_t n) noexcept {
  s.live_bytes -= n;
  s.dead_bytes += n;
}

void StorageEngine::supersede_range(Shard& s, ObjectRec& rec, std::uint64_t off,
                                    std::uint64_t len) {
  const std::uint64_t end = off + len;
  std::vector<Extent> kept;
  kept.reserve(rec.extents.size() + 2);
  // Extents move, not copy: only a split (left and right slices on one
  // buffer) pays a refcount bump.
  for (Extent& e : rec.extents) {
    const std::uint64_t e_end = e.log_off + e.len;
    if (e_end <= off || e.log_off >= end) {
      kept.push_back(std::move(e));
      continue;
    }
    // Overlap: keep the non-overlapping left/right slices, kill the middle.
    retire_bytes(s, std::min(e_end, end) - std::max(e.log_off, off));
    e.checksum = 0;  // partial extents lose their whole-extent checksum
    const bool has_right = e_end > end;
    if (e.log_off < off) {
      Extent& left = has_right ? kept.emplace_back(e) : kept.emplace_back(std::move(e));
      left.len = off - left.log_off;
    }
    if (has_right) {
      Extent& right = kept.emplace_back(std::move(e));
      right.buf_off += end - right.log_off;
      right.log_off = end;
      right.len = e_end - end;
    }
  }
  rec.extents = std::move(kept);
}

Result<WriteOutcome> StorageEngine::write(const std::string& key, std::uint64_t offset,
                                          SharedBytes data, bool create_if_missing,
                                          std::uint64_t checksum) {
  if (key.empty()) return {Errc::invalid_argument, "empty blob key"};
  Shard& s = shard(key);
  auto lk = lock(s);
  return write_locked(s, key, offset, std::move(data), create_if_missing, checksum);
}

Result<WriteOutcome> StorageEngine::write_locked(Shard& s, const std::string& key,
                                                 std::uint64_t offset, SharedBytes data,
                                                 bool create_if_missing,
                                                 std::uint64_t checksum) {
  auto it = s.objects.find(key);
  if (it == s.objects.end()) {
    if (!create_if_missing) return {Errc::not_found, key};
    it = s.objects.try_emplace(key).first;
    it->second.version = take_floor(s, key);  // ++ below lands at floor + 1
  }
  ObjectRec& rec = it->second;
  // The extent below keeps `data`'s buffer alive, so this view stays valid.
  const ByteView bytes = data.view;
  if (!bytes.empty()) {
    if (checksum == 0) checksum = content_checksum(bytes);
    const auto at = [&rec](std::uint64_t off) {
      return std::ranges::lower_bound(rec.extents, off, {}, &Extent::log_off);
    };
    // A write that exactly replaces one existing extent swaps in the new
    // buffer. Extents never overlap, so an exact match means no other extent
    // touches the range: no supersede, and the old bytes are dropped rather
    // than counted dead — under steady-state full-chunk overwrites (the
    // striped-write pattern) dead bytes do not grow.
    auto pos = at(offset);
    if (pos != rec.extents.end() && pos->log_off == offset && pos->len == bytes.size()) {
      pos->buf = std::move(data);
      pos->buf_off = 0;
      pos->checksum = checksum;
    } else {
      supersede_range(s, rec, offset, bytes.size());
      rec.extents.insert(at(offset), Extent{.log_off = offset, .len = bytes.size(),
                                            .checksum = checksum, .buf = std::move(data)});
      s.live_bytes += bytes.size();
    }
  }
  rec.length = std::max(rec.length, offset + bytes.size());
  ++rec.version;
  if (journal_ != nullptr) {
    // The WAL record owns a copy of the payload; constructing it with no
    // journal attached would be a dead full-payload copy on every write.
    auto jst = journal_append({.op = persist::WalOp::write,
                               .key = key,
                               .offset = offset,
                               .create_if_missing = create_if_missing,
                               .data = Bytes(bytes.begin(), bytes.end())});
    if (!jst.ok()) return jst.error();
  }
  engine_metrics().writes.inc();
  engine_metrics().bytes_written.add(bytes.size());
  return WriteOutcome{.bytes = bytes.size(), .sequential_disk = true,
                      .version = rec.version, .size = rec.length};
}

Result<ReadOutcome> StorageEngine::read(const std::string& key, std::uint64_t offset,
                                        std::uint64_t len, bool want_digest) const {
  const Shard& s = shard(key);
  auto lk = lock(s);
  auto it = s.objects.find(key);
  if (it == s.objects.end()) return {Errc::not_found, key};
  const ObjectRec& rec = it->second;
  ReadOutcome out;
  out.size = rec.length;
  out.version = rec.version;
  if (want_digest) out.digest = probe_locked(rec, offset, len).digest;
  if (offset >= rec.length) return out;
  len = std::min(len, rec.length - offset);
  out.data.assign(len, std::byte{0});  // holes read as zero
  const std::uint64_t end = offset + len;
  for (const Extent& e : rec.extents) {
    const std::uint64_t e_end = e.log_off + e.len;
    if (e_end <= offset || e.log_off >= end) continue;
    const std::uint64_t lo = std::max(e.log_off, offset);
    const std::uint64_t hi = std::min(e_end, end);
    std::memcpy(out.data.data() + (lo - offset), e.bytes().data() + (lo - e.log_off), hi - lo);
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
  if (want_digest) out.digest = probe_locked(rec, offset, dst.size()).digest;
  if (offset >= rec.length || dst.empty()) return out;
  out.data_len = std::min<std::uint64_t>(dst.size(), rec.length - offset);
  const std::uint64_t end = offset + out.data_len;
  for (const Extent& e : rec.extents) {
    const std::uint64_t e_end = e.log_off + e.len;
    if (e_end <= offset || e.log_off >= end) continue;
    const std::uint64_t lo = std::max(e.log_off, offset);
    const std::uint64_t hi = std::min(e_end, end);
    std::memcpy(dst.data() + (lo - offset), e.bytes().data() + (lo - e.log_off), hi - lo);
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
  return probe_locked(it->second, offset, len);
}

SpanProbeOutcome StorageEngine::probe_locked(const ObjectRec& rec,
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
    if (content == 0) content = content_checksum(e.bytes().subspan(lo - e.log_off, hi - lo));
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
    // Drop extents fully past the new end; trim an extent straddling it.
    auto past = std::ranges::lower_bound(rec.extents, new_size, {}, &Extent::log_off);
    for (auto e = past; e != rec.extents.end(); ++e) retire_bytes(s, e->len);
    rec.extents.erase(past, rec.extents.end());
    if (!rec.extents.empty() && rec.extents.back().log_off + rec.extents.back().len > new_size) {
      Extent& last = rec.extents.back();
      retire_bytes(s, last.log_off + last.len - new_size);
      last.len = new_size - last.log_off;
      last.checksum = 0;
    }
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
  auto w = write_locked(s, key, 0, SharedBytes::copy_of(data), /*create_if_missing=*/true, 0);
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

std::uint64_t StorageEngine::buffer_bytes() const {
  std::uint64_t n = 0;
  std::unordered_set<const std::byte*> seen;
  for (const Shard& s : *shards_) {
    auto lk = lock(s);
    for (const auto& [key, rec] : s.objects) {
      for (const Extent& e : rec.extents) {
        if (seen.insert(e.buf.owner.get()).second) n += e.buf.size();
      }
    }
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
  // Only a partial extent's buffer also holds superseded or trimmed bytes:
  // moving the extent to a buffer of its own size lets the old one go once
  // no other extent (here or on another replica) references it.
  for (auto& [key, rec] : s.objects) {
    for (Extent& e : rec.extents) {
      if (e.buf_off == 0 && e.len == e.buf.size()) continue;
      e.buf = SharedBytes::copy_of(e.bytes());
      e.buf_off = 0;
      e.checksum = content_checksum(e.buf.view);
    }
  }
  return std::exchange(s.dead_bytes, 0);
}

Status StorageEngine::verify_integrity() const {
  for (const Shard& s : *shards_) {
    auto lk = lock(s);
    for (const auto& [key, rec] : s.objects) {
      auto st = verify_locked(key, rec);
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
  return verify_locked(key, it->second);
}

Status StorageEngine::verify_locked(const std::string& key, const ObjectRec& rec) {
  for (const Extent& e : rec.extents) {
    if (e.checksum == 0) continue;  // partial extents: checksum dropped
    if (content_checksum(e.bytes()) != e.checksum) {
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
        const ByteView data = e.bytes();
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
    rec.extents.push_back({.log_off = run.log_off, .len = run.data.size(),
                           .checksum = run.checksum,
                           .buf = SharedBytes::copy_of(as_view(run.data))});
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
  Extent& e = it->second.extents.front();
  // Copy-on-write: other replicas' engines may share the buffer and must
  // keep the original bytes. The fresh copy is this extent's alone.
  e.buf = SharedBytes::copy_of(e.buf.view);
  const_cast<std::byte&>(e.buf.view[e.buf_off]) ^= std::byte{0xff};
  return true;
}

}  // namespace bsc::blob
