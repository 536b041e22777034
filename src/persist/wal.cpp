#include "persist/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/hash.hpp"
#include "obs/metrics.hpp"
#include "persist/checkpoint.hpp"

namespace bsc::persist {

namespace {

/// Hard cap on one record's body; anything larger is treated as corruption
/// (a garbage length prefix must not make the scanner allocate gigabytes).
constexpr std::uint64_t kMaxBodyBytes = 1ULL << 30;

/// Journal series. Unlike the simulated-time series elsewhere, append/fsync
/// latencies here are real wall-clock microseconds — the WAL does real I/O.
struct WalMetrics {
  obs::Counter& appends;
  obs::Counter& flushes;
  obs::Counter& flushed_bytes;
  obs::Counter& fsyncs;
  obs::ShardedHistogram& append_us;
  obs::ShardedHistogram& fsync_us;
  obs::ShardedHistogram& batch_records;  ///< group-commit batch sizes
};

WalMetrics& wal_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static WalMetrics m{reg.counter("wal.appends"),       reg.counter("wal.flushes"),
                      reg.counter("wal.flushed_bytes"), reg.counter("wal.fsyncs"),
                      reg.histogram("wal.append_us"),   reg.histogram("wal.fsync_us"),
                      reg.histogram("wal.batch_records")};
  return m;
}

std::uint64_t wall_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr std::size_t kRecordHeaderBytes = 12;  // u32 len + u64 checksum

/// Fixed body fields: op(1) lsn(8) key_len(4) offset(8) size(8) flags(1).
constexpr std::size_t kBodyFixedBytes = 30;

Result<Bytes> read_whole_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {Errc::not_found, path};
  std::fseek(f, 0, SEEK_END);
  const long sz = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  Bytes out(sz > 0 ? static_cast<std::size_t>(sz) : 0);
  if (!out.empty() && std::fread(out.data(), 1, out.size(), f) != out.size()) {
    std::fclose(f);
    return {Errc::io_error, "short read: " + path};
  }
  std::fclose(f);
  return out;
}

}  // namespace

std::string wal_path(const std::string& dir) { return dir + "/wal.log"; }

void encode_record(const WalRecord& rec, Bytes& out) {
  Bytes body;
  body.reserve(kBodyFixedBytes + rec.key.size() + rec.data.size());
  put_u8(body, static_cast<std::uint8_t>(rec.op));
  put_u64(body, rec.lsn);
  put_u32(body, static_cast<std::uint32_t>(rec.key.size()));
  append(body, as_view(to_bytes(rec.key)));
  put_u64(body, rec.offset);
  put_u64(body, rec.size);
  put_u8(body, rec.create_if_missing ? 1 : 0);
  append(body, as_view(rec.data));

  put_u32(out, static_cast<std::uint32_t>(body.size()));
  put_u64(out, content_checksum(as_view(body)));
  append(out, as_view(body));
}

WalScanResult scan_wal(const std::string& path) {
  WalScanResult out;
  auto file = read_whole_file(path);
  if (!file.ok()) return out;  // missing log = empty log
  const ByteView buf = as_view(file.value());

  std::uint64_t pos = 0;
  std::uint64_t prev_lsn = 0;
  while (pos < buf.size()) {
    Cursor hdr{buf, static_cast<std::size_t>(pos)};
    if (buf.size() - pos < kRecordHeaderBytes) {
      out.tail_torn = true;
      out.tail_reason = "short record header";
      break;
    }
    const std::uint32_t body_len = hdr.u32();
    const std::uint64_t checksum = hdr.u64();
    if (body_len < kBodyFixedBytes || body_len > kMaxBodyBytes) {
      out.tail_torn = true;
      out.tail_reason = "implausible record length";
      break;
    }
    if (buf.size() - hdr.pos < body_len) {
      out.tail_torn = true;
      out.tail_reason = "torn record body";
      break;
    }
    const ByteView body = buf.subspan(hdr.pos, body_len);
    if (content_checksum(body) != checksum) {
      out.tail_torn = true;
      out.tail_reason = "record checksum mismatch";
      break;
    }

    Cursor c{body};
    WalRecord rec;
    rec.op = static_cast<WalOp>(c.u8());
    rec.lsn = c.u64();
    const std::uint32_t key_len = c.u32();
    if (key_len > c.remaining()) {
      out.tail_torn = true;
      out.tail_reason = "key length past body";
      break;
    }
    rec.key = bsc::to_string(c.take(key_len));
    rec.offset = c.u64();
    rec.size = c.u64();
    rec.create_if_missing = c.u8() != 0;
    if (!c.ok) {
      out.tail_torn = true;
      out.tail_reason = "malformed record body";
      break;
    }
    const ByteView payload = c.take(c.remaining());
    rec.data.assign(payload.begin(), payload.end());
    if (rec.op < WalOp::create || rec.op > WalOp::set_version || rec.lsn <= prev_lsn) {
      out.tail_torn = true;
      out.tail_reason = rec.lsn <= prev_lsn ? "non-monotonic lsn" : "unknown op";
      break;
    }
    prev_lsn = rec.lsn;
    pos = hdr.pos + body_len;
    out.records.push_back(std::move(rec));
    out.record_ends.push_back(pos);
  }
  out.valid_bytes = pos;
  return out;
}

Result<std::unique_ptr<Journal>> Journal::open(const std::string& dir, JournalConfig cfg) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return {Errc::io_error, "cannot create " + dir + ": " + ec.message()};

  const std::string path = wal_path(dir);
  std::uint64_t last_lsn = 0;
  if (std::filesystem::exists(path)) {
    WalScanResult scan = scan_wal(path);
    if (!scan.records.empty()) last_lsn = scan.records.back().lsn;
    if (scan.tail_torn) {
      // Drop the torn tail so new appends extend a clean prefix.
      std::filesystem::resize_file(path, scan.valid_bytes, ec);
      if (ec) return {Errc::io_error, "cannot truncate torn tail: " + ec.message()};
    }
  }
  // Post-checkpoint records must sort after the checkpoint even when the
  // log was pruned, so the sequence also advances past any snapshot.
  last_lsn = std::max(last_lsn, newest_checkpoint_lsn(dir));

  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) return {Errc::io_error, path + ": " + std::strerror(errno)};
  return std::unique_ptr<Journal>(new Journal(dir, cfg, fd, last_lsn + 1));
}

Journal::~Journal() {
  if (fd_ >= 0) {
    (void)flush_buffer(/*do_fsync=*/cfg_.fsync != FsyncPolicy::none);  // clean shutdown
    ::close(fd_);
  }
}

Status Journal::flush_buffer(bool do_fsync) {
  if (fd_ < 0) return {Errc::closed, "journal closed"};
  const std::uint64_t flushing = buf_.size();
  const std::uint64_t batch = buf_records_;
  const std::byte* p = buf_.data();
  std::size_t left = buf_.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return {Errc::io_error, std::string("wal write: ") + std::strerror(errno)};
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  buf_.clear();
  buf_records_ = 0;
  auto& m = wal_metrics();
  if (flushing > 0) {
    m.flushes.inc();
    m.flushed_bytes.add(flushing);
    m.batch_records.add(batch);
  }
  if (do_fsync) {
    const bool timed = obs::metrics_enabled();
    const std::uint64_t t0 = timed ? wall_now_us() : 0;
    if (::fsync(fd_) != 0) {
      return {Errc::io_error, std::string("wal fsync: ") + std::strerror(errno)};
    }
    ++fsync_count_;
    m.fsyncs.inc();
    if (timed) m.fsync_us.add(wall_now_us() - t0);
  }
  return Status::success();
}

Status Journal::append(WalRecord rec) {
  std::scoped_lock lk(mu_);
  if (fd_ < 0) return {Errc::closed, "journal closed"};
  const bool timed = obs::metrics_enabled();
  const std::uint64_t t0 = timed ? wall_now_us() : 0;
  rec.lsn = next_lsn_++;
  encode_record(rec, buf_);
  ++buf_records_;
  ++append_count_;
  Status st = [&]() -> Status {
    switch (cfg_.fsync) {
      case FsyncPolicy::always:
        return flush_buffer(true);
      case FsyncPolicy::none:
        return flush_buffer(false);
      case FsyncPolicy::group:
        if (buf_records_ >= cfg_.group_records || buf_.size() >= cfg_.group_bytes) {
          return flush_buffer(true);
        }
        return Status::success();
    }
    return Status::success();
  }();
  auto& m = wal_metrics();
  m.appends.inc();
  if (timed) m.append_us.add(wall_now_us() - t0);
  return st;
}

Status Journal::sync() {
  std::scoped_lock lk(mu_);
  return flush_buffer(true);
}

void Journal::abandon() {
  std::scoped_lock lk(mu_);
  buf_.clear();
  buf_records_ = 0;
  if (fd_ >= 0) {
    ::close(fd_);  // no flush, no fsync: the crash loses the open batch
    fd_ = -1;
  }
}

Status Journal::truncate_log() {
  std::scoped_lock lk(mu_);
  if (fd_ < 0) return {Errc::closed, "journal closed"};
  buf_.clear();
  buf_records_ = 0;
  if (::ftruncate(fd_, 0) != 0) {
    return {Errc::io_error, std::string("wal truncate: ") + std::strerror(errno)};
  }
  if (::fsync(fd_) != 0) {
    return {Errc::io_error, std::string("wal fsync: ") + std::strerror(errno)};
  }
  ++fsync_count_;
  return Status::success();
}

}  // namespace bsc::persist
