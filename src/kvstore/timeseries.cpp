#include "kvstore/timeseries.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/strings.hpp"
#include "rpc/wire.hpp"

namespace bsc::kvstore {

TimeSeriesStore::TimeSeriesStore(blob::BlobStore& store, std::string name, TsConfig cfg)
    : store_(&store), name_(std::move(name)), cfg_(cfg) {
  if (cfg_.points_per_segment == 0) cfg_.points_per_segment = 1;
}

std::string TimeSeriesStore::desc_key(std::string_view series) const {
  return strfmt("ts!%s!%.*s", name_.c_str(), static_cast<int>(series.size()),
                series.data());
}

std::string TimeSeriesStore::seg_key(std::string_view series, std::uint64_t seg) const {
  return strfmt("ts!%s!%.*s!seg-%06llu", name_.c_str(), static_cast<int>(series.size()),
                series.data(), static_cast<unsigned long long>(seg));
}

Bytes TimeSeriesStore::encode_descriptor(const Descriptor& d) {
  rpc::WireWriter w;
  w.put_u64(d.segments);
  w.put_u64(d.last_fill);
  w.put_i64(d.last_timestamp);
  return std::move(w).take();
}

Result<TimeSeriesStore::Descriptor> TimeSeriesStore::load_descriptor(
    blob::BlobClient& client, std::string_view series, blob::Version* version) {
  // One read round: the reply pairs the descriptor with the version it was
  // served at. It asks for the whole blob (one chunk at most, the reply is
  // clipped at EOF), so the read needs no copy of the descriptor's size.
  const std::uint64_t cb = store_->config().chunk_bytes;
  blob::BlobStat served;
  auto data = client.read(desc_key(series), 0,
                          cb > 0 ? cb : std::numeric_limits<std::uint64_t>::max(), &served);
  if (!data.ok()) {
    if (data.code() != Errc::not_found) return data.error();
    if (version) *version = 0;
    return Descriptor{};
  }
  if (version) *version = served.version;
  rpc::WireReader r(as_view(data.value()));
  auto segments = r.get_u64();
  auto fill = r.get_u64();
  auto last_ts = r.get_i64();
  if (!segments.ok() || !fill.ok() || !last_ts.ok()) {
    return {Errc::io_error, "corrupt series descriptor"};
  }
  return Descriptor{segments.value(), fill.value(), last_ts.value()};
}

Bytes TimeSeriesStore::encode_points(const std::vector<TsPoint>& pts, std::size_t from,
                                     std::size_t n) {
  Bytes out(n * kPointBytes);
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * kPointBytes, &pts[from + i].timestamp, 8);
    std::memcpy(out.data() + i * kPointBytes + 8, &pts[from + i].value, 8);
  }
  return out;
}

Result<std::vector<TsPoint>> TimeSeriesStore::read_segment(blob::BlobClient& client,
                                                           std::string_view series,
                                                           std::uint64_t seg,
                                                           std::uint64_t fill) {
  auto data = client.read(seg_key(series, seg), 0, fill * kPointBytes);
  if (!data.ok()) return data.error();
  const std::uint64_t n = data.value().size() / kPointBytes;
  std::vector<TsPoint> pts(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::memcpy(&pts[i].timestamp, data.value().data() + i * kPointBytes, 8);
    std::memcpy(&pts[i].value, data.value().data() + i * kPointBytes + 8, 8);
  }
  return pts;
}

Status TimeSeriesStore::append(sim::SimAgent& agent, std::string_view series,
                               TsPoint point) {
  return append_batch(agent, series, {point});
}

Status TimeSeriesStore::append_batch(sim::SimAgent& agent, std::string_view series,
                                     const std::vector<TsPoint>& points) {
  if (points.empty()) return Status::success();
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].timestamp < points[i - 1].timestamp) {
      return {Errc::invalid_argument, "timestamps must be non-decreasing"};
    }
  }
  blob::BlobClient client(*store_, &agent);
  for (std::uint32_t attempt = 0; attempt < cfg_.max_txn_retries; ++attempt) {
    blob::Version version = 0;
    auto desc_r = load_descriptor(client, series, &version);
    if (!desc_r.ok()) return desc_r.error();
    Descriptor d = desc_r.value();
    if (points.front().timestamp < d.last_timestamp) {
      return {Errc::invalid_argument, "timestamps must be non-decreasing"};
    }

    // Lay the batch into segments, committing point data + descriptor in
    // one transaction.
    auto txn = client.begin_transaction();
    std::size_t written = 0;
    Descriptor nd = d;
    if (nd.segments == 0) {
      nd.segments = 1;
      nd.last_fill = 0;
    }
    while (written < points.size()) {
      if (nd.last_fill == cfg_.points_per_segment) {
        ++nd.segments;
        nd.last_fill = 0;
      }
      const std::size_t room = cfg_.points_per_segment - nd.last_fill;
      const std::size_t n = std::min(room, points.size() - written);
      txn.write(seg_key(series, nd.segments - 1), nd.last_fill * kPointBytes,
                as_view(encode_points(points, written, n)));
      nd.last_fill += n;
      written += n;
    }
    nd.last_timestamp = points.back().timestamp;
    txn.expect_version(desc_key(series), version);
    txn.write(desc_key(series), 0, as_view(encode_descriptor(nd)));
    auto st = txn.commit();
    if (st.ok()) return Status::success();
    if (st.code() != Errc::conflict) return st;
  }
  return {Errc::conflict, "append retries exhausted"};
}

Result<std::vector<TsPoint>> TimeSeriesStore::query(sim::SimAgent& agent,
                                                    std::string_view series,
                                                    std::int64_t t0, std::int64_t t1) {
  blob::BlobClient client(*store_, &agent);
  auto desc_r = load_descriptor(client, series, nullptr);
  if (!desc_r.ok()) return desc_r.error();
  const Descriptor d = desc_r.value();
  std::vector<TsPoint> out;
  if (d.segments == 0 || t1 < t0) return out;

  // Segments are time-ordered; skip those entirely outside the range by
  // peeking at their first timestamp (cheap 16-byte reads).
  for (std::uint64_t seg = 0; seg < d.segments; ++seg) {
    const std::uint64_t fill =
        seg + 1 == d.segments ? d.last_fill : cfg_.points_per_segment;
    if (fill == 0) continue;
    auto head = client.read(seg_key(series, seg), 0, kPointBytes);
    if (!head.ok()) return head.error();
    std::int64_t first_ts = 0;
    std::memcpy(&first_ts, head.value().data(), 8);
    if (first_ts > t1) break;  // everything later is out of range
    auto pts = read_segment(client, series, seg, fill);
    if (!pts.ok()) return pts.error();
    if (!pts.value().empty() && pts.value().back().timestamp < t0) continue;
    for (const TsPoint& p : pts.value()) {
      if (p.timestamp >= t0 && p.timestamp <= t1) out.push_back(p);
    }
  }
  return out;
}

Result<TsAggregate> TimeSeriesStore::aggregate(sim::SimAgent& agent,
                                               std::string_view series, std::int64_t t0,
                                               std::int64_t t1) {
  auto pts = query(agent, series, t0, t1);
  if (!pts.ok()) return pts.error();
  TsAggregate agg;
  agg.min = std::numeric_limits<double>::infinity();
  agg.max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (const TsPoint& p : pts.value()) {
    ++agg.count;
    sum += p.value;
    agg.min = std::min(agg.min, p.value);
    agg.max = std::max(agg.max, p.value);
  }
  if (agg.count == 0) {
    agg.min = agg.max = 0.0;
  } else {
    agg.mean = sum / static_cast<double>(agg.count);
  }
  return agg;
}

Result<std::uint64_t> TimeSeriesStore::point_count(sim::SimAgent& agent,
                                                   std::string_view series) {
  blob::BlobClient client(*store_, &agent);
  auto desc_r = load_descriptor(client, series, nullptr);
  if (!desc_r.ok()) return desc_r.error();
  const Descriptor d = desc_r.value();
  if (d.segments == 0) return std::uint64_t{0};
  return (d.segments - 1) * cfg_.points_per_segment + d.last_fill;
}

Result<std::vector<std::string>> TimeSeriesStore::list_series(sim::SimAgent& agent) {
  blob::BlobClient client(*store_, &agent);
  const std::string prefix = strfmt("ts!%s!", name_.c_str());
  auto blobs = client.scan(prefix);
  if (!blobs.ok()) return blobs.error();
  std::vector<std::string> out;
  for (const auto& b : blobs.value()) {
    std::string_view rest{b.key};
    rest.remove_prefix(prefix.size());
    if (rest.find("!seg-") != std::string_view::npos) continue;  // segment blob
    out.emplace_back(rest);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace bsc::kvstore
