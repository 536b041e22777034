#include "tracing.hpp"

#include <type_traits>

namespace perfbench {

using bsc::Bytes;
using bsc::ByteView;
using bsc::Errc;
using bsc::Result;
using bsc::Status;
namespace vfs = bsc::vfs;

namespace {

constexpr const char* kCallNames[] = {
    "vfs.open",     "vfs.close",   "vfs.read",     "vfs.write",     "vfs.sync",
    "vfs.truncate", "vfs.unlink",  "vfs.mkdir",    "vfs.rmdir",     "vfs.readdir",
    "vfs.stat",     "vfs.rename",  "vfs.chmod",    "vfs.getxattr",  "vfs.setxattr",
    "client.read",  "client.write"};
constexpr const char* kStageNames[] = {
    "stage.open",     "stage.close",  "stage.read",    "stage.write",    "stage.sync",
    "stage.truncate", "stage.unlink", "stage.mkdir",   "stage.rmdir",    "stage.readdir",
    "stage.stat",     "stage.rename", "stage.chmod",   "stage.getxattr", "stage.setxattr",
    "stage.blob_read", "stage.blob_write"};
static_assert(std::size(kCallNames) == static_cast<std::size_t>(Call::kCount));
static_assert(std::size(kStageNames) == static_cast<std::size_t>(Call::kCount));

template <typename R>
std::uint64_t payload_bytes(const R& r) {
  if constexpr (std::is_same_v<R, Result<Bytes>>) {
    return r.ok() ? r.value().size() : 0;
  } else if constexpr (std::is_same_v<R, Result<std::uint64_t>>) {
    return r.ok() ? r.value() : 0;
  } else {
    return 0;
  }
}

}  // namespace

const char* call_name(Call c) noexcept { return kCallNames[static_cast<std::size_t>(c)]; }

Recorder& Recorder::global() {
  static Recorder r;
  return r;
}

ThreadLog& Recorder::local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::scoped_lock lk(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
  }
  return *log;
}

std::vector<CallRec> Recorder::take_calls() {
  std::scoped_lock lk(mu_);
  std::vector<CallRec> out;
  for (auto& l : logs_) {
    out.insert(out.end(), l->calls.begin(), l->calls.end());
    l->calls = {};
  }
  return out;
}

std::vector<Span> Recorder::take_spans() {
  std::scoped_lock lk(mu_);
  std::vector<Span> out;
  for (auto& l : logs_) {
    out.insert(out.end(), l->spans.begin(), l->spans.end());
    l->spans = {};
  }
  return out;
}

void TimedFs::begin_run(std::uint64_t parent, std::uint64_t request,
                        std::function<void()> on_first_call) {
  parent_ = parent;
  request_ = request;
  on_first_call_ = std::move(on_first_call);
  staging_after_ns_.store(0, std::memory_order_relaxed);
  started_.store(false, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

template <typename R, typename Fn>
R TimedFs::timed(const vfs::IoCtx& ctx, Call kind, Fn&& fn) {
  Recorder& rec = Recorder::global();
  const bool staging = ctx.agent == nullptr;
  if (!staging && armed_.exchange(false, std::memory_order_acq_rel)) {
    if (on_first_call_) on_first_call_();
    started_.store(true, std::memory_order_release);
  }
  const std::int64_t s0 = staging ? 0 : ctx.agent->now();
  const std::int64_t t0 = now_ns();
  R r = fn();
  const std::int64_t t1 = now_ns();
  ThreadLog& log = rec.local();
  if (rec.tracing()) {
    log.spans.push_back(Span{rec.next_id(), parent_, request_,
                             (staging ? kStageNames : kCallNames)[static_cast<int>(kind)],
                             t0, t1});
  }
  if (staging) {
    if (started_.load(std::memory_order_acquire)) {
      staging_after_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
    }
    return r;
  }
  // A stat answering not_found is an answer (the apps probe for existence).
  const bool failed = !r.ok() && !(kind == Call::stat && r.code() == Errc::not_found);
  log.calls.push_back(
      CallRec{t1, t1 - t0, ctx.agent->now() - s0, payload_bytes(r), kind, failed});
  return r;
}

Result<vfs::FileHandle> TimedFs::open(const vfs::IoCtx& ctx, std::string_view path,
                                      vfs::OpenFlags flags, vfs::Mode mode) {
  return timed<Result<vfs::FileHandle>>(
      ctx, Call::open, [&] { return inner_->open(ctx, path, flags, mode); });
}
Status TimedFs::close(const vfs::IoCtx& ctx, vfs::FileHandle fh) {
  return timed<Status>(ctx, Call::close, [&] { return inner_->close(ctx, fh); });
}
Result<Bytes> TimedFs::read(const vfs::IoCtx& ctx, vfs::FileHandle fh,
                            std::uint64_t offset, std::uint64_t len) {
  return timed<Result<Bytes>>(ctx, Call::read,
                              [&] { return inner_->read(ctx, fh, offset, len); });
}
Result<std::uint64_t> TimedFs::write(const vfs::IoCtx& ctx, vfs::FileHandle fh,
                                     std::uint64_t offset, ByteView data) {
  return timed<Result<std::uint64_t>>(ctx, Call::write,
                                      [&] { return inner_->write(ctx, fh, offset, data); });
}
Status TimedFs::sync(const vfs::IoCtx& ctx, vfs::FileHandle fh) {
  return timed<Status>(ctx, Call::sync, [&] { return inner_->sync(ctx, fh); });
}
Status TimedFs::truncate(const vfs::IoCtx& ctx, std::string_view path,
                         std::uint64_t new_size) {
  return timed<Status>(ctx, Call::truncate,
                       [&] { return inner_->truncate(ctx, path, new_size); });
}
Status TimedFs::unlink(const vfs::IoCtx& ctx, std::string_view path) {
  return timed<Status>(ctx, Call::unlink, [&] { return inner_->unlink(ctx, path); });
}
Status TimedFs::mkdir(const vfs::IoCtx& ctx, std::string_view path, vfs::Mode mode) {
  return timed<Status>(ctx, Call::mkdir, [&] { return inner_->mkdir(ctx, path, mode); });
}
Status TimedFs::rmdir(const vfs::IoCtx& ctx, std::string_view path) {
  return timed<Status>(ctx, Call::rmdir, [&] { return inner_->rmdir(ctx, path); });
}
Result<std::vector<vfs::DirEntry>> TimedFs::readdir(const vfs::IoCtx& ctx,
                                                    std::string_view path) {
  return timed<Result<std::vector<vfs::DirEntry>>>(
      ctx, Call::readdir, [&] { return inner_->readdir(ctx, path); });
}
Result<vfs::FileInfo> TimedFs::stat(const vfs::IoCtx& ctx, std::string_view path) {
  return timed<Result<vfs::FileInfo>>(ctx, Call::stat,
                                      [&] { return inner_->stat(ctx, path); });
}
Status TimedFs::rename(const vfs::IoCtx& ctx, std::string_view from, std::string_view to) {
  return timed<Status>(ctx, Call::rename, [&] { return inner_->rename(ctx, from, to); });
}
Status TimedFs::chmod(const vfs::IoCtx& ctx, std::string_view path, vfs::Mode mode) {
  return timed<Status>(ctx, Call::chmod, [&] { return inner_->chmod(ctx, path, mode); });
}
Result<std::string> TimedFs::getxattr(const vfs::IoCtx& ctx, std::string_view path,
                                      std::string_view name) {
  return timed<Result<std::string>>(ctx, Call::getxattr,
                                    [&] { return inner_->getxattr(ctx, path, name); });
}
Status TimedFs::setxattr(const vfs::IoCtx& ctx, std::string_view path,
                         std::string_view name, std::string_view value) {
  return timed<Status>(ctx, Call::setxattr,
                       [&] { return inner_->setxattr(ctx, path, name, value); });
}

}  // namespace perfbench
