// What the benchmark records while it drives the stack: one CallRec per
// storage call (always — the end-to-end latencies come from these) and, in a
// traced run only, one Span per call plus its parent. Both go into per-thread
// logs that stay in memory until the workload ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "vfs/file_system.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Storage calls the benchmark times: the vfs calls of the apps' traced
/// phases, and the BlobClient primitives the blob workloads issue.
enum class Call : std::uint8_t {
  open, close, read, write, sync, truncate, unlink, mkdir, rmdir, readdir, stat,
  rename, chmod, getxattr, setxattr, blob_read, blob_write, kCount
};
[[nodiscard]] const char* call_name(Call c) noexcept;
/// Data calls move payload; everything else is a metadata call.
[[nodiscard]] inline bool is_data_call(Call c) noexcept {
  return c == Call::read || c == Call::write || c == Call::blob_read ||
         c == Call::blob_write;
}

struct CallRec {
  std::int64_t end_ns = 0;   ///< completion, steady clock
  std::int64_t wall_ns = 0;
  std::int64_t sim_us = 0;   ///< SimAgent clock delta across the call
  std::uint64_t bytes = 0;   ///< user payload read or written
  Call kind = Call::open;
  bool failed = false;
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by every span of one request
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct ThreadLog {
  std::vector<CallRec> calls;
  std::vector<Span> spans;
};

/// Process-wide set of per-thread logs. A thread appends to its own log
/// without locking; take_*() must only run while no writer is active (after
/// the load generators have joined).
class Recorder {
 public:
  static Recorder& global();

  ThreadLog& local();
  [[nodiscard]] std::vector<CallRec> take_calls();
  [[nodiscard]] std::vector<Span> take_spans();

  [[nodiscard]] bool tracing() const noexcept {
    return tracing_.load(std::memory_order_relaxed);
  }
  void set_tracing(bool on) noexcept { tracing_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t next_id() noexcept {
    return ids_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::atomic<bool> tracing_{false};
  std::atomic<std::uint64_t> ids_{1};
};

/// Timing decorator between the apps and BlobFs. Calls made with an
/// agent-less IoCtx are staging (untraced input provisioning and cleanup):
/// they count as set-up and leave no CallRec. Every other call leaves a
/// CallRec; every call leaves a Span under the current parent when tracing.
class TimedFs final : public bsc::vfs::FileSystem {
 public:
  explicit TimedFs(bsc::vfs::FileSystem& inner) : inner_(&inner) {}

  /// Start a new app run: spans hang under `parent` with request id
  /// `request`, and `on_first_call` fires once, just before the run's first
  /// agent-bearing call (the start of its traced phase).
  void begin_run(std::uint64_t parent, std::uint64_t request,
                 std::function<void()> on_first_call);
  /// Wall time of the staging calls issued after the run's traced phase
  /// began (Spark's untraced cleanup between apps).
  [[nodiscard]] std::int64_t staging_after_first_ns() const noexcept {
    return staging_after_ns_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::string backend_name() const override {
    return "timed:" + inner_->backend_name();
  }
  bsc::Result<bsc::vfs::FileHandle> open(const bsc::vfs::IoCtx& ctx, std::string_view path,
                                         bsc::vfs::OpenFlags flags,
                                         bsc::vfs::Mode mode) override;
  bsc::Status close(const bsc::vfs::IoCtx& ctx, bsc::vfs::FileHandle fh) override;
  bsc::Result<bsc::Bytes> read(const bsc::vfs::IoCtx& ctx, bsc::vfs::FileHandle fh,
                               std::uint64_t offset, std::uint64_t len) override;
  bsc::Result<std::uint64_t> write(const bsc::vfs::IoCtx& ctx, bsc::vfs::FileHandle fh,
                                   std::uint64_t offset, bsc::ByteView data) override;
  bsc::Status sync(const bsc::vfs::IoCtx& ctx, bsc::vfs::FileHandle fh) override;
  bsc::Status truncate(const bsc::vfs::IoCtx& ctx, std::string_view path,
                       std::uint64_t new_size) override;
  bsc::Status unlink(const bsc::vfs::IoCtx& ctx, std::string_view path) override;
  bsc::Status mkdir(const bsc::vfs::IoCtx& ctx, std::string_view path,
                    bsc::vfs::Mode mode) override;
  bsc::Status rmdir(const bsc::vfs::IoCtx& ctx, std::string_view path) override;
  bsc::Result<std::vector<bsc::vfs::DirEntry>> readdir(const bsc::vfs::IoCtx& ctx,
                                                       std::string_view path) override;
  bsc::Result<bsc::vfs::FileInfo> stat(const bsc::vfs::IoCtx& ctx,
                                       std::string_view path) override;
  bsc::Status rename(const bsc::vfs::IoCtx& ctx, std::string_view from,
                     std::string_view to) override;
  bsc::Status chmod(const bsc::vfs::IoCtx& ctx, std::string_view path,
                    bsc::vfs::Mode mode) override;
  bsc::Result<std::string> getxattr(const bsc::vfs::IoCtx& ctx, std::string_view path,
                                    std::string_view name) override;
  bsc::Status setxattr(const bsc::vfs::IoCtx& ctx, std::string_view path,
                       std::string_view name, std::string_view value) override;

 private:
  template <typename R, typename Fn>
  R timed(const bsc::vfs::IoCtx& ctx, Call kind, Fn&& fn);

  bsc::vfs::FileSystem* inner_;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
  std::function<void()> on_first_call_;
  std::atomic<bool> armed_{false};    ///< on_first_call_ not yet fired
  std::atomic<bool> started_{false};  ///< the traced phase has begun
  std::atomic<std::int64_t> staging_after_ns_{0};
};

}  // namespace perfbench
