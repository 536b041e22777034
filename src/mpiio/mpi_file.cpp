#include "mpiio/mpi_file.hpp"

#include <algorithm>

namespace bsc::mpiio {

namespace {
vfs::OpenFlags to_flags(AccessMode m) {
  vfs::OpenFlags f;
  f.read = m.rdonly || m.rdwr;
  f.write = m.wronly || m.rdwr;
  f.create = m.create;
  f.exclusive = m.excl;
  f.append = m.append;
  // MPI-IO has no O_TRUNC: files are truncated explicitly via
  // MPI_File_set_size, never implicitly on open.
  f.truncate = false;
  return f;
}
}  // namespace

Result<vfs::FileHandle> MpiIo::file_open(std::string_view path, AccessMode amode) {
  comm_->barrier(rank_, *ctx_.agent);
  auto fh = fs_->open(ctx_, path, to_flags(amode), vfs::kDefaultFileMode);
  // Collective completion: nobody proceeds until every rank's open landed.
  comm_->barrier(rank_, *ctx_.agent);
  return fh;
}

Status MpiIo::file_close(vfs::FileHandle fh) {
  comm_->yield(rank_, *ctx_.agent);
  auto st = fs_->close(ctx_, fh);
  comm_->barrier(rank_, *ctx_.agent);
  return st;
}

Status MpiIo::file_sync(vfs::FileHandle fh) {
  comm_->yield(rank_, *ctx_.agent);
  auto st = fs_->sync(ctx_, fh);
  comm_->barrier(rank_, *ctx_.agent);
  return st;
}

Result<Bytes> MpiIo::read_at(vfs::FileHandle fh, std::uint64_t offset, std::uint64_t len) {
  comm_->yield(rank_, *ctx_.agent);
  return fs_->read(ctx_, fh, viewed(fh, offset), len);
}

Result<std::uint64_t> MpiIo::write_at(vfs::FileHandle fh, std::uint64_t offset,
                                      ByteView data) {
  comm_->yield(rank_, *ctx_.agent);
  return fs_->write(ctx_, fh, viewed(fh, offset), data);
}

Result<std::uint64_t> MpiIo::write_at_all(vfs::FileHandle fh, std::uint64_t offset,
                                          ByteView data) {
  // Phase 1: exchange — every rank ships its piece toward the aggregator.
  Communicator::Piece mine;
  mine.rank = rank_;
  mine.offset = viewed(fh, offset);
  mine.data.assign(data.begin(), data.end());
  auto pieces = comm_->gather_pieces(rank_, *ctx_.agent, std::move(mine));

  // Phase 2: rank 0 coalesces adjacent pieces into contiguous runs and
  // issues one storage write per run (this is where collective I/O wins:
  // few large sequential calls instead of many strided ones).
  Status failure = Status::success();
  if (rank_ == 0) {
    std::sort(pieces.begin(), pieces.end(),
              [](const auto& a, const auto& b) { return a.offset < b.offset; });
    std::size_t i = 0;
    while (i < pieces.size()) {
      std::uint64_t run_off = pieces[i].offset;
      Bytes run = std::move(pieces[i].data);
      std::size_t j = i + 1;
      while (j < pieces.size() && pieces[j].offset == run_off + run.size()) {
        append(run, as_view(pieces[j].data));
        ++j;
      }
      comm_->yield(rank_, *ctx_.agent);
      auto w = fs_->write(ctx_, fh, run_off, as_view(run));
      if (!w.ok() && failure.ok()) failure = w.error();
      i = j;
    }
  }
  // Collective completion barrier: everyone observes the aggregated writes.
  comm_->barrier(rank_, *ctx_.agent);
  if (!failure.ok()) return failure.error();
  return data.size();
}

Result<Bytes> MpiIo::read_at_all(vfs::FileHandle fh, std::uint64_t offset,
                                 std::uint64_t len) {
  comm_->barrier(rank_, *ctx_.agent);
  auto r = fs_->read(ctx_, fh, viewed(fh, offset), len);
  comm_->barrier(rank_, *ctx_.agent);
  return r;
}

}  // namespace bsc::mpiio
