// A minimal MPI-like communicator for the workload models: real threads are
// the ranks; barriers synchronize both the threads (std::barrier) and their
// simulated clocks (everyone advances to the latest arrival plus the
// simulated cost of the barrier's reduction tree).
//
// With a sim::AgentScheduler attached, the ranks also take turns in
// simulated-time order: MpiIo calls `yield` before each storage call, and
// every collective gives the turn up while it waits and takes it back after.
#pragma once

#include <barrier>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/bytes.hpp"
#include "sim/agent_scheduler.hpp"
#include "sim/net_model.hpp"
#include "sim/sim_clock.hpp"

namespace bsc::mpiio {

class Communicator {
 public:
  /// `net` models the interconnect used for barriers/exchanges. `scheduler`,
  /// when given, must span `size` agents (one per rank) and outlive this.
  Communicator(std::uint32_t size, const sim::NetModel& net,
               sim::AgentScheduler* scheduler = nullptr);

  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }

  /// Wait until `rank` may touch shared state at its agent's current time
  /// (returns at once without a scheduler).
  void yield(std::uint32_t rank, const sim::SimAgent& agent);

  /// MPI_Barrier: blocks the calling thread until all ranks arrive; advances
  /// every agent to the slowest arrival plus a log2(n) reduction-tree cost.
  void barrier(std::uint32_t rank, sim::SimAgent& agent);

  /// Gather (offset, payload) pairs at rank 0 — the data exchange of
  /// two-phase collective I/O. Every rank must call it. Returns, at rank 0
  /// only, all deposited pieces; other ranks get an empty vector. Charges
  /// the senders their transfer cost and rank 0 the receive cost.
  struct Piece {
    std::uint32_t rank = 0;
    std::uint64_t offset = 0;
    Bytes data;
  };
  std::vector<Piece> gather_pieces(std::uint32_t rank, sim::SimAgent& agent, Piece piece);

  /// Allgather of one u64 per rank (e.g. local block sizes for offset
  /// coordination). Returns the vector indexed by rank, on every rank.
  std::vector<std::uint64_t> allgather_u64(std::uint32_t rank, sim::SimAgent& agent,
                                           std::uint64_t value);

  [[nodiscard]] SimMicros barrier_cost() const noexcept;

 private:
  /// The thread-level half of every collective: give the turn up, wait for
  /// all ranks, and run the phase completion.
  void arrive_and_wait(std::uint32_t rank);

  std::uint32_t size_;
  const sim::NetModel* net_;
  sim::AgentScheduler* scheduler_;

  std::mutex mu_;
  SimMicros max_pending_ = 0;
  SimMicros max_published_ = 0;
  std::vector<Piece> gather_buf_;
  std::vector<Piece> gather_out_;
  std::vector<std::uint64_t> ag_buf_;
  std::vector<std::uint64_t> ag_out_;
  std::uint64_t gather_bytes_total_ = 0;
  std::uint64_t gather_bytes_published_ = 0;
  std::barrier<std::function<void()>> bar_;
};

}  // namespace bsc::mpiio
