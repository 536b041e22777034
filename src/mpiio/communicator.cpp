#include "mpiio/communicator.hpp"

#include <bit>
#include <utility>

namespace bsc::mpiio {

Communicator::Communicator(std::uint32_t size, const sim::NetModel& net,
                           sim::AgentScheduler* scheduler)
    : size_(size ? size : 1),
      net_(&net),
      scheduler_(scheduler),
      bar_(static_cast<std::ptrdiff_t>(size_), [this] {
        // Completion runs exactly once per phase, after all ranks arrived
        // and before any is released: publish the phase maximum and stage
        // the gathered pieces, then clear the accumulators for the next
        // phase. Published values stay stable until every rank re-enters
        // a later phase, which cannot happen before it has read them.
        max_published_ = max_pending_;
        max_pending_ = 0;
        gather_out_ = std::move(gather_buf_);
        gather_buf_.clear();
        gather_bytes_published_ = gather_bytes_total_;
        gather_bytes_total_ = 0;
        ag_out_ = std::move(ag_buf_);
        ag_buf_.assign(size_, 0);
      }) {
  ag_buf_.assign(size_, 0);
}

void Communicator::yield(std::uint32_t rank, const sim::SimAgent& agent) {
  if (scheduler_ != nullptr) scheduler_->yield(rank, agent.now());
}

void Communicator::arrive_and_wait(std::uint32_t rank) {
  if (scheduler_ != nullptr) scheduler_->block(rank);
  bar_.arrive_and_wait();
}

std::vector<std::uint64_t> Communicator::allgather_u64(std::uint32_t rank,
                                                       sim::SimAgent& agent,
                                                       std::uint64_t value) {
  {
    std::scoped_lock lk(mu_);
    max_pending_ = std::max(max_pending_, agent.now());
    if (ag_buf_.size() != size_) ag_buf_.assign(size_, 0);
    ag_buf_[rank] = value;
  }
  arrive_and_wait(rank);
  // Ring/recursive-doubling cost, like the barrier plus one word per rank.
  agent.advance_to(max_published_ + barrier_cost() +
                   net_->transfer_us(8ULL * size_));
  std::vector<std::uint64_t> out;
  {
    std::scoped_lock lk(mu_);
    out = ag_out_;
  }
  yield(rank, agent);
  return out;
}

SimMicros Communicator::barrier_cost() const noexcept {
  const auto rounds = static_cast<SimMicros>(std::bit_width(size_ - 1));
  return rounds * net_->profile().rtt_us;
}

void Communicator::barrier(std::uint32_t rank, sim::SimAgent& agent) {
  {
    std::scoped_lock lk(mu_);
    max_pending_ = std::max(max_pending_, agent.now());
  }
  arrive_and_wait(rank);
  agent.advance_to(max_published_ + barrier_cost());
  yield(rank, agent);
}

std::vector<Communicator::Piece> Communicator::gather_pieces(std::uint32_t rank,
                                                             sim::SimAgent& agent,
                                                             Piece piece) {
  const std::uint64_t bytes = piece.data.size();
  {
    std::scoped_lock lk(mu_);
    max_pending_ = std::max(max_pending_, agent.now() + net_->transfer_us(bytes));
    gather_bytes_total_ += bytes;
    gather_buf_.push_back(std::move(piece));
  }
  // Senders pay their own transfer before blocking.
  agent.charge(net_->transfer_us(rank == 0 ? 0 : bytes));
  arrive_and_wait(rank);
  agent.advance_to(max_published_);
  std::vector<Piece> out;
  if (rank == 0) {
    {
      std::scoped_lock lk(mu_);
      out = std::move(gather_out_);
    }
    // Root additionally pays the serialized share of the aggregate receive.
    agent.charge(net_->transfer_us(gather_bytes_published_) /
                 std::max<std::uint32_t>(1, size_));
  }
  yield(rank, agent);
  return out;
}

}  // namespace bsc::mpiio
