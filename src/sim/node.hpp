// A simulated cluster node: a single-server queue with an atomic
// busy-until timestamp, plus an attached disk model for storage nodes.
//
// The queueing discipline is work-conserving FCFS in *simulated* time:
// a request arriving (in simulated time) while the node is busy starts when
// the node frees up. Because real threads race to reserve service windows,
// the reservation is a CAS loop — the result is a linearizable sequence of
// non-overlapping service intervals, which is exactly a single-server queue.
// Free-running threads book windows in wall-clock order, so their simulated
// times depend on the host; agents that must be reproducible take turns
// through a sim::AgentScheduler and book in simulated-time order.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "sim/disk_model.hpp"
#include "sim/page_cache.hpp"

namespace bsc::sim {

enum class NodeRole { compute, storage, metadata };

/// Bounded-backlog admission policy for a node. Both limits default to 0 =
/// unbounded (the pre-overload-control behavior). A request arriving while
/// the queueing delay exceeds `max_queue_us`, or while the estimated number
/// of waiting requests exceeds `max_queue_depth`, should be shed by the
/// transport (Errc::overloaded) instead of joining the queue — queueing past
/// the caller's patience converts capacity into dead work.
struct OverloadConfig {
  SimMicros max_queue_us = 0;         ///< max backlog in simulated time (0 = off)
  std::uint64_t max_queue_depth = 0;  ///< max estimated queued requests (0 = off)
};

class SimNode {
 public:
  SimNode(std::uint32_t id, NodeRole role, DiskParams disk = DiskParams::hdd_250gb(),
          std::uint64_t page_cache_bytes = 48ULL << 20)
      : id_(id), role_(role), disk_(disk), cache_(page_cache_bytes) {}

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] NodeRole role() const noexcept { return role_; }
  [[nodiscard]] const DiskModel& disk() const noexcept { return disk_; }
  /// Node-local page cache shared by every storage service on the node.
  [[nodiscard]] PageCache& cache() noexcept { return cache_; }

  /// Reserve a service window of `service_us` starting no earlier than
  /// `arrival_us`. Returns the completion time. Thread-safe.
  SimMicros serve(SimMicros arrival_us, SimMicros service_us) noexcept;

  /// Total busy time accumulated (for utilization reporting).
  [[nodiscard]] SimMicros busy_total() const noexcept {
    return busy_total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

  // --- bounded backlog (admission control) ---

  /// Install the admission policy. Fields are stored as relaxed atomics so a
  /// test/bench can flip limits while agents run; no ordering is implied.
  void set_overload(OverloadConfig cfg) noexcept {
    max_queue_us_.store(cfg.max_queue_us, std::memory_order_relaxed);
    max_queue_depth_.store(cfg.max_queue_depth, std::memory_order_relaxed);
  }
  [[nodiscard]] OverloadConfig overload() const noexcept {
    return {max_queue_us_.load(std::memory_order_relaxed),
            max_queue_depth_.load(std::memory_order_relaxed)};
  }

  /// Queueing delay a request arriving at `now` would suffer before service
  /// starts (0 when the node is idle at `now`).
  [[nodiscard]] SimMicros queue_delay(SimMicros now) const noexcept {
    const SimMicros busy = busy_until_.load(std::memory_order_relaxed);
    return busy > now ? busy - now : 0;
  }

  /// Estimated requests currently waiting: backlog time divided by the mean
  /// observed service time. The queue holds reservations, not a list, so
  /// this is an estimator — good enough for a depth cap.
  [[nodiscard]] std::uint64_t estimated_queue_depth(SimMicros now) const noexcept;

  /// True when a request arriving at `now` exceeds the installed backlog
  /// bounds and should be shed instead of queued.
  [[nodiscard]] bool would_shed(SimMicros now) const noexcept;

  /// Shed accounting (incremented by the transport on every shed verdict).
  void note_shed() noexcept { sheds_.fetch_add(1, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t sheds() const noexcept {
    return sheds_.load(std::memory_order_relaxed);
  }

  /// Reset queue state between experiments.
  void reset() noexcept;

 private:
  std::uint32_t id_;
  NodeRole role_;
  DiskModel disk_;
  PageCache cache_;
  std::atomic<SimMicros> busy_until_{0};
  std::atomic<SimMicros> busy_total_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<SimMicros> max_queue_us_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
  std::atomic<std::uint64_t> sheds_{0};
};

}  // namespace bsc::sim
