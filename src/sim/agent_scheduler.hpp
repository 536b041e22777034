// Conservative simulated-time scheduler for a fixed group of agents that run
// on their own threads (the ranks of one MPI communicator).
//
// Free-running threads book SimNode service windows in wall-clock order, so
// a request issued later in wall time but earlier in simulated time queues
// behind windows reserved "in the future", and the outcome depends on how
// the host schedules the threads. The scheduler removes that dependence: at
// most one agent runs at a time, and whenever the turn is free it goes to the
// ready agent with the lowest (simulated time, agent id). Shared resources
// are therefore touched in simulated-time order, up to a fixed lookahead
// window, and the whole run is a deterministic function of its inputs
// (conservative discrete-event simulation with a single turn and a
// synchronization quantum).
//
// Protocol, per agent thread:
//   yield(id, now)   before each operation on shared state: waits for the
//                    turn, then holds it until its next call into here;
//   block(id)        before a collective that waits for the other agents
//                    (an MPI barrier): gives the turn up; after the
//                    collective returns, call yield again;
//   finish(id)       when the agent is done for good.
//
// Agents start "starting": no turn is granted until every agent has either
// registered with yield or blocked. A collective that every live agent has
// blocked in is about to release them all, so those agents go back to
// "starting" and the next turn waits until all of them have re-registered.
// This assumes collectives span all live agents, as MPI communicators do.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/units.hpp"

namespace bsc::sim {

class AgentScheduler {
 public:
  /// An agent granted the turn keeps it while its clock stays below the next
  /// ready agent's clock plus this window, so ranks in lockstep hand over
  /// once per window rather than once per call. Bookings inside the window
  /// may be out of simulated-time order, by less than the window.
  static constexpr SimMicros kLookaheadUs = 5000;

  explicit AgentScheduler(std::uint32_t agents);

  AgentScheduler(const AgentScheduler&) = delete;
  AgentScheduler& operator=(const AgentScheduler&) = delete;

  /// Register agent `id` as ready at simulated time `now` and wait until it
  /// holds the turn.
  void yield(std::uint32_t id, SimMicros now);

  /// Agent `id` enters a collective: release the turn without waiting.
  void block(std::uint32_t id);

  /// Agent `id` is done: release the turn and leave the group.
  void finish(std::uint32_t id);

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(agents_.size());
  }

 private:
  enum class State : std::uint8_t { starting, ready, running, blocked, done };
  struct Agent {
    State state = State::starting;
    SimMicros now = 0;
    std::condition_variable cv;  ///< signalled when this agent gets the turn
  };

  /// Hand the turn to the lowest ready agent if nobody holds it and no agent
  /// is still on its way back from a collective. Called with `mu_` held;
  /// returns the agent to wake (after unlocking), or null.
  Agent* grant_locked();

  std::mutex mu_;
  std::vector<Agent> agents_;
  SimMicros horizon_ = 0;  ///< the running agent keeps the turn below this
};

}  // namespace bsc::sim
