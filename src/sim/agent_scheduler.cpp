#include "sim/agent_scheduler.hpp"

#include <algorithm>
#include <limits>

namespace bsc::sim {

AgentScheduler::AgentScheduler(std::uint32_t agents)
    : agents_(std::max<std::uint32_t>(1, agents)) {}

void AgentScheduler::yield(std::uint32_t id, SimMicros now) {
  std::unique_lock lk(mu_);
  Agent& self = agents_[id];
  self.now = now;
  if (self.state == State::running && now < horizon_) return;
  self.state = State::ready;
  Agent* next = grant_locked();
  if (next == &self) return;  // still the earliest: keep the turn
  if (next != nullptr) next->cv.notify_one();
  self.cv.wait(lk, [&] { return self.state == State::running; });
}

void AgentScheduler::block(std::uint32_t id) {
  Agent* next = nullptr;
  {
    std::scoped_lock lk(mu_);
    agents_[id].state = State::blocked;
    const bool all_blocked = std::ranges::all_of(agents_, [](const Agent& a) {
      return a.state == State::blocked || a.state == State::done;
    });
    if (all_blocked) {
      // The collective is complete: everyone in it is about to be released
      // and must re-register before the next turn is granted.
      for (Agent& a : agents_) {
        if (a.state == State::blocked) a.state = State::starting;
      }
    }
    next = grant_locked();
  }
  if (next != nullptr) next->cv.notify_one();
}

void AgentScheduler::finish(std::uint32_t id) {
  Agent* next = nullptr;
  {
    std::scoped_lock lk(mu_);
    agents_[id].state = State::done;
    next = grant_locked();
  }
  if (next != nullptr) next->cv.notify_one();
}

AgentScheduler::Agent* AgentScheduler::grant_locked() {
  Agent* next = nullptr;
  for (Agent& a : agents_) {
    if (a.state == State::running || a.state == State::starting) return nullptr;
    // Strict `<` keeps the lowest id among equal times.
    if (a.state == State::ready && (next == nullptr || a.now < next->now)) next = &a;
  }
  if (next == nullptr) return nullptr;
  next->state = State::running;
  horizon_ = std::numeric_limits<SimMicros>::max();
  for (const Agent& a : agents_) {
    if (&a != next && a.state == State::ready) {
      horizon_ = std::min(horizon_, a.now + kLookaheadUs);
    }
  }
  return next;
}

}  // namespace bsc::sim
