#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "perf/layer_clock.hpp"

namespace esg::sim {

const char* engine_name(EngineKind engine) {
  return engine == EngineKind::kHeap ? "heap" : "calendar";
}

std::optional<EngineKind> parse_engine(std::string_view name) {
  if (name == "heap") return EngineKind::kHeap;
  if (name == "calendar") return EngineKind::kCalendar;
  return std::nullopt;
}

EventHandle Simulator::schedule_in(TimeMs delay, Action action) {
  if (delay < 0.0) throw std::invalid_argument("Simulator: negative delay");
  return schedule_at(now_ + delay, std::move(action));
}

EventHandle Simulator::schedule_at(TimeMs when, Action action) {
  if (when < now_) throw std::invalid_argument("Simulator: schedule in the past");
  if (!action) throw std::invalid_argument("Simulator: empty action");
  const std::uint64_t seq = next_seq_++;
  if (engine_ == EngineKind::kHeap) {
    heap_.push(Entry{when, seq, std::move(action)});
  } else {
    calendar_.push(CalendarItem{when, seq, std::move(action)});
  }
  seq_state_.push_back(kSeqLive);  // index seq - 1: seqs are dense from 1
  ++counters_.events_scheduled;
  ++counters_.heap_pushes;
  return EventHandle(seq);
}

void Simulator::cancel(EventHandle handle) {
  if (!handle.valid()) return;
  // A handle whose event already fired (or was cancelled before) must stay a
  // no-op; recording it again would make pending() undercount forever.
  if (handle.seq_ > seq_state_.size()) return;
  std::uint8_t& state = seq_state_[handle.seq_ - 1];
  if (state != kSeqLive) return;
  state = kSeqCancelled;
  ++cancelled_;
  ++counters_.events_cancelled;
}

bool Simulator::pop_next(TimeMs& when, std::uint64_t& seq, Action& action) {
  if (engine_ == EngineKind::kHeap) {
    if (heap_.empty()) return false;
    // priority_queue::top is const; the entry is copied cheaply except for
    // the action, which we move out via const_cast before popping — the
    // entry is removed immediately after, so the moved-from state is never
    // observed.
    Entry& top = const_cast<Entry&>(heap_.top());
    when = top.when;
    seq = top.seq;
    action = std::move(top.action);
    heap_.pop();
  } else {
    if (calendar_.empty()) return false;
    CalendarItem item = calendar_.pop_min();
    when = item.when;
    seq = item.seq;
    action = std::move(item.action);
  }
  ++counters_.heap_pops;
  return true;
}

bool Simulator::peek_next(TimeMs& when, std::uint64_t& seq) {
  if (engine_ == EngineKind::kHeap) {
    if (heap_.empty()) return false;
    when = heap_.top().when;
    seq = heap_.top().seq;
    return true;
  }
  const CalendarItem* item = calendar_.peek();
  if (item == nullptr) return false;
  when = item->when;
  seq = item->seq;
  return true;
}

bool Simulator::consume_cancelled(std::uint64_t seq) {
  const std::uint8_t state =
      std::exchange(seq_state_[seq - 1], static_cast<std::uint8_t>(kSeqDone));
  if (state != kSeqCancelled) return false;
  check(cancelled_ > 0, "cancelled counter underflow");
  --cancelled_;
  return true;
}

bool Simulator::step() {
  TimeMs when = 0.0;
  std::uint64_t seq = 0;
  Action action;
  while (pop_next(when, seq, action)) {
    if (consume_cancelled(seq)) continue;
    check(when >= now_, "event queue went backwards in time");
    now_ = when;
    ++counters_.events_fired;
    action();
    return true;
  }
  return false;
}

std::size_t Simulator::run() {
  const perf::LayerScope layer(perf::Layer::kEngine);
  std::size_t fired = 0;
  while (step()) ++fired;
  return fired;
}

std::size_t Simulator::run_until(TimeMs deadline) {
  const perf::LayerScope layer(perf::Layer::kEngine);
  std::size_t fired = 0;
  TimeMs when = 0.0;
  std::uint64_t seq = 0;
  while (peek_next(when, seq)) {
    // Drop cancelled entries at the top so the time check sees a live event.
    if (seq_state_[seq - 1] == kSeqCancelled) {
      Action discarded;
      pop_next(when, seq, discarded);
      consume_cancelled(seq);
      continue;
    }
    if (when > deadline) break;
    if (step()) ++fired;
  }
  now_ = std::max(now_, deadline);
  return fired;
}

}  // namespace esg::sim
