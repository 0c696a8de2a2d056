#include "event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/error.hpp"

namespace flex::sim {

EventQueue::EventQueue() : buckets_(kNumBuckets) {}

EventId
EventQueue::Schedule(Seconds delay, Callback callback)
{
  FLEX_REQUIRE(delay.value() >= 0.0, "cannot schedule in the past");
  return ScheduleAt(now_ + delay, std::move(callback));
}

EventId
EventQueue::ScheduleAt(Seconds when, Callback callback)
{
  FLEX_REQUIRE(when >= now_, "cannot schedule before the current time");
  FLEX_REQUIRE(static_cast<bool>(callback), "null event callback");
  const EventId id = next_id_++;
  Insert(Entry{when, next_sequence_++, id, std::move(callback)});
  pending_.insert(id);
  return id;
}

void
EventQueue::Insert(Entry entry)
{
  const double when = entry.when.value();
  const double wheel_end = wheel_start_ + kNumBuckets * kBucketWidth;
  if (when >= wheel_end) {
    far_heap_.push(std::move(entry));
    return;
  }
  // Events before wheel_start_ (scheduled after an advance rebased the
  // wheel onto a later far-heap event) clamp into bucket 0.
  std::size_t idx = 0;
  if (when > wheel_start_) {
    idx = static_cast<std::size_t>((when - wheel_start_) / kBucketWidth);
    if (idx >= kNumBuckets)
      idx = kNumBuckets - 1;  // guard the when ~= wheel_end rounding edge
  }
  buckets_[idx].push_back(std::move(entry));
  ++wheel_entries_;
  if (idx < cursor_)
    cursor_ = idx;  // never let the cursor skip a newly earlier event
}

ObserverId
EventQueue::AddObserver(Observer observer)
{
  FLEX_REQUIRE(static_cast<bool>(observer), "null observer");
  const ObserverId id = next_observer_id_++;
  observers_.push_back(ObserverEntry{id, std::move(observer)});
  return id;
}

void
EventQueue::RemoveObserver(ObserverId id)
{
  observers_.erase(std::remove_if(observers_.begin(), observers_.end(),
                                  [id](const ObserverEntry& entry) {
                                    return entry.id == id;
                                  }),
                   observers_.end());
}

void
EventQueue::NotifyObservers(Seconds when)
{
  // Index loop: an observer may remove itself (or others) mid-dispatch.
  for (std::size_t i = 0; i < observers_.size(); ++i)
    observers_[i].callback(when);
}

void
EventQueue::Cancel(EventId id)
{
  // Lazy cancellation: the entry stays in its container and is skipped
  // when reached because its id is no longer pending.
  pending_.erase(id);
}

bool
EventQueue::AdvanceWheel()
{
  // Prune cancelled events first so the wheel rebases onto a live one.
  while (!far_heap_.empty() && pending_.count(far_heap_.top().id) == 0)
    far_heap_.pop();
  if (far_heap_.empty())
    return false;
  wheel_start_ = far_heap_.top().when.value();
  cursor_ = 0;
  const double wheel_end = wheel_start_ + kNumBuckets * kBucketWidth;
  // Drain everything now inside the wheel window into buckets, keeping
  // the invariant that far_heap_ only holds events at or past wheel_end.
  while (!far_heap_.empty() && far_heap_.top().when.value() < wheel_end) {
    Entry entry = far_heap_.top();
    far_heap_.pop();
    if (pending_.count(entry.id) == 0)
      continue;
    Insert(std::move(entry));
  }
  return true;
}

std::vector<EventQueue::Entry>*
EventQueue::FindEarliest(std::size_t* index)
{
  for (;;) {
    while (wheel_entries_ > 0 && cursor_ < kNumBuckets) {
      std::vector<Entry>& bucket = buckets_[cursor_];
      // One pass: drop cancelled entries, track the live (when, seq) min.
      std::size_t best = bucket.size();
      std::size_t write = 0;
      for (std::size_t read = 0; read < bucket.size(); ++read) {
        if (pending_.count(bucket[read].id) == 0) {
          --wheel_entries_;
          continue;  // cancelled: compact it away
        }
        if (write != read)
          bucket[write] = std::move(bucket[read]);
        if (best == bucket.size() ||
            bucket[write].when < bucket[best].when ||
            (bucket[write].when == bucket[best].when &&
             bucket[write].sequence < bucket[best].sequence))
          best = write;
        ++write;
      }
      bucket.resize(write);
      if (bucket.empty()) {
        ++cursor_;
        continue;
      }
      *index = best;
      return &bucket;
    }
    // Wheel exhausted (only tombstones may remain in passed buckets).
    if (!AdvanceWheel())
      return nullptr;
  }
}

bool
EventQueue::PopEarliest(double horizon, Entry& out)
{
  std::size_t best = 0;
  std::vector<Entry>* bucket = FindEarliest(&best);
  if (bucket == nullptr || (*bucket)[best].when.value() > horizon)
    return false;
  out = std::move((*bucket)[best]);
  (*bucket)[best] = std::move(bucket->back());
  bucket->pop_back();
  --wheel_entries_;
  pending_.erase(out.id);
  return true;
}

Seconds
EventQueue::NextEventTime()
{
  std::size_t best = 0;
  const std::vector<Entry>* bucket = FindEarliest(&best);
  return Seconds(bucket != nullptr ? (*bucket)[best].when.value()
                                   : std::numeric_limits<double>::infinity());
}

std::size_t
EventQueue::RunUntil(Seconds horizon)
{
  FLEX_REQUIRE(horizon >= now_, "horizon is in the past");
  std::size_t executed = 0;
  Entry entry;
  while (PopEarliest(horizon.value(), entry)) {
    now_ = entry.when;
    entry.callback();
    ++executed;
    ++executed_count_;
    NotifyObservers(now_);
  }
  now_ = horizon;
  return executed;
}

bool
EventQueue::Step()
{
  Entry entry;
  if (!PopEarliest(std::numeric_limits<double>::infinity(), entry))
    return false;
  now_ = entry.when;
  entry.callback();
  ++executed_count_;
  NotifyObservers(now_);
  return true;
}

std::size_t
EventQueue::RunAll()
{
  std::size_t executed = 0;
  while (Step())
    ++executed;
  return executed;
}

void
SchedulePeriodic(EventQueue& queue, Seconds period,
                 std::function<bool()> callback)
{
  FLEX_REQUIRE(period.value() > 0.0, "periodic events need positive period");
  // Self-rescheduling wrapper; stops when the callback returns false.
  struct Ticker {
    EventQueue* queue;
    Seconds period;
    std::function<bool()> callback;

    void
    Run(const std::shared_ptr<Ticker>& self)
    {
      if (callback())
        queue->Schedule(period, [self] { self->Run(self); });
    }
  };
  auto ticker =
      std::make_shared<Ticker>(Ticker{&queue, period, std::move(callback)});
  queue.Schedule(period, [ticker] { ticker->Run(ticker); });
}

}  // namespace flex::sim
