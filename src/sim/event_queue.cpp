#include "event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace flex::sim {

namespace {

std::size_t
SlotIndex(EventId id)
{
  return static_cast<std::size_t>(id & 0xffffffffu);
}

std::uint32_t
SlotGeneration(EventId id)
{
  return static_cast<std::uint32_t>(id >> 32);
}

}  // namespace

EventQueue::EventQueue() : bucket_heads_(kNumBuckets, kNil) {}

EventId
EventQueue::Schedule(Seconds delay, Callback callback)
{
  FLEX_REQUIRE(std::isfinite(delay.value()), "event 'delay' must be finite");
  FLEX_REQUIRE(delay.value() >= 0.0, "cannot schedule in the past");
  return ScheduleAt(now_ + delay, std::move(callback));
}

EventId
EventQueue::ScheduleAt(Seconds when, Callback callback)
{
  FLEX_REQUIRE(std::isfinite(when.value()), "event 'when' must be finite");
  FLEX_REQUIRE(when >= now_, "cannot schedule before the current time");
  FLEX_REQUIRE(static_cast<bool>(callback), "null event callback");
  const EventId id = AcquireSlot();
  SlotAt(SlotIndex(id)).callback = std::move(callback);
  Insert(Entry{when, next_sequence_++, id});
  return id;
}

void
EventQueue::SchedulePeriodic(Seconds period, PeriodicCallback callback)
{
  FLEX_REQUIRE(std::isfinite(period.value()) && period.value() > 0.0,
               "periodic 'period' must be finite and positive");
  FLEX_REQUIRE(static_cast<bool>(callback), "null periodic callback");
  const EventId id = AcquireSlot();
  Slot& slot = SlotAt(SlotIndex(id));
  slot.period = period;
  slot.tick = std::move(callback);
  Insert(Entry{now_ + period, next_sequence_++, id});
}

EventId
EventQueue::AcquireSlot()
{
  std::size_t index = 0;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    FLEX_CHECK_MSG(slot_count_ <= std::numeric_limits<std::uint32_t>::max(),
                   "event slot table full");
    if (slot_count_ % kSlotChunk == 0)
      slot_chunks_.push_back(std::make_unique<Slot[]>(kSlotChunk));
    index = slot_count_++;
  }
  Slot& slot = SlotAt(index);
  slot.live = true;
  ++live_slots_;
  return (static_cast<EventId>(slot.generation) << 32) | index;
}

void
EventQueue::ReleaseSlot(EventId id)
{
  const std::size_t index = SlotIndex(id);
  Slot& slot = SlotAt(index);
  slot.live = false;
  if (++slot.generation == 0)
    slot.generation = 1;  // 0 is never issued
  slot.period = Seconds(0.0);
  slot.callback = nullptr;
  slot.tick = nullptr;
  free_slots_.push_back(static_cast<std::uint32_t>(index));
  --live_slots_;
}

EventQueue::Slot*
EventQueue::LiveSlot(EventId id)
{
  const std::size_t index = SlotIndex(id);
  if (index >= slot_count_)
    return nullptr;
  Slot& slot = SlotAt(index);
  return slot.live && slot.generation == SlotGeneration(id) ? &slot
                                                             : nullptr;
}

void
EventQueue::Insert(Entry entry)
{
  const double when = entry.when.value();
  const double wheel_end = wheel_start_ + kNumBuckets * kBucketWidth;
  if (when >= wheel_end) {
    far_heap_.push(entry);
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
  PushToBucket(idx, entry);
  if (idx < cursor_)
    cursor_ = idx;  // never let the cursor skip a newly earlier event
}

void
EventQueue::PushToBucket(std::size_t bucket, const Entry& entry)
{
  std::uint32_t node = free_nodes_;
  if (node != kNil) {
    free_nodes_ = nodes_[node].next;
  } else {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  // Order within a bucket is irrelevant: pops take the (when, seq) min.
  nodes_[node] = Node{entry, bucket_heads_[bucket]};
  bucket_heads_[bucket] = node;
  ++wheel_entries_;
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
  // The slot frees now; its entry goes stale and is dropped when a scan
  // reaches it. Periodic timers stop only by returning false.
  const Slot* slot = LiveSlot(id);
  if (slot != nullptr && slot->period.value() == 0.0)
    ReleaseSlot(id);
}

bool
EventQueue::AdvanceWheel()
{
  // Prune stale entries first so the wheel rebases onto a live one.
  while (!far_heap_.empty() && LiveSlot(far_heap_.top().id) == nullptr)
    far_heap_.pop();
  if (far_heap_.empty())
    return false;
  wheel_start_ = far_heap_.top().when.value();
  cursor_ = 0;
  // The earliest entry always moves, straight into bucket 0: far enough
  // out, wheel_end rounds back to wheel_start_, and a rebase that moved
  // nothing would spin forever.
  PushToBucket(0, far_heap_.top());
  far_heap_.pop();
  const double wheel_end = wheel_start_ + kNumBuckets * kBucketWidth;
  // Drain everything now inside the wheel window into buckets, keeping
  // the invariant that far_heap_ only holds events at or past wheel_end.
  while (!far_heap_.empty() && far_heap_.top().when.value() < wheel_end) {
    const Entry entry = far_heap_.top();
    far_heap_.pop();
    if (LiveSlot(entry.id) != nullptr)
      Insert(entry);
  }
  return true;
}

std::uint32_t*
EventQueue::FindEarliest()
{
  for (;;) {
    while (wheel_entries_ > 0 && cursor_ < kNumBuckets) {
      // One pass: unlink stale entries, track the live (when, seq) min.
      std::uint32_t* best = nullptr;
      std::uint32_t* link = &bucket_heads_[cursor_];
      while (*link != kNil) {
        Node& node = nodes_[*link];
        if (LiveSlot(node.entry.id) == nullptr) {
          const std::uint32_t stale = *link;
          *link = node.next;
          node.next = free_nodes_;
          free_nodes_ = stale;
          --wheel_entries_;
          continue;
        }
        if (best == nullptr) {
          best = link;
        } else {
          const Entry& min = nodes_[*best].entry;
          if (node.entry.when < min.when ||
              (node.entry.when == min.when &&
               node.entry.sequence < min.sequence))
            best = link;
        }
        link = &node.next;
      }
      if (best != nullptr)
        return best;
      ++cursor_;
    }
    // Wheel exhausted (only tombstones may remain in passed buckets).
    if (!AdvanceWheel())
      return nullptr;
  }
}

bool
EventQueue::Dispatch(double horizon)
{
  std::uint32_t* link = FindEarliest();
  if (link == nullptr || nodes_[*link].entry.when.value() > horizon)
    return false;
  const std::uint32_t node = *link;
  const Entry entry = nodes_[node].entry;
  *link = nodes_[node].next;
  nodes_[node].next = free_nodes_;
  free_nodes_ = node;
  --wheel_entries_;
  now_ = entry.when;
  Slot& slot = SlotAt(SlotIndex(entry.id));
  if (slot.period.value() > 0.0) {
    // A periodic timer runs in place (slots never move) and draws its
    // next sequence number only after the callback returns.
    if (slot.tick())
      Insert(Entry{now_ + slot.period, next_sequence_++, entry.id});
    else
      ReleaseSlot(entry.id);
  } else {
    // A one-shot's slot is free before its callback runs, so the body
    // moves out first: the callback may schedule into the same slot.
    const Callback callback = std::move(slot.callback);
    ReleaseSlot(entry.id);
    callback();
  }
  ++executed_count_;
  NotifyObservers(now_);
  return true;
}

Seconds
EventQueue::NextEventTime()
{
  const std::uint32_t* link = FindEarliest();
  return Seconds(link != nullptr ? nodes_[*link].entry.when.value()
                                 : std::numeric_limits<double>::infinity());
}

std::size_t
EventQueue::RunUntil(Seconds horizon)
{
  FLEX_REQUIRE(horizon >= now_, "horizon is in the past");
  std::size_t executed = 0;
  while (Dispatch(horizon.value()))
    ++executed;
  now_ = horizon;
  return executed;
}

bool
EventQueue::Step()
{
  return Dispatch(std::numeric_limits<double>::infinity());
}

std::size_t
EventQueue::RunAll()
{
  std::size_t executed = 0;
  while (Step())
    ++executed;
  return executed;
}

}  // namespace flex::sim
