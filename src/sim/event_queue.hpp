/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Drives every time-dependent component in the reproduction: meters poll,
 * pub/sub buses deliver, controllers tick, UPS batteries accumulate
 * overload, and workloads vary their power — all as events on a single
 * deterministic queue.
 *
 * The pending set is a two-level calendar queue. Near-future events land
 * in a fixed wheel of time buckets (O(1) insert, short linear scan per
 * pop); far-future events overflow into a heap that refills the wheel
 * whenever it drains. Timer-heavy rooms (thousands of periodic polls
 * within a few seconds of now) never pay a per-event log factor.
 *
 * Callbacks live in a generation-tagged slot table, not in the queue
 * entries: an id names a slot and the generation it was issued under,
 * so liveness is one array read and a fired or cancelled id can never
 * touch the slot's next tenant. Periodic timers are native entries that
 * keep their slot across ticks, so a steady-state tick allocates
 * nothing.
 */
#ifndef FLEX_SIM_EVENT_QUEUE_HPP_
#define FLEX_SIM_EVENT_QUEUE_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/units.hpp"

namespace flex::sim {

/**
 * Handle used to cancel a scheduled event: the slot index in the low 32
 * bits, the slot's generation (which starts at 1) in the high 32. No
 * event ever has id 0, so callers may use 0 to mean "none".
 */
using EventId = std::uint64_t;

/** Handle used to remove an installed observer. */
using ObserverId = std::uint64_t;

/**
 * A deterministic discrete-event queue.
 *
 * Events at equal timestamps fire in scheduling order (FIFO), which makes
 * multi-controller races reproducible. Cancellation frees the event's
 * slot at once; its queue entry goes stale and is skipped when reached.
 */
class EventQueue {
 public:
  using Callback = std::function<void()>;
  /** A periodic timer's body; returning false stops the timer. */
  using PeriodicCallback = std::function<bool()>;
  /** Invoked after every executed event with the event's timestamp. */
  using Observer = std::function<void(Seconds)>;

  EventQueue();

  /** Current simulated time. */
  Seconds Now() const { return now_; }

  /**
   * Installs an observer called after each executed event. Observers must
   * not schedule or cancel events (they watch the simulation, they do not
   * steer it); the invariant monitor in src/fault and the metrics layer
   * in src/obs are the main clients. Observers fire in installation
   * order. @return a handle for RemoveObserver().
   */
  ObserverId AddObserver(Observer observer);

  /** Removes an observer; removing a missing handle is a no-op. */
  void RemoveObserver(ObserverId id);

  /** Number of installed observers. */
  std::size_t observer_count() const { return observers_.size(); }

  /** Total events executed over the queue's lifetime. */
  std::uint64_t executed_count() const { return executed_count_; }

  /**
   * Schedules @p callback to run @p delay after the current time.
   * @return an id usable with Cancel().
   */
  EventId Schedule(Seconds delay, Callback callback);

  /** Schedules @p callback at absolute time @p when (finite, >= Now()). */
  EventId ScheduleAt(Seconds when, Callback callback);

  /**
   * Runs @p callback every @p period (finite, > 0), first at Now() +
   * period, until it returns false. Each tick re-inserts the timer at
   * its fire time + period with a sequence number drawn after the
   * callback returns, so it orders exactly like a one-shot that
   * reschedules itself as its last act: events the callback schedules
   * for the next tick's instant fire before that tick. The callback
   * runs in place; it may schedule further events and timers.
   */
  void SchedulePeriodic(Seconds period, PeriodicCallback callback);

  /**
   * Cancels a pending one-shot event; cancelling a fired or cancelled id,
   * 0, or an id the queue never issued is a no-op.
   */
  void Cancel(EventId id);

  /** True when no runnable events remain. */
  bool Empty() const { return live_slots_ == 0; }

  /**
   * Number of pending (non-cancelled) events; an installed periodic
   * timer counts as one.
   */
  std::size_t PendingCount() const { return live_slots_; }

  /**
   * Runs events until the queue drains or @p horizon is reached, whichever
   * comes first. Time advances to the horizon even if the queue drains
   * earlier, so repeated RunUntil calls tile a timeline predictably:
   * RunUntil(t1); RunUntil(t2) executes the exact event sequence of a
   * single RunUntil(t2). This is the epoch-bounded run API the fleet
   * engine advances its lanes with — each lane tiles its own timeline
   * into fixed epochs and the barriers merge between tiles.
   * @return the number of events executed.
   */
  std::size_t RunUntil(Seconds horizon);

  /**
   * Timestamp of the earliest still-runnable event, or +infinity when
   * none is pending. Purely observational with respect to the event
   * trace (cancelled entries encountered on the way are discarded, which
   * is invisible to execution order), so an epoch driver can poll it
   * between RunUntil tiles to detect drained lanes or skip empty epochs
   * without perturbing determinism.
   */
  Seconds NextEventTime();

  /** Runs a single event if one is pending. @return true if one ran. */
  bool Step();

  /** Runs until the queue is fully drained. @return events executed. */
  std::size_t RunAll();

 private:
  /** A queue position. Trivially copyable: the callback is in the slot. */
  struct Entry {
    Seconds when;
    std::uint64_t sequence;  // tie-break: FIFO at equal timestamps
    EventId id;
  };

  /** One event's callback, live while its generation matches the id. */
  struct Slot {
    std::uint32_t generation = 1;  // bumped on release: stale ids miss
    bool live = false;
    Seconds period{0.0};  // > 0: a periodic timer
    Callback callback;    // one-shot body
    PeriodicCallback tick;  // periodic body
  };

  /** A wheel entry, linked into its bucket's list. */
  struct Node {
    Entry entry;
    std::uint32_t next;  // next node in the bucket (or free) list
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Later {
    bool
    operator()(const Entry& a, const Entry& b) const
    {
      if (a.when != b.when)
        return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  struct ObserverEntry {
    ObserverId id;
    Observer callback;
  };

  // Calendar geometry. The wheel spans kNumBuckets * kBucketWidth
  // seconds (51.2 s) of simulated time from wheel_start_; everything
  // later waits in far_heap_ until the wheel advances onto it. Bucket
  // width is sized so a room's periodic timers (0.5–5 s periods) spread
  // across many buckets instead of piling into one.
  static constexpr std::size_t kNumBuckets = 1024;
  static constexpr double kBucketWidth = 0.05;
  // Slots are allocated in fixed chunks that never move, so a periodic
  // callback runs in place even while it schedules (and adds slots).
  static constexpr std::size_t kSlotChunk = 256;

  /** Takes a free slot (or grows the table). @return its new id. */
  EventId AcquireSlot();
  /** Frees @p id's slot: bumps its generation and drops its callbacks. */
  void ReleaseSlot(EventId id);
  Slot& SlotAt(std::size_t index)
  {
    return slot_chunks_[index / kSlotChunk][index % kSlotChunk];
  }
  /** The slot @p id names, or nullptr if @p id is not pending. */
  Slot* LiveSlot(EventId id);
  void Insert(Entry entry);
  /** Links @p entry into bucket @p bucket, reusing a free node. */
  void PushToBucket(std::size_t bucket, const Entry& entry);
  /**
   * Pops the earliest live event if its timestamp is <= @p horizon
   * (pass infinity for "any") and runs it, re-inserting a periodic
   * timer that asks for another tick. @return false when nothing
   * runnable is within the horizon.
   */
  bool Dispatch(double horizon);
  /**
   * Locates the earliest live entry: unlinks stale entries from the
   * buckets it scans, advances the cursor over drained buckets and
   * rebases the wheel from the far heap as needed. @return the link
   * that points at its node (a bucket head or a node's next), or
   * nullptr when drained.
   */
  std::uint32_t* FindEarliest();
  /** Moves the wheel onto the earliest far-heap event. @return false if none. */
  bool AdvanceWheel();
  void NotifyObservers(Seconds when);

  // wheel_entries_ counts entries resident in buckets,
  // live or stale (stale ones are discovered and dropped during bucket
  // scans). Invariant: far_heap_ holds only events at or beyond
  // wheel_start_ + kNumBuckets * kBucketWidth, re-established each time
  // AdvanceWheel() rebases the wheel. Events scheduled before
  // wheel_start_ (possible right after an advance) clamp into bucket 0,
  // which therefore covers "everything up to wheel_start_ + width" — the
  // min-scan keeps ordering exact regardless.
  //
  // Every bucket is a list threaded through one node pool, so the
  // buckets share capacity: the pool grows only when the wheel holds
  // more entries than ever before, not whenever one bucket does.
  std::vector<std::uint32_t> bucket_heads_;  // kNil: empty bucket
  std::vector<Node> nodes_;
  std::uint32_t free_nodes_ = kNil;  // head of the free-node list
  std::priority_queue<Entry, std::vector<Entry>, Later> far_heap_;
  double wheel_start_ = 0.0;
  std::size_t cursor_ = 0;         // first possibly-nonempty bucket
  std::size_t wheel_entries_ = 0;  // entries resident in buckets

  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  std::size_t slot_count_ = 0;             // slots ever handed out
  std::vector<std::uint32_t> free_slots_;  // released slot indices, LIFO
  std::size_t live_slots_ = 0;             // pending events and timers
  Seconds now_{0.0};
  std::uint64_t next_sequence_ = 0;
  std::vector<ObserverEntry> observers_;  // in installation order
  ObserverId next_observer_id_ = 1;
  std::uint64_t executed_count_ = 0;
};

}  // namespace flex::sim

#endif  // FLEX_SIM_EVENT_QUEUE_HPP_
