/**
 * @file
 * Unit tests for the discrete-event simulation kernel.
 */
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"

namespace flex::sim {
namespace {

TEST(EventQueueTest, RunsEventsInTimeOrder)
{
  EventQueue q;
  std::vector<int> order;
  q.Schedule(Seconds(3.0), [&] { order.push_back(3); });
  q.Schedule(Seconds(1.0), [&] { order.push_back(1); });
  q.Schedule(Seconds(2.0), [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_NEAR(q.Now().value(), 3.0, 1e-12);
}

TEST(EventQueueTest, EqualTimestampsFireFifo)
{
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    q.Schedule(Seconds(1.0), [&order, i] { order.push_back(i); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, RunUntilStopsAtHorizon)
{
  EventQueue q;
  int fired = 0;
  q.Schedule(Seconds(1.0), [&] { ++fired; });
  q.Schedule(Seconds(5.0), [&] { ++fired; });
  const std::size_t executed = q.RunUntil(Seconds(2.0));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_NEAR(q.Now().value(), 2.0, 1e-12);
  EXPECT_EQ(q.PendingCount(), 1u);
  q.RunUntil(Seconds(10.0));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, TimeAdvancesToHorizonEvenWhenIdle)
{
  EventQueue q;
  q.RunUntil(Seconds(42.0));
  EXPECT_NEAR(q.Now().value(), 42.0, 1e-12);
}

TEST(EventQueueTest, NextEventTimeTracksEarliestPendingAcrossBackends)
{
  EventQueue q;
  EXPECT_TRUE(std::isinf(q.NextEventTime().value()));
  // Far event lands in the overflow heap, near event in the calendar
  // wheel; NextEventTime must report the minimum across both.
  q.Schedule(Seconds(5000.0), [] {});
  EXPECT_NEAR(q.NextEventTime().value(), 5000.0, 1e-12);
  const EventId near = q.Schedule(Seconds(1.0), [] {});
  EXPECT_NEAR(q.NextEventTime().value(), 1.0, 1e-12);
  q.Cancel(near);
  EXPECT_NEAR(q.NextEventTime().value(), 5000.0, 1e-12);
  q.RunAll();
  EXPECT_TRUE(std::isinf(q.NextEventTime().value()));
}

TEST(EventQueueTest, RunUntilTilesExactly)
{
  // The fleet engine drives each room in fixed epochs; a tiled drive
  // RunUntil(t1); RunUntil(t2) must be indistinguishable from one
  // RunUntil(t2), including events landing exactly on a tile boundary.
  std::vector<double> tiled;
  std::vector<double> whole;
  const auto load = [](EventQueue& q, std::vector<double>& out) {
    for (double t : {0.5, 2.0, 2.5, 3.999, 4.0, 7.25})
      q.ScheduleAt(Seconds(t), [&out, &q] { out.push_back(q.Now().value()); });
  };
  EventQueue a;
  load(a, tiled);
  std::size_t tiled_count = 0;
  for (double h = 2.0; h <= 8.0; h += 2.0)
    tiled_count += a.RunUntil(Seconds(h));
  EventQueue b;
  load(b, whole);
  const std::size_t whole_count = b.RunUntil(Seconds(8.0));
  EXPECT_EQ(tiled_count, whole_count);
  EXPECT_EQ(tiled, whole);
  EXPECT_NEAR(a.Now().value(), b.Now().value(), 1e-12);
}

TEST(EventQueueTest, CancelPreventsExecution)
{
  EventQueue q;
  int fired = 0;
  const EventId id = q.Schedule(Seconds(1.0), [&] { ++fired; });
  q.Schedule(Seconds(2.0), [&] { ++fired; });
  q.Cancel(id);
  q.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelIsIdempotentAndToleratesBadIds)
{
  EventQueue q;
  int fired = 0;
  const EventId id = q.Schedule(Seconds(1.0), [] {});
  const EventId kept = q.Schedule(Seconds(1.0), [&] { ++fired; });
  q.Cancel(id);
  q.Cancel(id);
  // Generations start at 1, so no event has id 0 and callers may hold 0
  // to mean "no event": cancelling it leaves every live event alone.
  EXPECT_NE(kept, 0u);
  q.Cancel(0);
  q.Cancel(9999);
  EXPECT_EQ(q.PendingCount(), 1u);
  EXPECT_NO_THROW(q.RunAll());
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents)
{
  EventQueue q;
  std::vector<double> times;
  q.Schedule(Seconds(1.0), [&] {
    times.push_back(q.Now().value());
    q.Schedule(Seconds(1.0), [&] { times.push_back(q.Now().value()); });
  });
  q.RunAll();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_NEAR(times[0], 1.0, 1e-12);
  EXPECT_NEAR(times[1], 2.0, 1e-12);
}

TEST(EventQueueTest, ScheduleAtAbsoluteTime)
{
  EventQueue q;
  q.RunUntil(Seconds(5.0));
  double fired_at = -1.0;
  q.ScheduleAt(Seconds(8.0), [&] { fired_at = q.Now().value(); });
  EXPECT_THROW(q.ScheduleAt(Seconds(3.0), [] {}), ConfigError);
  q.RunAll();
  EXPECT_NEAR(fired_at, 8.0, 1e-12);
}

TEST(EventQueueTest, RejectsNegativeDelay)
{
  EventQueue q;
  EXPECT_THROW(q.Schedule(Seconds(-1.0), [] {}), ConfigError);
}

TEST(EventQueueTest, StepRunsExactlyOneEvent)
{
  EventQueue q;
  int fired = 0;
  q.Schedule(Seconds(1.0), [&] { ++fired; });
  q.Schedule(Seconds(2.0), [&] { ++fired; });
  EXPECT_TRUE(q.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.Step());
  EXPECT_FALSE(q.Step());
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, PeriodicTicksUntilCallbackReturnsFalse)
{
  EventQueue q;
  int ticks = 0;
  q.SchedulePeriodic(Seconds(1.5), [&] {
    ++ticks;
    return ticks < 4;
  });
  q.RunUntil(Seconds(100.0));
  EXPECT_EQ(ticks, 4);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, PeriodicTickSpacingMatchesPeriod)
{
  EventQueue q;
  std::vector<double> times;
  q.SchedulePeriodic(Seconds(2.0), [&] {
    times.push_back(q.Now().value());
    return times.size() < 3;
  });
  q.RunAll();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_NEAR(times[0], 2.0, 1e-12);
  EXPECT_NEAR(times[1], 4.0, 1e-12);
  EXPECT_NEAR(times[2], 6.0, 1e-12);
}

TEST(EventQueueTest, PendingCountTracksLiveEvents)
{
  EventQueue q;
  const EventId a = q.Schedule(Seconds(1.0), [] {});
  q.Schedule(Seconds(2.0), [] {});
  EXPECT_EQ(q.PendingCount(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.PendingCount(), 1u);
  q.RunAll();
  EXPECT_EQ(q.PendingCount(), 0u);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, RejectsNonFiniteTimesInsteadOfHanging)
{
  // A +inf entry is one the wheel can never rebase onto: once the wheel
  // drained, RunUntil would spin instead of returning.
  EventQueue q;
  int fired = 0;
  q.Schedule(Seconds(1.0), [&] { ++fired; });
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto error_of = [](const std::function<void()>& schedule) {
    try {
      schedule();
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(error_of([&] { q.ScheduleAt(Seconds(inf), [] {}); }).find("when"),
            std::string::npos);
  EXPECT_NE(error_of([&] { q.ScheduleAt(Seconds(nan), [] {}); }).find("when"),
            std::string::npos);
  EXPECT_NE(error_of([&] { q.Schedule(Seconds(inf), [] {}); }).find("delay"),
            std::string::npos);
  EXPECT_NE(error_of([&] {
              q.SchedulePeriodic(Seconds(inf), [] { return true; });
            }).find("period"),
            std::string::npos);
  EXPECT_NE(error_of([&] {
              q.SchedulePeriodic(Seconds(nan), [] { return true; });
            }).find("period"),
            std::string::npos);
  EXPECT_EQ(q.PendingCount(), 1u);
  EXPECT_EQ(q.RunUntil(Seconds(10.0)), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, HugeFiniteTimesStillAdvanceTheWheel)
{
  // At 1e300 s the wheel's end rounds back to its start; the rebase must
  // still move the earliest event into the wheel.
  EventQueue q;
  std::vector<double> fired;
  q.Schedule(Seconds(1.0), [&] { fired.push_back(q.Now().value()); });
  q.ScheduleAt(Seconds(1e300), [&] { fired.push_back(q.Now().value()); });
  q.ScheduleAt(Seconds(1e300), [&] { fired.push_back(-q.Now().value()); });
  EXPECT_EQ(q.RunUntil(Seconds(10.0)), 1u);
  EXPECT_EQ(q.RunAll(), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 1e300, -1e300}));
}

TEST(EventQueueTest, PeriodicCallbackCanInstallPeriodicTimers)
{
  // Each outer tick installs enough timers to grow the slot table while
  // its own callback runs. The outer closure is 16 trivially-copyable
  // bytes, which std::function keeps inside the slot itself: had the
  // slot moved, reading the captured `state` after the installs would
  // touch freed memory (the sanitized suite reports it).
  struct State {
    int outer = 0;
    std::vector<std::pair<double, int>> inner;  // (time, label)
  } state;
  EventQueue q;
  q.SchedulePeriodic(Seconds(1.0), [&q, &state] {
    for (int i = 0; i < 300; ++i) {
      const int label = state.outer * 1000 + i;
      q.SchedulePeriodic(Seconds(0.5), [&q, &state, label] {
        state.inner.push_back({q.Now().value(), label});
        return false;
      });
    }
    return ++state.outer < 3;
  });
  q.RunAll();
  EXPECT_EQ(state.outer, 3);
  ASSERT_EQ(state.inner.size(), 900u);
  for (std::size_t k = 0; k < state.inner.size(); ++k) {
    const int round = static_cast<int>(k / 300);
    EXPECT_EQ(state.inner[k].first, round + 1.5);
    EXPECT_EQ(state.inner[k].second, round * 1000 + static_cast<int>(k % 300));
  }
  EXPECT_EQ(q.executed_count(), 903u);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, CancellingAStaleIdSparesTheSlotsNextEvent)
{
  EventQueue q;
  int first = 0;
  int second = 0;
  int third = 0;
  const EventId fired = q.Schedule(Seconds(1.0), [&] { ++first; });
  q.RunUntil(Seconds(2.0));
  // The fired event's slot is the one reused, under a new generation.
  const EventId reused = q.Schedule(Seconds(1.0), [&] { ++second; });
  ASSERT_EQ(fired & 0xffffffffu, reused & 0xffffffffu);
  ASSERT_NE(fired, reused);
  q.Cancel(fired);
  EXPECT_EQ(q.PendingCount(), 1u);
  // Same for a cancelled id: its slot's next tenant survives a re-cancel.
  q.Cancel(reused);
  const EventId tenant = q.Schedule(Seconds(1.0), [&] { ++third; });
  ASSERT_EQ(reused & 0xffffffffu, tenant & 0xffffffffu);
  q.Cancel(reused);
  q.Cancel(fired);
  EXPECT_EQ(q.PendingCount(), 1u);
  q.RunAll();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  EXPECT_EQ(third, 1);
}

// ---------------------------------------------------------------------------
// Regressions: lazy cancellation under churn must not disturb the FIFO
// guarantee for equal timestamps, and cancelled entries must never leak
// into execution or the executed-event count.
// ---------------------------------------------------------------------------

TEST(EventQueueTest, FifoOrderSurvivesHeavyCancelChurn)
{
  // Interleave live and doomed events at the same timestamp, cancel
  // every other one, and verify the survivors still fire in exact
  // insertion order. Lazy cancellation leaves tombstones in the heap;
  // popping them must not reorder equal-time survivors.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 20; ++i) {
      const int label = round * 100 + i;
      const EventId id =
          q.Schedule(Seconds(1.0), [&order, label] { order.push_back(label); });
      if (i % 2 == 1)
        doomed.push_back(id);
    }
  }
  for (const EventId id : doomed)
    q.Cancel(id);
  q.RunAll();
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LT(order[i - 1], order[i]) << "FIFO order broken at " << i;
  EXPECT_EQ(q.executed_count(), 100u);
}

TEST(EventQueueTest, CancellingAllEqualTimeEventsLeavesQueueClean)
{
  EventQueue q;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 50; ++i)
    ids.push_back(q.Schedule(Seconds(2.0), [&] { ++fired; }));
  for (const EventId id : ids)
    q.Cancel(id);
  EXPECT_EQ(q.PendingCount(), 0u);
  q.RunUntil(Seconds(5.0));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.executed_count(), 0u);
  EXPECT_TRUE(q.Empty());
  EXPECT_NEAR(q.Now().value(), 5.0, 1e-12);
}

TEST(EventQueueTest, CancelDuringExecutionSuppressesLaterEqualTimeEvent)
{
  // An event may cancel a sibling scheduled for the same instant that
  // has not yet run; the sibling must then be skipped even though it is
  // already at the top of the heap region being drained.
  EventQueue q;
  std::vector<int> order;
  EventId second = 0;
  q.Schedule(Seconds(1.0), [&] {
    order.push_back(1);
    q.Cancel(second);
  });
  second = q.Schedule(Seconds(1.0), [&] { order.push_back(2); });
  q.Schedule(Seconds(1.0), [&] { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, ChurnedPeriodicRescheduleKeepsDeterministicOrder)
{
  // Cancel-and-reschedule loops (the pattern telemetry pollers use)
  // must produce the same trace every run: two identical queues driven
  // identically yield identical event sequences.
  const auto drive = [] {
    EventQueue q;
    std::vector<std::pair<double, int>> trace;
    std::vector<EventId> pending;
    for (int i = 0; i < 8; ++i) {
      const EventId id = q.Schedule(Seconds(1.0 + 0.5 * i), [&trace, &q, i] {
        trace.push_back({q.Now().value(), i});
      });
      pending.push_back(id);
    }
    // Churn: cancel half, reschedule replacements at colliding times.
    for (int i = 0; i < 8; i += 2)
      q.Cancel(pending[static_cast<std::size_t>(i)]);
    for (int i = 0; i < 8; i += 2) {
      q.Schedule(Seconds(2.0), [&trace, &q, i] {
        trace.push_back({q.Now().value(), 100 + i});
      });
    }
    q.RunAll();
    return trace;
  };
  EXPECT_EQ(drive(), drive());
}

TEST(EventQueueTest, ObserverSeesEveryExecutedEvent)
{
  EventQueue q;
  std::vector<double> observed;
  const ObserverId id =
      q.AddObserver([&](Seconds now) { observed.push_back(now.value()); });
  q.Schedule(Seconds(1.0), [] {});
  const EventId cancelled = q.Schedule(Seconds(1.5), [] {});
  q.Schedule(Seconds(2.0), [] {});
  q.Cancel(cancelled);
  q.RunAll();
  ASSERT_EQ(observed.size(), 2u);  // cancelled events are not observed
  EXPECT_NEAR(observed[0], 1.0, 1e-12);
  EXPECT_NEAR(observed[1], 2.0, 1e-12);
  EXPECT_EQ(q.executed_count(), 2u);

  // Step() drives the observer too, and the observer can be detached.
  q.Schedule(Seconds(3.0), [] {});
  EXPECT_TRUE(q.Step());
  EXPECT_EQ(observed.size(), 3u);
  q.RemoveObserver(id);
  q.Schedule(Seconds(4.0), [] {});
  q.RunAll();
  EXPECT_EQ(observed.size(), 3u);
  EXPECT_EQ(q.executed_count(), 4u);
}

TEST(EventQueueTest, MultipleObserversAllSeeEachEvent)
{
  EventQueue q;
  int first = 0;
  int second = 0;
  const ObserverId first_id = q.AddObserver([&](Seconds) { ++first; });
  q.AddObserver([&](Seconds) { ++second; });
  EXPECT_EQ(q.observer_count(), 2u);
  q.Schedule(Seconds(1.0), [] {});
  q.Schedule(Seconds(2.0), [] {});
  q.RunAll();
  EXPECT_EQ(first, 2);
  EXPECT_EQ(second, 2);

  // Removing one observer leaves the other attached.
  q.RemoveObserver(first_id);
  EXPECT_EQ(q.observer_count(), 1u);
  q.Schedule(Seconds(3.0), [] {});
  q.RunAll();
  EXPECT_EQ(first, 2);
  EXPECT_EQ(second, 3);
  // Removing an already-removed id is a harmless no-op.
  EXPECT_NO_THROW(q.RemoveObserver(first_id));
  EXPECT_THROW(q.AddObserver(nullptr), ConfigError);
}

// ---------------------------------------------------------------------------
// Calendar-wheel edge cases: ordering guarantees across bucket boundaries,
// wheel rotations, and events past the wheel span (which the calendar
// parks in its far-future heap).
// ---------------------------------------------------------------------------

TEST(EventQueueCalendarTest, SameTimestampFifoStability)
{
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 200; ++i)
    q.Schedule(Seconds(1.0), [&order, i] { order.push_back(i); });
  q.RunAll();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueCalendarTest, CancelThenRescheduleChurn)
{
  // The telemetry-poller pattern: cancel a pending event and put a
  // replacement at a colliding timestamp, repeatedly. Survivors and
  // replacements must fire in exact schedule order.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> pending;
  for (int i = 0; i < 40; ++i) {
    pending.push_back(
        q.Schedule(Seconds(2.0 + 0.25 * (i % 4)), [&order, i] {
          order.push_back(i);
        }));
  }
  for (int i = 0; i < 40; i += 2)
    q.Cancel(pending[static_cast<std::size_t>(i)]);
  for (int i = 0; i < 40; i += 2) {
    q.Schedule(Seconds(2.0 + 0.25 * (i % 4)), [&order, i] {
      order.push_back(1000 + i);
    });
  }
  q.RunAll();
  ASSERT_EQ(order.size(), 40u);
  // Same timestamp bucket => original survivors (odd labels) precede the
  // rescheduled replacements, each group in insertion order.
  std::vector<int> expected;
  for (int slot = 0; slot < 4; ++slot) {
    for (int i = 0; i < 40; ++i)
      if (i % 4 == slot && i % 2 == 1)
        expected.push_back(i);
    for (int i = 0; i < 40; i += 2)
      if (i % 4 == slot)
        expected.push_back(1000 + i);
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueueCalendarTest, ObserversFireInInstallationOrderAfterEachEvent)
{
  EventQueue q;
  std::vector<int> sequence;
  q.AddObserver([&](Seconds) { sequence.push_back(1); });
  q.AddObserver([&](Seconds) { sequence.push_back(2); });
  q.Schedule(Seconds(1.0), [&] { sequence.push_back(0); });
  q.Schedule(Seconds(2.0), [&] { sequence.push_back(0); });
  q.RunAll();
  EXPECT_EQ(sequence, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(EventQueueCalendarTest, FarFutureEventsBeyondTheWheelSpan)
{
  // The calendar wheel spans ~51.2 s; everything past it lives in the
  // far-future heap until the wheel rotates forward. Interleave near and
  // far events and verify global time order either way.
  EventQueue q;
  std::vector<double> fired;
  const auto record = [&] { fired.push_back(q.Now().value()); };
  q.Schedule(Seconds(500.0), record);
  q.Schedule(Seconds(1.0), record);
  q.Schedule(Seconds(100.0), record);
  q.Schedule(Seconds(51.3), record);
  q.Schedule(Seconds(0.01), record);
  q.Schedule(Seconds(2000.0), record);
  q.RunAll();
  const std::vector<double> expected{0.01, 1.0, 51.3, 100.0, 500.0, 2000.0};
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR(fired[i], expected[i], 1e-9);
  EXPECT_NEAR(q.Now().value(), 2000.0, 1e-9);
}

TEST(EventQueueCalendarTest, EventsLandingBehindARebasedWheelStillRun)
{
  // After the wheel rebases onto a far-future event, a handler may
  // schedule a short-delay follow-up that lands "before" the new wheel
  // origin's bucket grid; it must still run, in order.
  EventQueue q;
  std::vector<double> fired;
  q.Schedule(Seconds(100.0), [&] {
    fired.push_back(q.Now().value());
    q.Schedule(Seconds(0.001), [&] { fired.push_back(q.Now().value()); });
    q.Schedule(Seconds(0.0), [&] { fired.push_back(q.Now().value()); });
  });
  q.RunAll();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_NEAR(fired[0], 100.0, 1e-9);
  EXPECT_NEAR(fired[1], 100.0, 1e-9);    // zero-delay follow-up
  EXPECT_NEAR(fired[2], 100.001, 1e-9);  // then the 1 ms one
}

TEST(EventQueueCalendarTest, PeriodicTicksAcrossManyWheelRotations)
{
  EventQueue q;
  int ticks = 0;
  double last = 0.0;
  q.SchedulePeriodic(Seconds(1.7), [&] {
    ++ticks;
    EXPECT_NEAR(q.Now().value() - last, 1.7, 1e-9);
    last = q.Now().value();
    return q.Now() < Seconds(400.0);
  });
  q.RunUntil(Seconds(500.0));
  EXPECT_EQ(ticks, 236);  // ceil(400 / 1.7): last tick at 401.2 s
}

TEST(EventQueueCalendarTest, CancelFarFutureEvent)
{
  EventQueue q;
  int fired = 0;
  const EventId far = q.Schedule(Seconds(300.0), [&] { ++fired; });
  q.Schedule(Seconds(400.0), [&] { ++fired; });
  q.Cancel(far);
  EXPECT_EQ(q.PendingCount(), 1u);
  q.RunAll();
  EXPECT_EQ(fired, 1);
  EXPECT_NEAR(q.Now().value(), 400.0, 1e-9);
}

/**
 * Reference pending-event set for the randomized trace test: a std::map
 * keyed on (when, id) — ids grow monotonically, so equal timestamps run
 * FIFO — with cancel-if-pending, and periodic timers as one-shots that
 * reschedule themselves after their callback returns. Deliberately
 * naive; it shares no code with the calendar wheel it checks.
 */
class ReferenceQueue {
 public:
  Seconds Now() const { return now_; }

  EventId
  Schedule(Seconds delay, std::function<void()> callback)
  {
    events_.emplace(std::pair((now_ + delay).value(), next_id_),
                    std::move(callback));
    pending_.insert(next_id_);
    return next_id_++;
  }

  void
  SchedulePeriodic(Seconds period, std::function<bool()> callback)
  {
    timers_.push_back(std::move(callback));
    ScheduleTick(period, timers_.size() - 1);
  }

  void Cancel(EventId id) { pending_.erase(id); }

  void
  RunUntil(Seconds horizon)
  {
    while (!events_.empty() && events_.begin()->first.first <= horizon.value())
      RunFront();
    now_ = horizon;
  }

  void
  RunAll()
  {
    while (!events_.empty())
      RunFront();
  }

 private:
  void
  RunFront()
  {
    auto node = events_.extract(events_.begin());
    if (pending_.erase(node.key().second) == 0)
      return;  // cancelled
    now_ = Seconds(node.key().first);
    node.mapped()();
  }

  void
  ScheduleTick(Seconds period, std::size_t timer)
  {
    Schedule(period, [this, period, timer] {
      if (timers_[timer]())
        ScheduleTick(period, timer);
    });
  }

  std::map<std::pair<double, EventId>, std::function<void()>> events_;
  std::set<EventId> pending_;
  std::deque<std::function<bool()>> timers_;  // stable under push_back
  Seconds now_{0.0};
  EventId next_id_ = 1;
};

TEST(EventQueueEquivalenceTest, RandomizedTraceMatchesBetweenImpls)
{
  // Drive the calendar queue and the naive reference with the same
  // pseudo-random schedule / periodic / cancel / horizon workload and
  // require identical execution traces. Horizons, periods and part of
  // the delays sit on a quarter-second grid (exact in binary), so
  // periodic ticks, one-shots and horizons coincide.
  const auto drive = [](auto& q, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::pair<double, int>> trace;
    std::vector<EventId> live;  // one-shot ids, fired ones included
    int label = 0;
    const auto grid = [&rng](std::int64_t steps) {
      return 0.25 * static_cast<double>(rng.UniformInt(0, steps));
    };
    for (int round = 0; round < 50; ++round) {
      const int burst = static_cast<int>(rng.UniformInt(1, 8));
      for (int i = 0; i < burst; ++i) {
        // Mix sub-bucket, cross-bucket, far-future and on-grid delays.
        double delay = 0.0;
        if (rng.Bernoulli(0.2))
          delay = rng.Uniform(60.0, 300.0);
        else if (rng.Bernoulli(0.4))
          delay = grid(40);
        else
          delay = rng.Uniform(0.0, 10.0);
        const int this_label = label++;
        live.push_back(q.Schedule(Seconds(delay), [&trace, &q, this_label] {
          trace.push_back({q.Now().value(), this_label});
        }));
      }
      // A periodic timer that stops after k ticks; an echoing one
      // schedules a one-shot one period out from each tick, which ties
      // its next tick and must fire first.
      if (rng.Bernoulli(0.4)) {
        const Seconds period(0.25 + grid(11));
        const int ticks = static_cast<int>(rng.UniformInt(1, 10));
        const bool echo = rng.Bernoulli(0.5);
        const int this_label = label++;
        q.SchedulePeriodic(
            period,
            [&trace, &q, this_label, period, ticks, echo, n = 0]() mutable {
              trace.push_back({q.Now().value(), this_label});
              if (echo) {
                q.Schedule(period, [&trace, &q, this_label] {
                  trace.push_back({q.Now().value(), -1 - this_label});
                });
              }
              return ++n < ticks;
            });
      }
      // Cancels may hit fired ids whose slots hold newer events.
      while (!live.empty() && rng.Bernoulli(0.3)) {
        const std::size_t victim = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
        q.Cancel(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      q.RunUntil(q.Now() + Seconds(grid(80)));
    }
    q.RunAll();
    return trace;
  };
  std::size_t ties = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    EventQueue calendar;
    ReferenceQueue reference;
    const auto expected = drive(reference, seed);
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(drive(calendar, seed), expected)
        << "trace diverged at seed " << seed;
    for (std::size_t i = 1; i < expected.size(); ++i)
      ties += expected[i].first == expected[i - 1].first ? 1 : 0;
  }
  EXPECT_GT(ties, 0u) << "the drive no longer produces equal timestamps";
}

}  // namespace
}  // namespace flex::sim
