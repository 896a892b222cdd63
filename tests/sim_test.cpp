// Unit tests for the discrete-event engine: scheduling order, coroutine
// task composition, resources, mailboxes, barriers, determinism.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/barrier.h"
#include "sim/mailbox.h"
#include "sim/resource.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace dtio::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), 0);
  EXPECT_EQ(sched.events_processed(), 0u);
}

TEST(Scheduler, DelayAdvancesClock) {
  Scheduler sched;
  SimTime seen = -1;
  sched.spawn([](Scheduler& s, SimTime& out) -> Task<void> {
    co_await s.delay(5 * kMicrosecond);
    out = s.now();
  }(sched, seen));
  sched.run();
  EXPECT_EQ(seen, 5 * kMicrosecond);
}

TEST(Scheduler, SameTimeEventsRunInSpawnOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.spawn([](Scheduler& s, std::vector<int>& out, int id) -> Task<void> {
      co_await s.delay(0);
      out.push_back(id);
    }(sched, order, i));
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, NestedTasksReturnValues) {
  Scheduler sched;
  int result = 0;
  sched.spawn([](Scheduler& s, int& out) -> Task<void> {
    auto child = [](Scheduler& sc, int v) -> Task<int> {
      co_await sc.delay(kMicrosecond);
      co_return v * 2;
    };
    const int a = co_await child(s, 21);
    const int b = co_await child(s, a);
    out = b;
  }(sched, result));
  sched.run();
  EXPECT_EQ(result, 84);
  EXPECT_EQ(sched.now(), 2 * kMicrosecond);
}

TEST(Scheduler, ExceptionInChildPropagatesToParent) {
  Scheduler sched;
  bool caught = false;
  sched.spawn([](Scheduler& s, bool& flag) -> Task<void> {
    auto child = [](Scheduler& sc) -> Task<void> {
      co_await sc.delay(1);
      throw std::runtime_error("boom");
    };
    try {
      co_await child(s);
    } catch (const std::runtime_error&) {
      flag = true;
    }
  }(sched, caught));
  sched.run();
  EXPECT_TRUE(caught);
}

TEST(Scheduler, UncaughtProcessExceptionSurfacesFromRun) {
  Scheduler sched;
  sched.spawn([](Scheduler& s) -> Task<void> {
    co_await s.delay(1);
    throw std::runtime_error("unhandled");
  }(sched));
  EXPECT_THROW(sched.run(), std::runtime_error);
}

TEST(Scheduler, TracksProcessCompletion) {
  Scheduler sched;
  for (int i = 0; i < 3; ++i) {
    sched.spawn(
        [](Scheduler& s, int d) -> Task<void> { co_await s.delay(d); }(sched, i));
  }
  EXPECT_EQ(sched.processes_spawned(), 3u);
  sched.run();
  EXPECT_EQ(sched.processes_finished(), 3u);
}

TEST(Resource, SerializesUnitCapacity) {
  Scheduler sched;
  Resource disk(sched, 1);
  std::vector<SimTime> completion;
  for (int i = 0; i < 3; ++i) {
    sched.spawn([](Scheduler& s, Resource& r,
                   std::vector<SimTime>& out) -> Task<void> {
      co_await r.use(10 * kMicrosecond);
      out.push_back(s.now());
    }(sched, disk, completion));
  }
  sched.run();
  ASSERT_EQ(completion.size(), 3u);
  EXPECT_EQ(completion[0], 10 * kMicrosecond);
  EXPECT_EQ(completion[1], 20 * kMicrosecond);
  EXPECT_EQ(completion[2], 30 * kMicrosecond);
}

TEST(Resource, CapacityTwoOverlaps) {
  Scheduler sched;
  Resource pool(sched, 2);
  std::vector<SimTime> completion;
  for (int i = 0; i < 4; ++i) {
    sched.spawn([](Scheduler&, Resource& r, std::vector<SimTime>& out,
                   Scheduler& s) -> Task<void> {
      co_await r.use(10 * kMicrosecond);
      out.push_back(s.now());
    }(sched, pool, completion, sched));
  }
  sched.run();
  ASSERT_EQ(completion.size(), 4u);
  EXPECT_EQ(completion[0], 10 * kMicrosecond);
  EXPECT_EQ(completion[1], 10 * kMicrosecond);
  EXPECT_EQ(completion[2], 20 * kMicrosecond);
  EXPECT_EQ(completion[3], 20 * kMicrosecond);
}

TEST(Resource, FifoFairness) {
  Scheduler sched;
  Resource r(sched, 1);
  std::vector<int> grant_order;
  for (int i = 0; i < 5; ++i) {
    sched.spawn([](Scheduler& s, Resource& res, std::vector<int>& out,
                   int id) -> Task<void> {
      co_await s.delay(id);  // stagger arrival
      co_await res.acquire();
      out.push_back(id);
      co_await s.delay(100);
      res.release();
    }(sched, r, grant_order, i));
  }
  sched.run();
  EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Resource, BusyIntegralMeasuresUtilization) {
  Scheduler sched;
  Resource r(sched, 1);
  sched.spawn([](Scheduler& s, Resource& res) -> Task<void> {
    co_await res.use(30 * kMicrosecond);
    co_await s.delay(10 * kMicrosecond);
  }(sched, r));
  sched.run();
  EXPECT_DOUBLE_EQ(r.busy_integral(), 30.0 * kMicrosecond);
}

TEST(Resource, BusyIntegralExactUnderContention) {
  Scheduler sched;
  Resource r(sched, 1);
  for (int i = 0; i < 3; ++i) {
    sched.spawn([](Resource& res) -> Task<void> {
      co_await res.use(10 * kMicrosecond);
    }(r));
  }
  sched.run();
  // Three serialized 10us holds; release hands the unit straight to the
  // next waiter (in_use never dips), so the device shows no idle gap:
  // integral exactly 30us over a 30us run -> utilization 1.0.
  EXPECT_EQ(sched.now(), 30 * kMicrosecond);
  EXPECT_DOUBLE_EQ(r.busy_integral(), 30.0 * kMicrosecond);
}

TEST(Resource, BusyIntegralCountsEachUnit) {
  Scheduler sched;
  Resource r(sched, 2);
  for (int i = 0; i < 2; ++i) {
    sched.spawn([](Resource& res) -> Task<void> {
      co_await res.use(10 * kMicrosecond);
    }(r));
  }
  sched.run();
  // Both units busy over the same 10us window: the integral is unit-time,
  // so utilization = 20us / (10us * capacity 2) = 1.0.
  EXPECT_EQ(sched.now(), 10 * kMicrosecond);
  EXPECT_DOUBLE_EQ(r.busy_integral(), 20.0 * kMicrosecond);
}

TEST(Resource, BusyIntegralIncludesOpenHold) {
  Scheduler sched;
  Resource r(sched, 1);
  double mid = -1.0;
  sched.spawn([](Scheduler& s, Resource& res, double& m) -> Task<void> {
    co_await res.acquire();
    co_await s.delay(5 * kMicrosecond);
    m = res.busy_integral();  // still holding: open interval counts
    res.release();
  }(sched, r, mid));
  sched.run();
  EXPECT_DOUBLE_EQ(mid, 5.0 * kMicrosecond);
  EXPECT_DOUBLE_EQ(r.busy_integral(), 5.0 * kMicrosecond);
}

TEST(Mailbox, DeliverBeforeRecv) {
  Scheduler sched;
  Mailbox box(sched);
  box.deliver(Message(3, 7, 0, 42));
  int got = 0;
  sched.spawn([](Mailbox& mb, int& out) -> Task<void> {
    Message m = *co_await mb.recv(3, 7);
    out = m.as<int>();
  }(box, got));
  sched.run();
  EXPECT_EQ(got, 42);
}

TEST(Mailbox, RecvBeforeDeliver) {
  Scheduler sched;
  Mailbox box(sched);
  int got = 0;
  sched.spawn([](Mailbox& mb, int& out) -> Task<void> {
    Message m = *co_await mb.recv();
    out = m.as<int>();
  }(box, got));
  sched.spawn([](Scheduler& s, Mailbox& mb) -> Task<void> {
    co_await s.delay(kMillisecond);
    mb.deliver(Message(0, 1, 0, 99));
  }(sched, box));
  sched.run();
  EXPECT_EQ(got, 99);
}

TEST(Mailbox, TagFilterSkipsNonMatching) {
  Scheduler sched;
  Mailbox box(sched);
  box.deliver(Message(0, 1, 0, 10));
  box.deliver(Message(0, 2, 0, 20));
  std::vector<int> got;
  sched.spawn([](Mailbox& mb, std::vector<int>& out) -> Task<void> {
    Message m2 = *co_await mb.recv(kAnySource, 2);
    out.push_back(m2.as<int>());
    Message m1 = *co_await mb.recv(kAnySource, 1);
    out.push_back(m1.as<int>());
  }(box, got));
  sched.run();
  EXPECT_EQ(got, (std::vector<int>{20, 10}));
}

TEST(Mailbox, SourceFilterMatchesSpecificSender) {
  Scheduler sched;
  Mailbox box(sched);
  box.deliver(Message(5, 0, 0, 50));
  box.deliver(Message(6, 0, 0, 60));
  int got = 0;
  sched.spawn([](Mailbox& mb, int& out) -> Task<void> {
    Message m = *co_await mb.recv(6, kAnyTag);
    out = m.as<int>();
  }(box, got));
  sched.run();
  EXPECT_EQ(got, 60);
}

TEST(Barrier, ReleasesAllAtLastArrival) {
  Scheduler sched;
  Barrier barrier(sched, 3);
  std::vector<SimTime> pass_times;
  for (int i = 0; i < 3; ++i) {
    sched.spawn([](Scheduler& s, Barrier& b, std::vector<SimTime>& out,
                   int id) -> Task<void> {
      co_await s.delay(id * 10 * kMicrosecond);
      co_await b.arrive_and_wait();
      out.push_back(s.now());
    }(sched, barrier, pass_times, i));
  }
  sched.run();
  ASSERT_EQ(pass_times.size(), 3u);
  for (const SimTime t : pass_times) EXPECT_EQ(t, 20 * kMicrosecond);
}

TEST(Barrier, IsReusableAcrossGenerations) {
  Scheduler sched;
  Barrier barrier(sched, 2);
  int rounds_done = 0;
  for (int i = 0; i < 2; ++i) {
    sched.spawn([](Scheduler& s, Barrier& b, int& done, int id) -> Task<void> {
      for (int round = 0; round < 3; ++round) {
        co_await s.delay((id + 1) * kMicrosecond);
        co_await b.arrive_and_wait();
      }
      ++done;
    }(sched, barrier, rounds_done, i));
  }
  sched.run();
  EXPECT_EQ(rounds_done, 2);
  EXPECT_EQ(barrier.generation(), 3u);
}

TEST(Determinism, SameProgramSameEventCountAndTime) {
  auto run_once = []() -> std::pair<SimTime, std::uint64_t> {
    Scheduler sched;
    Resource r(sched, 2);
    Barrier b(sched, 4);
    for (int i = 0; i < 4; ++i) {
      sched.spawn([](Scheduler& s, Resource& res, Barrier& bar,
                     int id) -> Task<void> {
        for (int k = 0; k < 10; ++k) {
          co_await res.use((id + k + 1) * kMicrosecond);
          co_await bar.arrive_and_wait();
        }
        co_await s.delay(id);
      }(sched, r, b, i));
    }
    sched.run();
    return {sched.now(), sched.events_processed()};
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
}

TEST(Scheduler, TaskReturnsMoveOnlyValues) {
  Scheduler sched;
  std::unique_ptr<int> result;
  sched.spawn([](Scheduler& s, std::unique_ptr<int>& out) -> Task<void> {
    auto child = [](Scheduler& sc) -> Task<std::unique_ptr<int>> {
      co_await sc.delay(1);
      co_return std::make_unique<int>(99);
    };
    out = co_await child(s);
  }(sched, result));
  sched.run();
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(*result, 99);
}

TEST(Scheduler, ScheduleCallRunsAtTheRightTime) {
  Scheduler sched;
  std::vector<SimTime> fired;
  sched.schedule_call(5 * kMicrosecond, [&] { fired.push_back(sched.now()); });
  sched.schedule_call(2 * kMicrosecond, [&] { fired.push_back(sched.now()); });
  sched.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{2 * kMicrosecond, 5 * kMicrosecond}));
}

TEST(Fire, ExceptionSurfacesFromRun) {
  Scheduler sched;
  sched.spawn([](Scheduler& s) -> Task<void> {
    auto boom = [](Scheduler& sc) -> Fire {
      co_await sc.delay(kMicrosecond);
      throw std::runtime_error("fire failure");
    };
    s.start(boom(s));
    co_await s.delay(kMillisecond);
  }(sched));
  EXPECT_THROW(sched.run(), std::runtime_error);
}

TEST(Fire, FrameSelfDestructs) {
  // Millions of fire-and-forget frames must not accumulate: spawn many and
  // rely on completion (ASan builds catch leaks of still-live frames).
  Scheduler sched;
  std::uint64_t completed = 0;
  sched.spawn([](Scheduler& s, std::uint64_t& done) -> Task<void> {
    auto tick = [](Scheduler& sc, std::uint64_t& d) -> Fire {
      co_await sc.delay(1);
      ++d;
    };
    for (int i = 0; i < 10000; ++i) s.start(tick(s, done));
    co_await s.delay(kMillisecond);
  }(sched, completed));
  sched.run();
  EXPECT_EQ(completed, 10000u);
}

}  // namespace
}  // namespace dtio::sim
