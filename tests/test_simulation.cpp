#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <vector>

namespace dare::sim {
namespace {

/// A record tagged by `id`, so a handler can tell which event fired.
Event tagged(std::uint64_t id) { return Event{0, 0, id}; }

/// Handler that records the clock at every event it receives.
struct ClockLog {
  const Simulation* sim;
  std::vector<SimTime>* seen;
  void operator()(const Event&) const { seen->push_back(sim->now()); }
};

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim;
  std::vector<SimTime> seen;
  sim.at(100, tagged(0));
  sim.at(200, tagged(0));
  sim.run(ClockLog{&sim, &seen});
  EXPECT_EQ(seen, (std::vector<SimTime>{100, 200}));
  EXPECT_EQ(sim.now(), 200);
}

TEST(Simulation, HandlerReceivesTheScheduledRecord) {
  Simulation sim;
  sim.at(5, Event{3, 17, 42});
  Event got;
  sim.run([&](const Event& event) { got = event; });
  EXPECT_EQ(got.kind, 3u);
  EXPECT_EQ(got.node, 17);
  EXPECT_EQ(got.id, 42u);
}

TEST(Simulation, AfterSchedulesRelative) {
  Simulation sim;
  SimTime fired = -1;
  sim.at(50, tagged(1));
  sim.run([&](const Event& event) {
    if (event.id == 1) {
      sim.after(25, tagged(2));
    } else {
      fired = sim.now();
    }
  });
  EXPECT_EQ(fired, 75);
}

TEST(Simulation, NegativeDelayClampsToNow) {
  Simulation sim;
  SimTime fired = -1;
  sim.at(10, tagged(1));
  sim.run([&](const Event& event) {
    if (event.id == 1) {
      sim.after(-5, tagged(2));
    } else {
      fired = sim.now();
    }
  });
  EXPECT_EQ(fired, 10);
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation sim;
  sim.at(100, tagged(0));
  sim.run([](const Event&) {});
  EXPECT_THROW(sim.at(50, tagged(0)), std::invalid_argument);
}

TEST(Simulation, RunUntilHorizonStopsAndResumes) {
  Simulation sim;
  std::vector<SimTime> seen;
  sim.at(10, tagged(0));
  sim.at(20, tagged(0));
  sim.at(30, tagged(0));
  // Events at exactly the horizon still run.
  EXPECT_EQ(sim.run(ClockLog{&sim, &seen}, 20), 2u);
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.run(ClockLog{&sim, &seen}), 1u);
  EXPECT_EQ(seen.back(), 30);
}

TEST(Simulation, RunAdvancesClockToHorizonWhenDrained) {
  Simulation sim;
  sim.at(5, tagged(0));
  sim.run([](const Event&) {}, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulation, StepExecutesOneEvent) {
  Simulation sim;
  int count = 0;
  const auto count_it = [&](const Event&) { ++count; };
  sim.at(1, tagged(0));
  sim.at(2, tagged(0));
  EXPECT_TRUE(sim.step(count_it));
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step(count_it));
  EXPECT_FALSE(sim.step(count_it));
  EXPECT_EQ(count, 2);
}

TEST(Simulation, StopDropsPendingEvents) {
  Simulation sim;
  int count = 0;
  sim.at(10, tagged(0));
  sim.at(20, tagged(0));
  sim.run([&](const Event&) {
    ++count;
    sim.stop();
  });
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, ExecutedEventsCounter) {
  Simulation sim;
  for (int i = 1; i <= 5; ++i) sim.at(i, tagged(0));
  sim.run([](const Event&) {});
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulation, HandlerObservesItsOwnTimestamp) {
  Simulation sim;
  std::vector<SimTime> observed;
  sim.at(7, tagged(0));
  sim.at(7, tagged(0));
  sim.at(9, tagged(0));
  sim.run(ClockLog{&sim, &observed});
  EXPECT_EQ(observed, (std::vector<SimTime>{7, 7, 9}));
}

TEST(Simulation, LateChainFiresAfterNormalTiesInSequence) {
  // A chain re-armed with one fixed delay in the late class: at equal times
  // it fires after every normal event, even one scheduled from its own
  // handler at now, and two late chains keep their scheduling order.
  Simulation sim;
  std::vector<std::uint64_t> fired;
  sim.after(10, tagged(1), EventClass::kLate);
  sim.after(10, tagged(5), EventClass::kLate);
  sim.at(10, tagged(2));
  sim.at(20, tagged(3));
  sim.run([&](const Event& event) {
    fired.push_back(event.id);
    if (event.id == 1 && sim.now() < 30) {
      sim.after(10, tagged(1), EventClass::kLate);
      sim.after(0, tagged(4));
    }
  });
  EXPECT_EQ(fired,
            (std::vector<std::uint64_t>{2, 1, 4, 5, 3, 1, 4, 1}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulation, CancelledLateEventLeavesClockAtLastLiveEvent) {
  Simulation sim;
  std::vector<SimTime> seen;
  sim.at(10, tagged(0));
  EventHandle beat = sim.after(50, tagged(1), EventClass::kLate);
  EXPECT_TRUE(beat.cancel());
  EXPECT_EQ(sim.run(ClockLog{&sim, &seen}), 1u);
  EXPECT_EQ(seen, (std::vector<SimTime>{10}));
  EXPECT_EQ(sim.now(), 10);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, CancelFromWithinHandler) {
  Simulation sim;
  bool second_ran = false;
  sim.at(5, tagged(1));
  EventHandle second = sim.at(10, tagged(2));
  sim.run([&](const Event& event) {
    if (event.id == 1) {
      second.cancel();
    } else {
      second_ran = true;
    }
  });
  EXPECT_FALSE(second_ran);
  EXPECT_EQ(sim.now(), 5);
}

TEST(Simulation, SchedulingAtNowFromHandlerRunsSameTime) {
  Simulation sim;
  std::vector<std::uint64_t> order;
  sim.at(5, tagged(1));
  sim.run([&](const Event& event) {
    order.push_back(event.id);
    // Same timestamp: runs after the current event.
    if (event.id == 1) sim.at(5, tagged(2));
  });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(sim.now(), 5);
}

TEST(Simulation, RepeatingEventChainTerminates) {
  Simulation sim;
  int fires = 0;
  // Self-rescheduling heartbeat with a termination condition.
  sim.after(3, tagged(0));
  sim.run([&](const Event&) {
    if (++fires < 10) sim.after(3, tagged(0));
  });
  EXPECT_EQ(fires, 10);
  EXPECT_EQ(sim.now(), 30);
}

}  // namespace
}  // namespace dare::sim
