#include <gtest/gtest.h>

#include "src/net/sim_fabric.h"
#include "src/sim/event_queue.h"

namespace bespokv {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now_us(), 30u);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelSuppressesEvent) {
  sim::EventQueue q;
  bool ran = false;
  const uint64_t id = q.schedule_at(10, [&] { ran = true; });
  q.cancel(id);
  q.run_all();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelOfFiredIdLeavesPendingUnchanged) {
  sim::EventQueue q;
  const uint64_t fired = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  q.run_until(15);
  ASSERT_EQ(q.pending(), 1u);
  q.cancel(fired);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run_all(), 1u);  // the later event still runs
}

TEST(EventQueueTest, CancelTwiceDecrementsOnce) {
  sim::EventQueue q;
  const uint64_t id = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.run_all(), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  sim::EventQueue q;
  int count = 0;
  q.schedule_at(10, [&] { ++count; });
  q.schedule_at(20, [&] { ++count; });
  q.run_until(15);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(q.now_us(), 15u);
  q.run_all();
  EXPECT_EQ(count, 2);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  sim::EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) q.schedule_after(5, recurse);
  };
  q.schedule_at(0, recurse);
  q.run_all();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(q.now_us(), 45u);
}

// ------------------------------- SimFabric ----------------------------------

class EchoService : public Service {
 public:
  void handle(const Addr&, Message req, Replier reply) override {
    ++handled;
    Message rep = Message::reply(Code::kOk, req.key);
    reply(std::move(rep));
  }
  int handled = 0;
};

TEST(SimFabricTest, RpcRoundTrip) {
  SimFabric sim;
  auto echo = std::make_shared<EchoService>();
  sim.add_node("server", echo);
  SimNodeOpts copts;
  copts.is_client = true;
  Runtime* client = sim.add_node("client",
                                 std::make_shared<LambdaService>(
                                     [](Runtime&, const Addr&, Message, Replier r) {
                                       r(Message::reply(Code::kInvalid));
                                     }),
                                 copts);
  bool got = false;
  sim.post_to("client", [&] {
    client->call("server", Message::get("hello"), [&](Status s, Message rep) {
      EXPECT_TRUE(s.ok());
      EXPECT_EQ(rep.value, "hello");
      got = true;
    });
  });
  sim.run_for(10'000'000);
  EXPECT_TRUE(got);
  EXPECT_EQ(echo->handled, 1);
}

TEST(SimFabricTest, CallToDeadNodeTimesOut) {
  SimFabric sim;
  sim.add_node("server", std::make_shared<EchoService>());
  SimNodeOpts copts;
  copts.is_client = true;
  Runtime* client = sim.add_node("client",
                                 std::make_shared<LambdaService>(
                                     [](Runtime&, const Addr&, Message, Replier r) {
                                       r(Message::reply(Code::kInvalid));
                                     }),
                                 copts);
  sim.kill("server");
  Status result = Status::Ok();
  bool done = false;
  sim.post_to("client", [&] {
    client->call("server", Message::get("x"),
                 [&](Status s, Message) {
                   result = s;
                   done = true;
                 },
                 200'000);
  });
  sim.run_for(1'000'000);
  EXPECT_TRUE(done);
  EXPECT_EQ(result.code(), Code::kTimeout);
}

TEST(SimFabricTest, PartitionDropsTrafficBothWaysUntilHealed) {
  SimFabric sim;
  auto echo = std::make_shared<EchoService>();
  sim.add_node("server", echo);
  SimNodeOpts copts;
  copts.is_client = true;
  Runtime* client = sim.add_node("client",
                                 std::make_shared<LambdaService>(
                                     [](Runtime&, const Addr&, Message, Replier r) {
                                       r(Message::reply(Code::kInvalid));
                                     }),
                                 copts);
  sim.partition("client", "server", true);
  Status r1 = Status::Ok();
  sim.post_to("client", [&] {
    client->call("server", Message::get("x"),
                 [&](Status s, Message) { r1 = s; }, 100'000);
  });
  sim.run_for(500'000);
  EXPECT_EQ(r1.code(), Code::kTimeout);
  EXPECT_EQ(echo->handled, 0);

  sim.partition("client", "server", false);
  bool ok = false;
  sim.post_to("client", [&] {
    client->call("server", Message::get("x"),
                 [&](Status s, Message) { ok = s.ok(); }, 100'000);
  });
  sim.run_for(500'000);
  EXPECT_TRUE(ok);
}

TEST(SimFabricTest, TimersFireAndCancel) {
  SimFabric sim;
  int fired = 0;
  int periodic = 0;
  Runtime* rt = sim.add_node("n", std::make_shared<LambdaService>(
      [](Runtime&, const Addr&, Message, Replier r) {
        r(Message::reply(Code::kInvalid));
      }));
  uint64_t cancelled_id = 0;
  uint64_t periodic_id = 0;
  sim.post_to("n", [&] {
    rt->set_timer(1'000, [&] { ++fired; });
    cancelled_id = rt->set_timer(2'000, [&] { ++fired; });
    rt->cancel_timer(cancelled_id);
    periodic_id = rt->set_periodic(10'000, [&] {
      if (++periodic == 3) rt->cancel_timer(periodic_id);
    });
  });
  sim.run_for(200'000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(periodic, 3);
}

TEST(SimFabricTest, ServiceTimeLimitsThroughput) {
  // One server with 100us service time, hammered by 32 closed-loop clients
  // for 1 virtual second, must complete ~10k ops (capacity), not 32x more.
  SimFabricOpts fopts;
  fopts.link_latency_us = 10;
  SimFabric sim(fopts);
  SimNodeOpts sopts;
  sopts.base_service_us = 100;
  sopts.per_kb_service_us = 0;
  auto echo = std::make_shared<EchoService>();
  sim.add_node("server", echo, sopts);

  uint64_t completed = 0;
  for (int i = 0; i < 32; ++i) {
    SimNodeOpts copts;
    copts.is_client = true;
    const Addr addr = "client" + std::to_string(i);
    Runtime* rt = sim.add_node(addr, std::make_shared<LambdaService>(
        [](Runtime&, const Addr&, Message, Replier r) {
          r(Message::reply(Code::kInvalid));
        }), copts);
    sim.post_to(addr, [rt, &completed] {
      auto loop = std::make_shared<std::function<void()>>();
      *loop = [rt, &completed, loop] {
        rt->call("server", Message::get("k"), [&completed, loop](Status s, Message) {
          if (s.ok()) ++completed;
          (*loop)();
        });
      };
      (*loop)();
    });
  }
  sim.run_until(1'000'000);
  // Capacity bound: 1e6us / (100us service + 3x14us transport) ≈ 7k.
  EXPECT_GT(completed, 4'000u);
  EXPECT_LT(completed, 11'000u);
}

TEST(SimFabricTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimFabric sim;
    auto echo = std::make_shared<EchoService>();
    sim.add_node("server", echo);
    SimNodeOpts copts;
    copts.is_client = true;
    Runtime* rt = sim.add_node("client", std::make_shared<LambdaService>(
        [](Runtime&, const Addr&, Message, Replier r) {
          r(Message::reply(Code::kInvalid));
        }), copts);
    uint64_t completed = 0;
    sim.post_to("client", [rt, &completed] {
      auto loop = std::make_shared<std::function<void()>>();
      *loop = [rt, &completed, loop] {
        rt->call("server", Message::get("k"),
                 [&completed, loop](Status, Message) {
                   ++completed;
                   (*loop)();
                 });
      };
      (*loop)();
    });
    sim.run_until(300'000);
    return std::make_pair(completed, sim.messages_delivered());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(TransportModelTest, FastpathIsCheaperThanSocket) {
  const auto sock = TransportModel::socket_model();
  const auto fast = TransportModel::fastpath_model();
  EXPECT_LT(fast.per_msg_us, sock.per_msg_us);
  EXPECT_LT(fast.per_kb_us, sock.per_kb_us);
  EXPECT_LT(fast.wire_latency_us, sock.wire_latency_us);
}

}  // namespace
}  // namespace bespokv
