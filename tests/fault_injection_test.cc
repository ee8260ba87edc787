// FaultInjector / FaultPlan tests: plan serialization, deterministic
// decisions, and the per-fabric wiring — drop/delay/duplicate at each
// fabric's send choke point, plus in-place node crash/restart on both
// fabrics (the same FaultPlan drives sim and TCP runs).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/net/fault.h"
#include "src/net/sim_fabric.h"
#include "src/net/tcp_fabric.h"
#include "tests/sim_test_util.h"

namespace bespokv {
namespace {

class CounterService : public Service {
 public:
  void handle(const Addr&, Message req, Replier reply) override {
    ++handled;
    reply(Message::reply(Code::kOk, req.key));
  }
  std::atomic<uint64_t> handled{0};
};

std::shared_ptr<LambdaService> null_service() {
  return std::make_shared<LambdaService>(
      [](Runtime&, const Addr&, Message, Replier r) {
        r(Message::reply(Code::kInvalid));
      });
}

// ------------------------------ FaultPlan -----------------------------------

TEST(FaultPlanTest, AddrMatching) {
  EXPECT_TRUE(fault_addr_match("*", "anything"));
  EXPECT_TRUE(fault_addr_match("bkv/s0r0", "bkv/s0r0"));
  EXPECT_FALSE(fault_addr_match("bkv/s0r0", "bkv/s0r1"));
  EXPECT_TRUE(fault_addr_match("bkv/s0*", "bkv/s0r2"));
  EXPECT_FALSE(fault_addr_match("bkv/s0*", "bkv/s1r0"));
  EXPECT_TRUE(fault_addr_match("127.0.0.1:*", "127.0.0.1:5501"));
}

TEST(FaultPlanTest, JsonRoundTrip) {
  FaultPlan p;
  p.seed = 42;
  p.links.push_back(LinkFault{"bkv/s0*", "*", 0.25, 0.1, 0.05, 300, 150,
                              1'000'000, 5'000'000});
  p.nodes.push_back(NodeFault{"bkv/s0r0", 2'000'000, 4'000'000});
  p.nodes.push_back(NodeFault{"bkv/s1r1", 3'000'000, 0});

  auto q = FaultPlan::decode(p.encode());
  ASSERT_TRUE(q.ok()) << q.status().to_string();
  EXPECT_EQ(q.value().seed, 42u);
  ASSERT_EQ(q.value().links.size(), 1u);
  const LinkFault& l = q.value().links[0];
  EXPECT_EQ(l.src, "bkv/s0*");
  EXPECT_EQ(l.dst, "*");
  EXPECT_DOUBLE_EQ(l.drop, 0.25);
  EXPECT_DOUBLE_EQ(l.duplicate, 0.1);
  EXPECT_DOUBLE_EQ(l.reorder, 0.05);
  EXPECT_EQ(l.delay_us, 300u);
  EXPECT_EQ(l.jitter_us, 150u);
  EXPECT_EQ(l.after_us, 1'000'000u);
  EXPECT_EQ(l.until_us, 5'000'000u);
  ASSERT_EQ(q.value().nodes.size(), 2u);
  EXPECT_EQ(q.value().nodes[0].node, "bkv/s0r0");
  EXPECT_EQ(q.value().nodes[0].crash_at_us, 2'000'000u);
  EXPECT_EQ(q.value().nodes[0].restart_at_us, 4'000'000u);
  EXPECT_EQ(q.value().nodes[1].restart_at_us, 0u);
}

TEST(FaultPlanTest, RejectsBadPlans) {
  EXPECT_FALSE(FaultPlan::decode("not json").ok());
  EXPECT_FALSE(
      FaultPlan::decode(R"({"links":[{"drop":1.5}]})").ok());
  EXPECT_FALSE(FaultPlan::decode(R"({"nodes":[{"crash_at_us":5}]})").ok());
  EXPECT_FALSE(FaultPlan::decode(
                   R"({"nodes":[{"node":"n","crash_at_us":5,"restart_at_us":3}]})")
                   .ok());
}

TEST(FaultPlanTest, PartitionJsonRoundTrip) {
  FaultPlan p;
  PartitionFault pf;
  pf.a = {"bkv/s0r0"};
  pf.b = {"bkv/coord", "bkv/s1*"};
  pf.symmetric = false;
  pf.after_us = 100'000;
  pf.until_us = 900'000;
  p.partitions.push_back(pf);

  auto q = FaultPlan::decode(p.encode());
  ASSERT_TRUE(q.ok()) << q.status().to_string();
  ASSERT_EQ(q.value().partitions.size(), 1u);
  const PartitionFault& r = q.value().partitions[0];
  ASSERT_EQ(r.a.size(), 1u);
  EXPECT_EQ(r.a[0], "bkv/s0r0");
  ASSERT_EQ(r.b.size(), 2u);
  EXPECT_EQ(r.b[1], "bkv/s1*");
  EXPECT_FALSE(r.symmetric);
  EXPECT_EQ(r.after_us, 100'000u);
  EXPECT_EQ(r.until_us, 900'000u);
}

TEST(FaultPlanTest, RejectsBadPartitions) {
  // Both node sets are required.
  EXPECT_FALSE(FaultPlan::decode(R"({"partitions":[{"a":["x"]}]})").ok());
  // The window must be ordered.
  EXPECT_FALSE(FaultPlan::decode(
                   R"({"partitions":[{"a":["x"],"b":["y"],
                       "after_us":10,"until_us":5}]})")
                   .ok());
}

TEST(FaultInjectorTest, PartitionDropsByDirectionAndWindow) {
  FaultPlan p;
  PartitionFault pf;
  pf.a = {"m"};
  pf.b = {"coord"};
  pf.symmetric = false;
  pf.after_us = 1'000;
  pf.until_us = 2'000;
  p.partitions.push_back(pf);
  FaultInjector fi(p);
  fi.arm(0);

  EXPECT_FALSE(fi.on_message("m", "coord", 500).drop);   // before the cut
  EXPECT_TRUE(fi.on_message("m", "coord", 1'500).drop);  // a→b severed
  EXPECT_FALSE(fi.on_message("coord", "m", 1'500).drop);  // one-way: b→a open
  EXPECT_FALSE(fi.on_message("m", "other", 1'500).drop);  // outside the cut
  EXPECT_FALSE(fi.on_message("m", "coord", 2'500).drop);  // healed
  EXPECT_EQ(fi.partitioned(), 1u);

  pf.symmetric = true;
  FaultPlan p2;
  p2.partitions.push_back(pf);
  FaultInjector fi2(p2);
  fi2.arm(0);
  EXPECT_TRUE(fi2.on_message("coord", "m", 1'500).drop);  // both directions
}

TEST(FaultInjectorTest, PartitionBurnsNoRngForLinkRules) {
  // Adding a partition entry must not perturb the link rules' decision
  // stream for traffic outside the cut — replay determinism depends on it.
  FaultPlan base;
  base.seed = 11;
  base.links.push_back(LinkFault{"*", "*", 0.3, 0.2, 0.1, 50, 100, 0, 0});
  FaultPlan with_part = base;
  PartitionFault pf;
  pf.a = {"island"};
  pf.b = {"*"};
  with_part.partitions.push_back(pf);

  FaultInjector a(base), b(with_part);
  a.arm(0);
  b.arm(0);
  for (int i = 0; i < 300; ++i) {
    const Addr src = "n" + std::to_string(i % 5);
    const Addr dst = "n" + std::to_string((i + 1) % 5);
    const FaultDecision da = a.on_message(src, dst, uint64_t(i) * 100);
    const FaultDecision db = b.on_message(src, dst, uint64_t(i) * 100);
    ASSERT_EQ(da.drop, db.drop) << i;
    ASSERT_EQ(da.duplicate, db.duplicate) << i;
    ASSERT_EQ(da.delay_us, db.delay_us) << i;
  }
}

TEST(FaultInjectorTest, DeterministicGivenSamePlanAndSequence) {
  FaultPlan p;
  p.seed = 7;
  p.links.push_back(LinkFault{"*", "*", 0.3, 0.2, 0.1, 50, 100, 0, 0});
  FaultInjector a(p), b(p);
  a.arm(0);
  b.arm(0);
  for (int i = 0; i < 500; ++i) {
    const Addr src = "n" + std::to_string(i % 5);
    const Addr dst = "n" + std::to_string((i + 1) % 5);
    const FaultDecision da = a.on_message(src, dst, uint64_t(i) * 100);
    const FaultDecision db = b.on_message(src, dst, uint64_t(i) * 100);
    ASSERT_EQ(da.drop, db.drop) << i;
    ASSERT_EQ(da.duplicate, db.duplicate) << i;
    ASSERT_EQ(da.delay_us, db.delay_us) << i;
  }
  EXPECT_EQ(a.decided(), 500u);
  EXPECT_EQ(a.dropped(), b.dropped());
  EXPECT_GT(a.dropped(), 0u);
  EXPECT_GT(a.duplicated(), 0u);
  EXPECT_GT(a.delayed(), 0u);
}

TEST(FaultInjectorTest, ActiveWindowGatesRules) {
  FaultPlan p;
  p.links.push_back(LinkFault{"*", "*", 1.0, 0, 0, 0, 0,
                              /*after_us=*/1'000, /*until_us=*/2'000});
  FaultInjector fi(p);
  fi.arm(500);  // origin
  EXPECT_FALSE(fi.on_message("a", "b", 500).drop);     // t=0 < after
  EXPECT_TRUE(fi.on_message("a", "b", 1'600).drop);    // inside window
  EXPECT_FALSE(fi.on_message("a", "b", 2'600).drop);   // t=2100 >= until
}

// --------------------------- SimFabric wiring -------------------------------

struct SimPair {
  SimFabric sim;
  std::shared_ptr<CounterService> svc = std::make_shared<CounterService>();
  Runtime* cli = nullptr;

  SimPair() {
    sim.add_node("svc", svc);
    SimNodeOpts copts;
    copts.is_client = true;
    cli = sim.add_node("cli", null_service(), copts);
  }
};

TEST(SimFaultTest, DropsCauseTimeout) {
  SimPair f;
  FaultPlan p;
  p.links.push_back(LinkFault{"cli", "svc", 1.0, 0, 0, 0, 0, 0, 0});
  f.sim.set_fault_injector(std::make_shared<FaultInjector>(p));

  Code got = Code::kOk;
  f.sim.post_to("cli", [&] {
    f.cli->call("svc", Message::get("k"),
                [&](Status s, Message) { got = s.code(); }, 200'000);
  });
  f.sim.run_for(1'000'000);
  EXPECT_EQ(got, Code::kTimeout);
  EXPECT_EQ(f.svc->handled.load(), 0u);
  EXPECT_GE(f.sim.fault_injector()->dropped(), 1u);
}

TEST(SimFaultTest, DelayPostponesDelivery) {
  SimPair f;
  FaultPlan p;
  p.links.push_back(LinkFault{"cli", "svc", 0, 0, 0, /*delay_us=*/70'000, 0, 0, 0});
  f.sim.set_fault_injector(std::make_shared<FaultInjector>(p));

  uint64_t reply_at = 0;
  f.sim.post_to("cli", [&] {
    f.cli->call("svc", Message::get("k"),
                [&](Status s, Message) {
                  ASSERT_TRUE(s.ok());
                  reply_at = f.cli->now_us();
                });
  });
  f.sim.run_for(1'000'000);
  EXPECT_GE(reply_at, 70'000u);  // the injected one-way delay is visible
  EXPECT_EQ(f.svc->handled.load(), 1u);
}

TEST(SimFaultTest, DuplicateDeliversTwice) {
  SimPair f;
  FaultPlan p;
  p.links.push_back(LinkFault{"cli", "svc", 0, 1.0, 0, 0, 0, 0, 0});
  f.sim.set_fault_injector(std::make_shared<FaultInjector>(p));

  f.sim.post_to("cli", [&] { f.cli->send("svc", Message::get("k")); });
  f.sim.run_for(200'000);
  EXPECT_EQ(f.svc->handled.load(), 2u);
}

TEST(SimFaultTest, RestartRevivesNodeInPlace) {
  SimPair f;
  f.sim.post_to("cli", [&] { f.cli->send("svc", Message::get("a")); });
  f.sim.run_for(100'000);
  EXPECT_EQ(f.svc->handled.load(), 1u);

  f.sim.kill("svc");
  EXPECT_FALSE(f.sim.restart("cli"));  // alive nodes are not restartable
  f.sim.post_to("cli", [&] { f.cli->send("svc", Message::get("b")); });
  f.sim.run_for(100'000);
  EXPECT_EQ(f.svc->handled.load(), 1u);  // dead: message dropped

  ASSERT_TRUE(f.sim.restart("svc"));
  f.sim.post_to("cli", [&] { f.cli->send("svc", Message::get("c")); });
  f.sim.run_for(100'000);
  EXPECT_EQ(f.svc->handled.load(), 2u);
}

TEST(SimFaultTest, FaultWindowAppliesToRestartedIncarnation) {
  // Fault windows are keyed by address, not by node incarnation: a node that
  // crashes and revives inside a partition window is still partitioned until
  // the window closes. Guards against an injector rebuild on restart
  // silently forgetting open windows.
  SimPair f;
  FaultPlan p;
  PartitionFault pf;
  pf.a = {"cli"};
  pf.b = {"svc"};
  pf.after_us = 50'000;
  pf.until_us = 400'000;
  p.partitions.push_back(pf);
  f.sim.set_fault_injector(std::make_shared<FaultInjector>(p));

  f.sim.post_to("cli", [&] { f.cli->send("svc", Message::get("a")); });
  f.sim.run_for(30'000);
  EXPECT_EQ(f.svc->handled.load(), 1u);  // before the window opens

  f.sim.run_for(70'000);  // t=100ms: window open
  f.sim.kill("svc");
  ASSERT_TRUE(f.sim.restart("svc"));  // revived mid-window
  f.sim.post_to("cli", [&] { f.cli->send("svc", Message::get("b")); });
  f.sim.run_for(100'000);
  EXPECT_EQ(f.svc->handled.load(), 1u);  // still severed for the new incarnation

  f.sim.run_for(300'000);  // past until_us
  f.sim.post_to("cli", [&] { f.cli->send("svc", Message::get("c")); });
  f.sim.run_for(100'000);
  EXPECT_EQ(f.svc->handled.load(), 2u);  // healed
}

TEST(SimFaultTest, ScheduledNodeFaultsCrashAndRestart) {
  SimPair f;
  FaultPlan p;
  p.nodes.push_back(NodeFault{"svc", /*crash_at_us=*/50'000,
                              /*restart_at_us=*/150'000});
  f.sim.post_to("cli", [&] {
    schedule_node_faults(*f.cli, f.sim, p);
    // Probe while down (t=100ms) and after restart (t=200ms).
    f.cli->set_timer(100'000, [&] { f.cli->send("svc", Message::get("x")); });
    f.cli->set_timer(200'000, [&] { f.cli->send("svc", Message::get("y")); });
  });
  f.sim.run_for(400'000);
  EXPECT_EQ(f.svc->handled.load(), 1u);  // only the post-restart probe landed
}

// --------------------------- TCP fabric wiring -----------------------------

TEST(TcpFaultTest, DropsCauseTimeout) {
  TcpFabric fab;
  auto svc = std::make_shared<CounterService>();
  const Addr addr = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  fab.add_node(addr, svc);
  FaultPlan p;
  p.links.push_back(LinkFault{"*", addr, 1.0, 0, 0, 0, 0, 0, 0});
  fab.set_fault_injector(std::make_shared<FaultInjector>(p));

  auto r = fab.call_sync(addr, Message::get("k"), 200'000);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(svc->handled.load(), 0u);

  fab.set_fault_injector(nullptr);
  r = fab.call_sync(addr, Message::get("k"));
  EXPECT_TRUE(r.ok()) << r.status().to_string();
}

TEST(TcpFaultTest, DuplicateDeliversTwice) {
  TcpFabric fab;
  auto svc = std::make_shared<CounterService>();
  const Addr addr = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  const Addr sender_addr = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  fab.add_node(addr, svc);
  Runtime* sender = fab.add_node(sender_addr, null_service());
  ASSERT_NE(sender, nullptr);
  FaultPlan p;
  p.links.push_back(LinkFault{sender_addr, addr, 0, 1.0, 0, 0, 0, 0, 0});
  fab.set_fault_injector(std::make_shared<FaultInjector>(p));

  sender->post([sender, addr] { sender->send(addr, Message::get("k")); });
  for (int i = 0; i < 100 && svc->handled.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(svc->handled.load(), 2u);
}

TEST(TcpFaultTest, RestartRebindsAndServes) {
  TcpFabric fab;
  auto svc = std::make_shared<CounterService>();
  const Addr addr = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  fab.add_node(addr, svc);
  ASSERT_TRUE(fab.call_sync(addr, Message::get("k")).ok());
  fab.kill(addr);
  EXPECT_FALSE(fab.call_sync(addr, Message::get("k"), 200'000).ok());
  ASSERT_TRUE(fab.restart(addr));  // SO_REUSEADDR rebind on the same port
  auto r = fab.call_sync(addr, Message::get("k"));
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(svc->handled.load(), 2u);
}

}  // namespace
}  // namespace bespokv
