// TcpFabric tests: the same services and full clusters run under real
// threads and real loopback sockets (framing, partial I/O, peer-death
// detection, timers in real time), not just the DES.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "src/client/client.h"
#include "src/cluster/cluster.h"
#include "src/datalet/locked.h"
#include "src/datalet/service.h"
#include "src/net/tcp_fabric.h"
#include "src/obs/metrics.h"

namespace bespokv {
namespace {

class CounterService : public Service {
 public:
  void handle(const Addr&, Message req, Replier reply) override {
    ++handled;
    Message rep = Message::reply(Code::kOk, req.key);
    rep.seq = handled.load();
    reply(std::move(rep));
  }
  std::atomic<uint64_t> handled{0};
};

// ------------------------------- TcpFabric ----------------------------------

TEST(TcpFabricTest, CallSyncOverRealSockets) {
  TcpFabric fab;
  auto svc = std::make_shared<CounterService>();
  const Addr addr = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  ASSERT_NE(fab.add_node(addr, svc), nullptr);
  auto r = fab.call_sync(addr, Message::get("over-tcp"));
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value().value, "over-tcp");
}

TEST(TcpFabricTest, PickPortNeverRepeats) {
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    const int port = TcpFabric::pick_port();
    ASSERT_GT(port, 0) << "draw " << i;
    ASSERT_TRUE(seen.insert(port).second) << "port " << port << " drawn twice";
  }
}

TEST(TcpFabricTest, AddNodeRefusesRegisteredAddress) {
  TcpFabric fab;
  auto first = std::make_shared<CounterService>();
  auto second = std::make_shared<CounterService>();
  const Addr addr = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  ASSERT_NE(fab.add_node(addr, first), nullptr);
  EXPECT_EQ(fab.add_node(addr, second), nullptr);
  for (int i = 0; i < 5; ++i) {
    auto r = fab.call_sync(addr, Message::get("still-first"));
    ASSERT_TRUE(r.ok()) << r.status().to_string();
  }
  EXPECT_EQ(first->handled.load(), 5u);
  EXPECT_EQ(second->handled.load(), 0u);
  // A killed node keeps its address: restart() revives it, add_node does not.
  fab.kill(addr);
  EXPECT_EQ(fab.add_node(addr, second), nullptr);
  ASSERT_TRUE(fab.restart(addr));
  ASSERT_TRUE(fab.call_sync(addr, Message::get("again")).ok());
  EXPECT_EQ(first->handled.load(), 6u);
}

TEST(TcpFabricTest, TimersFireUnderRealTime) {
  TcpFabric fab;
  std::atomic<int> one_shot{0};
  std::atomic<int> periodic{0};
  const Addr addr = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  Runtime* rt = fab.add_node(addr, std::make_shared<LambdaService>(
      [](Runtime&, const Addr&, Message, Replier r) {
        r(Message::reply(Code::kOk));
      }));
  ASSERT_NE(rt, nullptr);
  rt->post([rt, &one_shot, &periodic] {
    rt->set_timer(20'000, [&one_shot] { ++one_shot; });
    rt->set_periodic(15'000, [&periodic] { ++periodic; });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(one_shot.load(), 1);
  EXPECT_GE(periodic.load(), 2);
}

TEST(TcpFabricTest, LargePayloadCrossesFraming) {
  TcpFabric fab;
  const Addr addr = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  auto engine = std::make_shared<LockedDatalet>(make_datalet("tHT", {}));
  fab.add_node(addr, std::make_shared<DataletService>(engine));
  // 4 MiB value: exercises partial reads/writes and buffer growth.
  std::string big(4 * 1024 * 1024, 'x');
  big[12345] = 'y';
  auto w = fab.call_sync(addr, Message::put("big", big), 10'000'000);
  ASSERT_TRUE(w.ok());
  ASSERT_EQ(w.value().code, Code::kOk);
  auto r = fab.call_sync(addr, Message::get("big"), 10'000'000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().value, big);
}

TEST(TcpFabricTest, NodeToNodeRpc) {
  TcpFabric fab;
  const Addr a1 = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  const Addr a2 = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  auto backend = std::make_shared<CounterService>();
  fab.add_node(a2, backend);
  // A forwarding service: proxies every request to a2 (two TCP hops).
  fab.add_node(a1, std::make_shared<LambdaService>(
      [a2](Runtime& rt, const Addr&, Message req, Replier reply) {
        rt.call(a2, std::move(req), [reply](Status s, Message rep) {
          reply(s.ok() ? std::move(rep) : Message::reply(Code::kUnavailable));
        });
      }));
  auto r = fab.call_sync(a1, Message::get("fwd"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().value, "fwd");
  EXPECT_EQ(backend->handled.load(), 1u);
}

TEST(TcpFabricTest, DeadPeerTimesOut) {
  TcpFabric fab;
  const Addr addr = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  fab.add_node(addr, std::make_shared<CounterService>());
  fab.kill(addr);
  auto r = fab.call_sync(addr, Message::get("k"), 200'000);
  EXPECT_FALSE(r.ok());
}

TEST(TcpFabricTest, StatsCountSendsFlushesAndPartitionDrops) {
  TcpFabric fab;
  const Addr a1 = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  const Addr a2 = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  fab.add_node(a2, std::make_shared<CounterService>());
  fab.add_node(a1, std::make_shared<LambdaService>(
      [a2](Runtime& rt, const Addr&, Message req, Replier reply) {
        rt.call(a2, std::move(req), [reply](Status s, Message rep) {
          reply(s.ok() ? std::move(rep) : Message::reply(Code::kUnavailable));
        });
      }));

  // Network counters live in each node's registry; scrape them over the
  // wire like any other client would.
  const auto net_stats = [&fab](const Addr& a) {
    Message req;
    req.op = Op::kStats;
    auto rep = fab.call_sync(a, std::move(req));
    EXPECT_TRUE(rep.ok()) << rep.status().to_string();
    auto snap = obs::MetricsSnapshot::from_json(rep.value().value);
    EXPECT_TRUE(snap.ok()) << snap.status().to_string();
    return snap.value_or(obs::MetricsSnapshot{});
  };

  for (int i = 0; i < 5; ++i) {
    auto r = fab.call_sync(a1, Message::get("s" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << i;
  }
  const auto sent = net_stats(a1);
  EXPECT_GE(sent.counter("net.msgs_sent"), 5u);  // five proxied requests left a1
  EXPECT_GT(sent.counter("net.bytes_sent"), 0u);
  EXPECT_GT(sent.counter("net.flushes"), 0u);
  // Coalescing never inflates flushes.
  EXPECT_LE(sent.counter("net.flushes"), sent.counter("net.msgs_sent"));
  EXPECT_EQ(sent.counter("net.msgs_dropped"), 0u);

  // Partition a1 -> a2: proxied calls are dropped on the floor and counted,
  // surfacing what used to be a silent drop in ship().
  fab.partition(a1, a2, true);
  auto r = fab.call_sync(a1, Message::get("cut"), 300'000);
  EXPECT_FALSE(r.ok());
  EXPECT_GE(net_stats(a1).counter("net.msgs_dropped"), 1u);

  fab.partition(a1, a2, false);
  auto healed = fab.call_sync(a1, Message::get("healed"));
  EXPECT_TRUE(healed.ok());
}

TEST(TcpFabricTest, FullClusterOverLoopback) {
  TcpFabric fab;
  ClusterOptions o;
  o.topology = Topology::kMasterSlave;
  o.consistency = Consistency::kStrong;
  o.num_shards = 1;
  o.num_replicas = 3;
  Cluster cluster(fab, o);
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  SyncKv kv([&fab](const Addr& a, Message m) { return fab.call_sync(a, std::move(m)); },
            cluster.coordinator_addr());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(kv.put("k" + std::to_string(i), "v").ok()) << i;
  }
  // Chain replication: the ack implies all replicas committed.
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(cluster.datalet(0, r)->get("k19").ok()) << r;
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(kv.get("k" + std::to_string(i)).ok()) << i;
  }
  auto missing = kv.get("zzz");
  EXPECT_EQ(missing.status().code(), Code::kNotFound);
}

TEST(TcpFabricTest, FullClusterTwoShardsEventual) {
  TcpFabric fab;
  ClusterOptions o;
  o.topology = Topology::kMasterSlave;
  o.consistency = Consistency::kEventual;
  o.num_shards = 2;
  Cluster cluster(fab, o);
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  SyncKv kv([&fab](const Addr& a, Message m) { return fab.call_sync(a, std::move(m)); },
            cluster.coordinator_addr());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(kv.put("k" + std::to_string(i), "v" + std::to_string(i)).ok()) << i;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < 30; ++i) {
    auto r = kv.get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(r.value(), "v" + std::to_string(i));
  }
}

}  // namespace
}  // namespace bespokv
