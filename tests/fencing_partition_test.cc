// Epoch fencing at the state-mutating sinks (ISSUE 5): after a failover the
// coordinator ratchets a per-shard epoch floor into the DLM and the shared
// log, and chain replicas reject chain writes minted under an older map —
// so a deposed master's writes die at the sink on every fabric, not just in
// the simulator. Also covers the global fencing kill-switch used by the
// negative split-brain acceptance test.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/cluster/cluster.h"
#include "src/common/fencing.h"
#include "src/dlm/dlm.h"
#include "src/net/sim_fabric.h"
#include "src/net/tcp_fabric.h"
#include "src/sharedlog/sharedlog.h"
#include "tests/sim_test_util.h"

namespace bespokv {
namespace {

using CallFn = std::function<Result<Message>(const Addr&, Message)>;

Message fence_push(uint32_t shard, uint64_t epoch) {
  Message m;
  m.op = Op::kReconfigure;
  m.shard = shard;
  m.epoch = epoch;
  return m;
}

Message lock_req(const std::string& key, uint64_t epoch, uint32_t shard) {
  Message m;
  m.op = Op::kLock;
  m.key = key;
  m.flags = kFlagWriteLock;
  m.epoch = epoch;
  m.shard = shard;
  return m;
}

Message append_req(const std::string& key, uint64_t epoch, uint32_t shard) {
  Message m;
  m.op = Op::kLogAppend;
  m.key = key;
  m.value = "v";
  m.epoch = epoch;
  m.shard = shard;
  return m;
}

// The shared probe sequence: ratchet the shard-0 floor to 5, then check that
// a stale-epoch acquire/append is rejected with kConflict while current,
// future and legacy (epoch 0, pre-fencing sender) requests pass.
void probe_sink(const CallFn& call, const Addr& sink, bool dlm) {
  auto mk = [&](uint64_t epoch, const std::string& key) {
    return dlm ? lock_req(key, epoch, 0) : append_req(key, epoch, 0);
  };
  auto rep = call(sink, fence_push(0, 5));
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  ASSERT_EQ(rep.value().code, Code::kOk);

  rep = call(sink, mk(4, "stale"));
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().code, Code::kConflict) << "stale epoch admitted";

  rep = call(sink, mk(5, "current"));
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().code, Code::kOk);

  rep = call(sink, mk(6, "future"));
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().code, Code::kOk);

  rep = call(sink, mk(0, "legacy"));
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().code, Code::kOk);

  // The floor only ratchets upward: a late, reordered push of an older epoch
  // must not reopen the fence.
  rep = call(sink, fence_push(0, 3));
  ASSERT_TRUE(rep.ok());
  rep = call(sink, mk(4, "still-stale"));
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().code, Code::kConflict);

  // Other shards are unaffected.
  rep = call(sink, dlm ? lock_req("other", 1, 1) : append_req("other", 1, 1));
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().code, Code::kOk);
}

// Pumps the simulator until a call issued from a client node completes.
struct SimCaller {
  SimFabric sim;
  Runtime* cli = nullptr;

  SimCaller() {
    SimNodeOpts copts;
    copts.is_client = true;
    cli = sim.add_node("cli",
                       std::make_shared<LambdaService>(
                           [](Runtime&, const Addr&, Message, Replier r) {
                             r(Message::reply(Code::kInvalid));
                           }),
                       copts);
  }

  Result<Message> call(const Addr& dst, Message req) {
    auto done = std::make_shared<bool>(false);
    auto res = std::make_shared<Result<Message>>(Status::Internal("pending"));
    sim.post_to("cli", [&, dst, req = std::move(req)]() mutable {
      cli->call(dst, std::move(req),
                [done, res](Status s, Message rep) {
                  *res = s.ok() ? Result<Message>(std::move(rep))
                                : Result<Message>(s);
                  *done = true;
                },
                2'000'000);
    });
    while (!*done && !sim.idle()) sim.run_for(1'000);
    return *res;
  }
};

TEST(EpochFence, DlmRejectsStaleAcquiresOnSim) {
  SimCaller f;
  auto dlm = std::make_shared<DlmService>();
  f.sim.add_node("dlm", dlm);
  probe_sink([&](const Addr& a, Message m) { return f.call(a, std::move(m)); },
             "dlm", /*dlm=*/true);
  EXPECT_EQ(dlm->fence_rejects(), 2u);
}

TEST(EpochFence, SharedLogRejectsStaleAppendsOnSim) {
  SimCaller f;
  auto log = std::make_shared<SharedLogService>();
  f.sim.add_node("log", log);
  probe_sink([&](const Addr& a, Message m) { return f.call(a, std::move(m)); },
             "log", /*dlm=*/false);
  EXPECT_EQ(log->fence_rejects(), 2u);
}

TEST(EpochFence, DlmAndLogRejectStaleEpochsOnTcpFabric) {
  TcpFabric fab;
  auto dlm = std::make_shared<DlmService>();
  auto log = std::make_shared<SharedLogService>();
  const Addr dlm_addr = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  const Addr log_addr = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  fab.add_node(dlm_addr, dlm);
  fab.add_node(log_addr, log);
  CallFn call = [&](const Addr& a, Message m) {
    return fab.call_sync(a, std::move(m), 2'000'000);
  };
  probe_sink(call, dlm_addr, /*dlm=*/true);
  probe_sink(call, log_addr, /*dlm=*/false);
  EXPECT_EQ(dlm->fence_rejects(), 2u);
  EXPECT_EQ(log->fence_rejects(), 2u);
}

// ----------------------- chain-write sink fencing ---------------------------

Message chain_put(const std::string& key, uint64_t seq, uint64_t epoch) {
  Message m;
  m.op = Op::kChainPut;
  m.key = key;
  m.value = "v" + std::to_string(seq);
  m.seq = seq;
  m.epoch = epoch;
  m.shard = 0;
  return m;
}

bool datalet_has(const std::shared_ptr<Datalet>& d, const std::string& key) {
  bool found = false;
  d->for_each([&](std::string_view k, const Entry&) { found |= k == key; });
  return found;
}

// Bumps replica 1's map epoch (as a failover push would), then replays a
// chain write minted under the old epoch: it must be rejected with kConflict
// and must never reach the datalet. A write under the new epoch still lands.
void probe_chain_sink(Cluster& cluster, const CallFn& call) {
  ShardMap map = cluster.coordinator_service()->shard_map();
  const uint64_t old_epoch = map.epoch;
  map.epoch = old_epoch + 1;
  Message reconf;
  reconf.op = Op::kReconfigure;
  reconf.shard = 0;
  reconf.value = map.encode();
  const Addr mid = cluster.controlet_addr(0, 1);
  auto rep = call(mid, std::move(reconf));
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  ASSERT_EQ(rep.value().code, Code::kOk);

  rep = call(mid, chain_put("fence-stale", 100, old_epoch));
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  EXPECT_EQ(rep.value().code, Code::kConflict)
      << "deposed head's chain write was admitted";
  EXPECT_FALSE(datalet_has(cluster.datalet(0, 1), "fence-stale"));

  rep = call(mid, chain_put("fence-current", 101, old_epoch + 1));
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  EXPECT_EQ(rep.value().code, Code::kOk);
  EXPECT_TRUE(datalet_has(cluster.datalet(0, 1), "fence-current"));
}

ClusterOptions chain_cluster() {
  ClusterOptions o;
  o.topology = Topology::kMasterSlave;
  o.consistency = Consistency::kStrong;
  o.num_shards = 1;
  o.num_replicas = 3;
  return o;
}

TEST(EpochFence, ChainWriteFromDeposedHeadDiesAtReplicaOnSim) {
  testing::SimEnv env(chain_cluster());
  probe_chain_sink(env.cluster, [&](const Addr& a, Message m) {
    return env.call(a, std::move(m));
  });
}

TEST(EpochFence, ChainWriteFromDeposedHeadDiesAtReplicaOnTcpFabric) {
  TcpFabric fab;
  Cluster cluster(fab, chain_cluster());
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  probe_chain_sink(cluster, [&](const Addr& a, Message m) {
    return fab.call_sync(a, std::move(m), 2'000'000);
  });
}

// --------------------------- fencing kill-switch ----------------------------

TEST(EpochFence, ScopedDisableAdmitsStaleEpochsThenRestores) {
  SimCaller f;
  auto dlm = std::make_shared<DlmService>();
  f.sim.add_node("dlm", dlm);
  auto rep = f.call("dlm", fence_push(0, 5));
  ASSERT_TRUE(rep.ok());
  {
    ScopedFencingDisable off;
    rep = f.call("dlm", lock_req("k", 4, 0));
    ASSERT_TRUE(rep.ok());
    EXPECT_EQ(rep.value().code, Code::kOk) << "kill-switch did not disable";
  }
  rep = f.call("dlm", lock_req("k2", 4, 0));
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().code, Code::kConflict) << "fencing did not restore";
}

}  // namespace
}  // namespace bespokv
