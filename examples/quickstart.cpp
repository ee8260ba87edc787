// Quickstart: "drop a datalet in, get a distributed KV store out".
//
// Builds a 2-shard, 3-replica Master-Slave/Eventual-Consistency deployment
// of the stock tHT datalet over loopback TCP, then uses the client library
// for tables, puts, gets, dels and a per-request strong read.
//
//   $ ./quickstart
#include <cstdio>
#include <thread>

#include "src/client/client.h"
#include "src/cluster/cluster.h"
#include "src/net/tcp_fabric.h"

using namespace bespokv;

int main() {
  // 1. Describe the deployment — the programmatic equivalent of the paper's
  //    JSON config ({"topology": "ms", "consistency_model": "eventual", ...}).
  ClusterOptions opts;
  opts.topology = Topology::kMasterSlave;
  opts.consistency = Consistency::kEventual;
  opts.num_shards = 2;
  opts.num_replicas = 3;      // master + two slaves per shard
  opts.datalet_kind = "tHT";  // the single-server store being "dropped in"

  // 2. Assemble it: coordinator, DLM, shared log, and 6 controlet+datalet
  //    pairs, each node with its own loopback port and event-loop thread.
  TcpFabric fabric;
  Cluster cluster(fabric, opts);
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::printf("cluster up: coordinator at %s, %d shards x %d replicas\n",
              cluster.coordinator_addr().c_str(), opts.num_shards,
              opts.num_replicas);

  // 3. Talk to it through the client library (Table II client API).
  SyncKv kv([&fabric](const Addr& a, Message m) { return fabric.call_sync(a, std::move(m)); },
            cluster.coordinator_addr());

  if (Status s = kv.put("greeting", "hello, bespoKV"); !s.ok()) {
    std::printf("put failed: %s\n", s.to_string().c_str());
    return 1;
  }
  // This deployment is eventually consistent: give the master's asynchronous
  // propagation a beat so the read below can be served by *any* replica.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto hello = kv.get("greeting");
  std::printf("get(greeting) -> %s\n",
              hello.ok() ? hello.value().c_str() : hello.status().to_string().c_str());

  // Tables are first-class: same keys, different namespaces.
  kv.put("jupiter", "gas giant", /*table=*/"planets");
  kv.put("jupiter", "roman king of gods", /*table=*/"mythology");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::printf("planets/jupiter   -> %s\n", kv.get("jupiter", "planets").value_or("?").c_str());
  std::printf("mythology/jupiter -> %s\n", kv.get("jupiter", "mythology").value_or("?").c_str());

  // Per-request consistency (§IV-C): this read goes to the master, which has
  // every acknowledged write, instead of a possibly-lagging slave.
  auto strong = kv.get("greeting", "", ConsistencyLevel::kStrong);
  std::printf("strong get(greeting) -> %s\n", strong.value_or("?").c_str());

  // Deletes propagate like writes.
  kv.del("greeting");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::printf("after del, get(greeting) -> %s\n",
              kv.get("greeting").status().to_string().c_str());

  std::printf("quickstart done\n");
  return 0;
}
