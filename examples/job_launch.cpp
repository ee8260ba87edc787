// §VI-E / §II use case: resource & process management with on-line topology
// adaptation.
//
// A job-launch service stores launch descriptors and per-rank status in
// bespoKV. While the workload runs on a single cluster, simple Master-Slave
// suffices; when the job spans additional clusters (geo-distribution), the
// deployment is switched *live* to Active-Active so every site takes writes
// locally — the §V transition, with no downtime and no data migration.
//
//   $ ./job_launch
#include <cstdio>
#include <thread>

#include "src/client/client.h"
#include "src/cluster/cluster.h"
#include "src/net/tcp_fabric.h"

using namespace bespokv;

int main() {
  ClusterOptions opts;
  opts.topology = Topology::kMasterSlave;
  opts.consistency = Consistency::kEventual;
  opts.num_shards = 2;
  opts.num_replicas = 3;

  TcpFabric fabric;
  Cluster cluster(fabric, opts);
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  SyncKv kv([&fabric](const Addr& a, Message m) { return fabric.call_sync(a, std::move(m)); },
            cluster.coordinator_addr());

  // Phase 1: single-cluster job launch under MS.
  kv.put("job42/launch", "nodes=128;binary=/apps/hacc", "jobs");
  for (int rank = 0; rank < 128; ++rank) {
    kv.put("job42/rank" + std::to_string(rank), "RUNNING", "jobs");
  }
  std::printf("phase 1 (MS+EC): job 42 launched, 128 ranks registered\n");
  auto desc = kv.get("job42/launch", "jobs");
  std::printf("  launch descriptor: %s\n", desc.value_or("?").c_str());

  // Phase 2: the job scales out to a second cluster — switch to AA so both
  // sites' launch daemons write locally (§II: "AA topology may become more
  // beneficial as we scale out to multiple clusters").
  bool accepted = false;
  cluster.start_transition(Topology::kActiveActive, Consistency::kEventual,
                           [&](Status s) { accepted = s.ok(); });
  for (int i = 0; i < 100 && (!accepted ||
       cluster.coordinator_service()->transition_active()); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::printf("phase 2: live transition to AA+EC %s\n",
              cluster.coordinator_service()->shard_map().topology ==
                      Topology::kActiveActive
                  ? "complete"
                  : "FAILED");

  // Both "sites" (clients hitting different actives) update rank states.
  kv.refresh();
  int updated = 0;
  for (int rank = 0; rank < 128; ++rank) {
    if (kv.put("job42/rank" + std::to_string(rank),
               rank % 2 ? "SITE_A_DONE" : "SITE_B_DONE", "jobs")
            .ok()) {
      ++updated;
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::printf("  %d rank updates accepted under AA; pre-transition data intact: %s\n",
              updated,
              kv.get("job42/launch", "jobs").ok() ? "yes" : "NO");

  // Monitoring view: poll a few rank states.
  for (int rank : {0, 1, 127}) {
    std::printf("  job42/rank%d = %s\n", rank,
                kv.get("job42/rank" + std::to_string(rank), "jobs")
                    .value_or("?")
                    .c_str());
  }
  std::printf("job-launch example done\n");
  return 0;
}
