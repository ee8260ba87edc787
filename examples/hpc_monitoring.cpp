// §VI-A use case: hierarchical/heterogeneous storage for HPC monitoring.
//
// One shard whose three replicas live in *different* engines (polyglot
// persistence, §IV-D): an LSM tree absorbs the write-heavy Lustre monitoring
// stream, a B+-tree (tMT) replica serves the read-heavy analytics model with
// range scans, and a persistent log replica keeps everything durable on
// disk. Replication is MS+EC: the monitoring collector writes once and the
// framework fans the data out to all three abstractions.
//
//   $ ./hpc_monitoring
#include <cstdio>
#include <filesystem>
#include <thread>

#include "src/client/client.h"
#include "src/cluster/cluster.h"
#include "src/net/tcp_fabric.h"

using namespace bespokv;

namespace {

// A monitoring sample from a Lustre server (MDS/OSS stats, §VI-A).
std::string sample_key(const char* server, int t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s/%06d", server, t);
  return buf;
}

}  // namespace

int main() {
  const std::string log_dir = "/tmp/bkv_monitoring_log";
  std::filesystem::remove_all(log_dir);

  ClusterOptions opts;
  opts.topology = Topology::kMasterSlave;
  opts.consistency = Consistency::kEventual;
  opts.num_shards = 1;
  opts.num_replicas = 3;
  // Master absorbs writes in the LSM; slave 1 is the analytics tMT replica;
  // slave 2 persists the stream in an fdatasync'd on-disk log.
  opts.replica_datalet_kinds = {"tLSM", "tMT", "tLog"};
  opts.datalet_cfg.dir = log_dir;
  opts.datalet_cfg.sync_every = 64;

  TcpFabric fabric;
  Cluster cluster(fabric, opts);
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  SyncKv kv([&fabric](const Addr& a, Message m) { return fabric.call_sync(a, std::move(m)); },
            cluster.coordinator_addr());

  // --- Monitoring ingest: probe agents push time-series samples. ----------
  const char* servers[] = {"mds0", "oss0", "oss1", "ost3"};
  int written = 0;
  for (int t = 0; t < 500; ++t) {
    for (const char* server : servers) {
      char value[64];
      std::snprintf(value, sizeof(value), "iops=%d;bw=%dMB/s", 100 + t % 37,
                    400 + t % 111);
      if (kv.put(sample_key(server, t), value, "lustre").ok()) ++written;
    }
  }
  std::printf("monitoring: ingested %d samples from %zu servers\n", written,
              std::size(servers));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // EC fan-out

  // --- Analytics: the load balancer reads back windows of samples. --------
  // Range queries hit the tMT replica through the datalet API; here we show
  // the engine-level view the analytics model uses (§VI-A's "multifaceted
  // view on shared data").
  auto tmt = cluster.datalet(0, 1);
  auto window = tmt->scan("lustre\x1foss0/000100", "lustre\x1foss0/000110", 0);
  std::printf("analytics: scanned %zu oss0 samples from the tMT replica\n",
              window.ok() ? window.value().size() : 0);
  if (window.ok() && !window.value().empty()) {
    std::printf("  first: %s -> %s\n", window.value().front().key.c_str(),
                window.value().front().value.c_str());
  }

  // Point reads through the normal client path (served by any replica).
  auto one = kv.get(sample_key("mds0", 42), "lustre");
  std::printf("analytics: point read mds0/000042 -> %s\n",
              one.value_or("<missing>").c_str());

  // --- Durability: the log replica has everything on disk. ----------------
  std::printf("durability: log replica holds %zu records in %s\n",
              cluster.datalet(0, 2)->size(), log_dir.c_str());

  std::printf("replica engines: %s / %s / %s\n", cluster.datalet(0, 0)->kind(),
              cluster.datalet(0, 1)->kind(), cluster.datalet(0, 2)->kind());
  return 0;
}
