// Per-layer probes for the end-to-end benchmark. Each layer is timed from
// outside, through its public entry point, while the workload runs:
//
//   net          Runtime::call to an echo node that does no work
//   coordinator  kGetShardMap (also detects the epoch bump after a kill)
//   controlet    raw kGet to the replica a strong/eventual read would use,
//                raw kPut to the replica a write would enter
//   sharedlog    kLogAppend on a shard id no controlet reads
//   datalet      direct Datalet::get on the read replica's engine, and
//                Datalet::put on a side engine of the same kind and config
//   storage      append + fdatasync on a side storage::Wal
//
// RPC probes run on a probe node with its own reactor; the direct calls run
// on the probe's own thread. Every probe key lives under "~probe/", so
// the workload's keys and checks never see them. The cluster still serves
// the probe's requests, so their traffic lands in the cluster's counters;
// keeping the round rate a small share of the workload's rate bounds that.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/coordinator/cluster_meta.h"
#include "src/datalet/datalet.h"
#include "src/net/tcp_fabric.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/wal.h"

namespace bespokv::e2e {

// steady_clock, the same clock TcpFabric stamps spans with.
uint64_t mono_ns();
void sleep_until_ns(uint64_t t_ns);

// write_bytes from a /proc io file (/proc/self/io, /proc/thread-self/io).
uint64_t io_write_bytes(const char* proc_file);

// kStats snapshot of each reachable node, keyed by address.
using Scrape = std::map<Addr, obs::MetricsSnapshot>;
Scrape scrape(TcpFabric& fab, const std::vector<Addr>& nodes);

// Sum over nodes present in both scrapes of after - before for every counter
// whose name satisfies `match`.
template <typename Match>
uint64_t counter_delta(const Scrape& before, const Scrape& after, Match match) {
  uint64_t total = 0;
  for (const auto& [addr, snap] : after) {
    auto b = before.find(addr);
    for (const auto& [name, v] : snap.counters) {
      if (!match(name)) continue;
      const uint64_t prev = b == before.end() ? 0 : b->second.counter(name);
      if (v > prev) total += v - prev;
    }
  }
  return total;
}

struct ProbeConfig {
  double rounds_per_sec = 0;  // each round samples every probe once
  std::string value;          // payload for kPut / append / side-engine puts
  // The side engine (same kind and config as the cluster's) and the side
  // WAL live here, on the same filesystem as the cluster's data.
  std::string side_dir;
  // Key that exists in the cluster's engines (for direct datalet reads).
  std::string datalet_key;
};

struct ProbeSamples {
  std::vector<double> net_rtt, get_map, ctl_get, ctl_put, log_append;
  std::vector<double> datalet_get, datalet_put, fsync;
  double detect_ms = 0;  // kill -> first map with a newer epoch
  std::vector<obs::Span> spans;  // the probe's own spans, one per sample
};

class LayerProbe {
 public:
  LayerProbe(TcpFabric& fab, Cluster& cluster, ProbeConfig cfg);
  ~LayerProbe();
  LayerProbe(const LayerProbe&) = delete;
  LayerProbe& operator=(const LayerProbe&) = delete;

  void start();
  // Marks the instant (mono_ns) a replica was killed; the next map with a
  // newer epoch than the one held then closes coordinator.detect_ms.
  void note_kill(uint64_t at_ns);
  // Stops the probe thread and returns everything sampled. Call once.
  ProbeSamples stop();
  // Bytes the probe thread (side engine + side WAL) has written so far.
  uint64_t io_write_bytes() const { return io_bytes_.load(); }

 private:
  void drive();
  void rpc_round();  // on the probe node's reactor

  Cluster& cluster_;
  ProbeConfig cfg_;
  Addr probe_addr_, echo_addr_;
  Runtime* rt_ = nullptr;

  // Owned by the probe node's reactor.
  ShardMap map_;
  bool map_fetch_inflight_ = false;
  uint64_t kill_epoch_ = 0;
  ProbeSamples rpc_;

  // Owned by the probe thread.
  std::unique_ptr<Datalet> side_engine_;
  std::unique_ptr<storage::Wal> wal_;
  ProbeSamples direct_;
  uint64_t side_seq_ = 0;

  std::atomic<uint64_t> io_bytes_{0};
  std::atomic<uint64_t> kill_at_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace bespokv::e2e
