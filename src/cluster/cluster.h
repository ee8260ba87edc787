// ClusterHarness: assembles a complete bespoKV deployment on either fabric —
// coordinator, DLM, shared log, N shards x R controlet+datalet pairs,
// optional standby pairs for failover — and drives live topology/consistency
// transitions (§V) by spawning successor controlets bound to the existing
// datalets and asking the coordinator to orchestrate the switch.
//
// This is the programmatic equivalent of the paper's slap.sh + JSON config
// deployment (§A); ClusterOptions::from_json accepts the same shape of
// configuration file.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/controlet/controlet.h"
#include "src/coordinator/coordinator.h"
#include "src/datalet/datalet.h"
#include "src/net/sim_fabric.h"
#include "src/net/runtime.h"

namespace bespokv {

struct ClusterOptions {
  Topology topology = Topology::kMasterSlave;
  Consistency consistency = Consistency::kEventual;
  int num_shards = 1;
  int num_replicas = 3;           // paper default: 3 (master + 2 slaves)
  std::string datalet_kind = "tHT";
  // Polyglot persistence (§IV-D): per-replica-index engine override, e.g.
  // {"tLSM", "tMT", "tLog"} stores each replica in a different engine.
  std::vector<std::string> replica_datalet_kinds;
  DataletConfig datalet_cfg;
  std::string partitioner = "hash";   // "hash" | "range"
  std::vector<std::string> range_splits;  // shard i covers [splits[i-1], splits[i])
  int num_standby = 0;
  std::string name = "bkv";       // address prefix
  ControletConfig controlet;      // timer/batching knobs (coordinator filled in)
  CoordinatorConfig coordinator;
  // SimFabric only: server node capacity model.
  SimNodeOpts sim_node;

  // Parses the paper-style JSON config ({"topology": "ms", ...}).
  static Result<ClusterOptions> from_json(const Json& j);
};

class Cluster {
 public:
  Cluster(Fabric& fabric, ClusterOptions opts);

  // Builds and starts every node. Idempotent.
  void start();

  const Addr& coordinator_addr() const { return coord_addr_; }
  const Addr& dlm_addr() const { return dlm_addr_; }
  const Addr& sharedlog_addr() const { return log_addr_; }
  Addr controlet_addr(int shard, int replica) const;

  std::shared_ptr<ControletBase> controlet(int shard, int replica);
  std::shared_ptr<Datalet> datalet(int shard, int replica);
  CoordinatorService* coordinator_service() { return coord_svc_.get(); }

  // An extra fabric node whose Runtime the driver may use for admin calls
  // and workload generation. On SimFabric it has client (infinite) capacity.
  Runtime* admin() { return admin_rt_; }
  const Addr& admin_addr() const { return admin_addr_; }

  // Crash-stops a controlet+datalet pair (the coordinator's heartbeat sweep
  // will detect it and run failover).
  void kill_controlet(int shard, int replica);

  // Restarts a previously killed pair on its original address. The controlet
  // re-enters via the catch-up protocol (resync before serving). Returns
  // false if the node is not restartable (still alive, or fabric shut down).
  bool restart_controlet(int shard, int replica);

  // Spawns successor controlets (same datalets, new addresses) implementing
  // `topology`+`consistency` and asks the coordinator to transition. `done`
  // fires when the coordinator *accepts* the request; completion is visible
  // via coordinator_service()->transition_active() turning false.
  void start_transition(Topology topology, Consistency consistency,
                        std::function<void(Status)> done);

  // Asks the coordinator to migrate the tail [split_at, upper) of `from`'s
  // range (requires the range partitioner) into `dest` — the right-adjacent
  // shard — or, with dest < 0, into a brand-new shard staffed from this
  // cluster's registered standbys. `done` fires when the coordinator accepts
  // (or rejects) the request; completion is visible via
  // coordinator_service()->migration_active() turning false.
  void start_migration(uint32_t from, const std::string& split_at,
                       int64_t dest, std::function<void(Status)> done);

  const ClusterOptions& options() const { return opts_; }

 private:
  struct Pair {
    Addr addr;
    std::shared_ptr<ControletBase> controlet;
    std::shared_ptr<Datalet> datalet;
  };

  Addr make_addr(const std::string& logical);
  // `tag` keys the engine's durable directory (when datalet_cfg.durable_dir
  // or dir is set): every replica persists under its own subtree of the
  // shared Env, like a disk per machine.
  std::shared_ptr<Datalet> new_datalet(int replica_index,
                                       const std::string& tag);
  Runtime* add_server_node(const Addr& addr, std::shared_ptr<Service> svc);

  Fabric& fabric_;
  SimFabric* sim_;  // non-null when fabric_ is a SimFabric, else TcpFabric
  ClusterOptions opts_;
  bool started_ = false;
  int transition_round_ = 0;

  Addr coord_addr_, dlm_addr_, log_addr_, admin_addr_;
  std::shared_ptr<CoordinatorService> coord_svc_;
  Runtime* admin_rt_ = nullptr;
  std::vector<std::vector<Pair>> pairs_;          // [shard][replica]
  std::vector<Pair> standbys_;
  std::vector<std::vector<Pair>> generations_;    // transition successors
  // TCP needs real ports; logical->actual address mapping.
  std::map<std::string, Addr> addr_map_;
};

}  // namespace bespokv
