#include "src/cluster/cluster.h"

#include "src/common/logging.h"
#include "src/datalet/locked.h"
#include "src/net/tcp_fabric.h"

namespace bespokv {

Result<ClusterOptions> ClusterOptions::from_json(const Json& j) {
  ClusterOptions o;
  auto topo = parse_topology(j.get("topology").as_string("ms"));
  if (!topo.ok()) return topo.status();
  o.topology = topo.value();
  auto cons =
      parse_consistency(j.get("consistency_model").as_string(
          j.get("consistency").as_string("eventual")));
  if (!cons.ok()) return cons.status();
  o.consistency = cons.value();
  o.num_shards = static_cast<int>(j.get("num_shards").as_int(1));
  // Paper configs count replicas *excluding* the master ("num_replicas
  // indicates how many replicas excluding the master replica", §A).
  if (j.has("num_replicas")) {
    o.num_replicas = static_cast<int>(j.get("num_replicas").as_int(2)) + 1;
  }
  o.datalet_kind = j.get("datalet").as_string("tHT");
  o.partitioner = j.get("partitioner").as_string("hash");
  o.num_standby = static_cast<int>(j.get("num_standby").as_int(0));
  for (const auto& e : j.get("replica_datalets").elements()) {
    o.replica_datalet_kinds.push_back(e.as_string());
  }
  for (const auto& e : j.get("range_splits").elements()) {
    o.range_splits.push_back(e.as_string());
  }
  if (o.partitioner == "range") {
    // Reject a misordered/duplicate split list here rather than let it build
    // a map that silently misroutes (shard bounds come straight from it).
    BKV_RETURN_IF_ERROR(validate_range_splits(o.range_splits));
    if (static_cast<int>(o.range_splits.size()) != o.num_shards - 1) {
      return Status::Invalid("range_splits: need num_shards - 1 split points");
    }
  }
  return o;
}

Cluster::Cluster(Fabric& fabric, ClusterOptions opts)
    : fabric_(fabric),
      sim_(dynamic_cast<SimFabric*>(&fabric)),
      opts_(std::move(opts)) {}

Addr Cluster::make_addr(const std::string& logical) {
  if (sim_ != nullptr) return opts_.name + "/" + logical;
  auto it = addr_map_.find(logical);
  if (it != addr_map_.end()) return it->second;
  const Addr a = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  addr_map_[logical] = a;
  return a;
}

std::shared_ptr<Datalet> Cluster::new_datalet(int replica_index,
                                              const std::string& tag) {
  std::string kind = opts_.datalet_kind;
  if (!opts_.replica_datalet_kinds.empty()) {
    kind = opts_.replica_datalet_kinds[static_cast<size_t>(replica_index) %
                                       opts_.replica_datalet_kinds.size()];
  }
  DataletConfig cfg = opts_.datalet_cfg;
  // One directory per replica under the deployment's storage root(s), so
  // engines sharing an Env (the verify harness's MemEnv) never collide.
  if (!cfg.durable_dir.empty()) cfg.durable_dir += "/" + tag;
  if (!cfg.dir.empty()) cfg.dir += "/" + tag;
  auto engine = make_datalet(kind, cfg);
  if (engine == nullptr) {
    LOG_ERROR << "unknown datalet kind " << kind << ", using tHT";
    engine = make_datalet("tHT", cfg);
  }
  if (sim_ == nullptr) {
    // TCP: transitions share engines across node threads.
    return std::make_shared<LockedDatalet>(std::move(engine));
  }
  return std::shared_ptr<Datalet>(std::move(engine));
}

Runtime* Cluster::add_server_node(const Addr& addr,
                                  std::shared_ptr<Service> svc) {
  if (sim_ != nullptr) return sim_->add_node(addr, std::move(svc), opts_.sim_node);
  return fabric_.add_node(addr, std::move(svc));
}

void Cluster::start() {
  if (started_) return;
  started_ = true;

  if (opts_.partitioner == "range") {
    // Programmatic configs bypass from_json's validation; a bad split list
    // here would index out of range or silently misroute, so degrade loudly.
    Status vs = validate_range_splits(opts_.range_splits);
    if (vs.ok() &&
        static_cast<int>(opts_.range_splits.size()) != opts_.num_shards - 1) {
      vs = Status::Invalid("range_splits: need num_shards - 1 split points");
    }
    if (!vs.ok()) {
      LOG_ERROR << "cluster: " << vs.to_string()
                << "; falling back to hash partitioning";
      opts_.partitioner = "hash";
    }
  }

  coord_addr_ = make_addr("coord");
  dlm_addr_ = make_addr("dlm");
  log_addr_ = make_addr("sharedlog");
  admin_addr_ = make_addr("admin");

  // Initial shard map.
  ShardMap map;
  map.epoch = 1;
  map.topology = opts_.topology;
  map.consistency = opts_.consistency;
  map.partitioner = opts_.partitioner;
  pairs_.resize(static_cast<size_t>(opts_.num_shards));
  for (int s = 0; s < opts_.num_shards; ++s) {
    ShardInfo si;
    si.id = static_cast<uint32_t>(s);
    if (opts_.partitioner == "range") {
      si.lower = s == 0 ? "" : opts_.range_splits[static_cast<size_t>(s - 1)];
      si.upper = s == opts_.num_shards - 1
                     ? ""
                     : opts_.range_splits[static_cast<size_t>(s)];
    }
    for (int r = 0; r < opts_.num_replicas; ++r) {
      const Addr a = make_addr("s" + std::to_string(s) + "r" + std::to_string(r));
      si.replicas.push_back(ReplicaInfo{a});
    }
    map.shards.push_back(std::move(si));
  }

  CoordinatorConfig ccfg = opts_.coordinator;
  ccfg.dlm = dlm_addr_;
  ccfg.sharedlog = log_addr_;
  coord_svc_ = std::make_shared<CoordinatorService>(map, ccfg);
  // Control-plane services are unconstrained nodes on the sim fabric.
  if (sim_ != nullptr) {
    SimNodeOpts ctl;
    ctl.is_client = true;  // metadata path is not the measured bottleneck
    sim_->add_node(coord_addr_, coord_svc_, ctl);
    // The DLM is a single Redlock-style server (a real serialization point —
    // the paper's AA+SC plateau comes from exactly this); the shared log
    // models a CORFU-class sequencer+SSD-array, which sustains hundreds of
    // thousands of appends/s ("we need to scale the Shared Log setup as
    // BESPOKV scales", §C.C).
    SimNodeOpts dlm_opts;
    dlm_opts.base_service_us = 12;
    dlm_opts.per_kb_service_us = 0;
    sim_->add_node(dlm_addr_, std::make_shared<DlmService>(), dlm_opts);
    // Modeled as a CORFU-class deployment whose sequencer+flash array scales
    // with the cluster (~600k appends/s in the CORFU paper), i.e. never the
    // measured bottleneck — matching the paper's own assumption. Appends
    // still pay the full round-trip latency.
    SimNodeOpts log_opts;
    log_opts.is_client = true;
    sim_->add_node(log_addr_, std::make_shared<SharedLogService>(), log_opts);
  } else {
    fabric_.add_node(coord_addr_, coord_svc_);
    fabric_.add_node(dlm_addr_, std::make_shared<DlmService>());
    fabric_.add_node(log_addr_, std::make_shared<SharedLogService>());
  }

  for (int s = 0; s < opts_.num_shards; ++s) {
    for (int r = 0; r < opts_.num_replicas; ++r) {
      Pair p;
      p.addr = map.shards[static_cast<size_t>(s)]
                   .replicas[static_cast<size_t>(r)]
                   .controlet;
      p.datalet =
          new_datalet(r, "s" + std::to_string(s) + "r" + std::to_string(r));
      ControletConfig cfg = opts_.controlet;
      cfg.coordinator = coord_addr_;
      cfg.shard = static_cast<uint32_t>(s);
      cfg.datalet = p.datalet;
      p.controlet = make_controlet(opts_.topology, opts_.consistency, cfg);
      add_server_node(p.addr, p.controlet);
      pairs_[static_cast<size_t>(s)].push_back(std::move(p));
    }
  }

  for (int i = 0; i < opts_.num_standby; ++i) {
    Pair p;
    p.addr = make_addr("standby" + std::to_string(i));
    p.datalet = new_datalet(0, "standby" + std::to_string(i));
    ControletConfig cfg = opts_.controlet;
    cfg.coordinator = coord_addr_;
    cfg.datalet = p.datalet;
    // Standbys adopt the failed pair's role at recovery time; the concrete
    // type must match the deployment's topology+consistency.
    p.controlet = make_controlet(opts_.topology, opts_.consistency, cfg);
    add_server_node(p.addr, p.controlet);
    standbys_.push_back(p);
  }

  // Admin/driver node (client capacity on the sim fabric).
  auto admin_svc = std::make_shared<LambdaService>(
      [](Runtime&, const Addr&, Message, Replier reply) {
        reply(Message::reply(Code::kInvalid));
      });
  if (sim_ != nullptr) {
    SimNodeOpts copts;
    copts.is_client = true;
    admin_rt_ = sim_->add_node(admin_addr_, admin_svc, copts);
  } else {
    admin_rt_ = fabric_.add_node(admin_addr_, admin_svc);
  }

  // Register standbys with the coordinator (from the admin node so the
  // registration flows through the fabric like any other message).
  for (const auto& p : standbys_) {
    Message m;
    m.op = Op::kRegisterNode;
    m.key = p.addr;
    admin_rt_->post([this, m]() mutable { admin_rt_->send(coord_addr_, std::move(m)); });
  }
}

Addr Cluster::controlet_addr(int shard, int replica) const {
  return pairs_[static_cast<size_t>(shard)][static_cast<size_t>(replica)].addr;
}

std::shared_ptr<ControletBase> Cluster::controlet(int shard, int replica) {
  return pairs_[static_cast<size_t>(shard)][static_cast<size_t>(replica)].controlet;
}

std::shared_ptr<Datalet> Cluster::datalet(int shard, int replica) {
  return pairs_[static_cast<size_t>(shard)][static_cast<size_t>(replica)].datalet;
}

void Cluster::kill_controlet(int shard, int replica) {
  fabric_.kill(controlet_addr(shard, replica));
}

bool Cluster::restart_controlet(int shard, int replica) {
  return fabric_.restart(controlet_addr(shard, replica));
}

void Cluster::start_transition(Topology topology, Consistency consistency,
                               std::function<void(Status)> done) {
  ++transition_round_;
  const std::string suffix = ".v" + std::to_string(transition_round_ + 1);

  // Spawn successor controlets bound to the existing datalets ("two old and
  // new controlets are mapped to one datalet during the transition", §V).
  std::vector<std::string> mapping;
  std::vector<Pair> generation;
  const ShardMap& live = coord_svc_->shard_map();
  for (const auto& shard : live.shards) {
    for (const auto& rep : shard.replicas) {
      // Locate the live pair owning this controlet address.
      std::shared_ptr<Datalet> engine;
      for (auto& shard_pairs : pairs_) {
        for (auto& p : shard_pairs) {
          if (p.addr == rep.controlet) engine = p.datalet;
        }
      }
      for (auto& gen : generations_) {
        for (auto& p : gen) {
          if (p.addr == rep.controlet) engine = p.datalet;
        }
      }
      for (auto& p : standbys_) {
        if (p.addr == rep.controlet) engine = p.datalet;
      }
      if (engine == nullptr) continue;

      Pair np;
      np.addr = sim_ != nullptr
                    ? rep.controlet + suffix
                    : make_addr("t" + std::to_string(transition_round_) + "-" +
                                rep.controlet);
      np.datalet = engine;
      ControletConfig cfg = opts_.controlet;
      cfg.coordinator = coord_addr_;
      cfg.shard = shard.id;
      cfg.datalet = engine;
      np.controlet = make_controlet(topology, consistency, cfg);
      add_server_node(np.addr, np.controlet);
      mapping.push_back(rep.controlet + "=" + np.addr);
      generation.push_back(np);
    }
  }
  generations_.push_back(std::move(generation));

  Message req;
  req.op = Op::kStartTransition;
  Json j = Json::object();
  j.set("topology", Json::string(topology_name(topology)));
  j.set("consistency", Json::string(consistency_name(consistency)));
  req.value = j.dump();
  req.strs = std::move(mapping);
  admin_rt_->post([this, req = std::move(req), done = std::move(done)]() mutable {
    admin_rt_->call(coord_addr_, std::move(req),
                    [done = std::move(done)](Status s, Message rep) {
                      if (!done) return;
                      if (!s.ok()) {
                        done(s);
                      } else {
                        done(Status(rep.code));
                      }
                    },
                    2'000'000);
  });
}

void Cluster::start_migration(uint32_t from, const std::string& split_at,
                              int64_t dest, std::function<void(Status)> done) {
  Json j = Json::object();
  j.set("from", Json::number(from));
  j.set("split_at", Json::string(split_at));
  if (dest >= 0) {
    j.set("dest", Json::number(static_cast<double>(dest)));
  } else {
    Json reps = Json::array();
    for (const auto& p : standbys_) reps.push(Json::string(p.addr));
    j.set("new_replicas", std::move(reps));
  }
  Message req;
  req.op = Op::kMigrateShard;
  req.value = j.dump();
  admin_rt_->post([this, req = std::move(req),
                   done = std::move(done)]() mutable {
    admin_rt_->call(coord_addr_, std::move(req),
                    [done = std::move(done)](Status s, Message rep) {
                      if (!done) return;
                      if (!s.ok()) {
                        done(s);
                      } else {
                        done(Status(rep.code));
                      }
                    },
                    2'000'000);
  });
}

}  // namespace bespokv
