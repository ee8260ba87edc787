// Standalone chaos driver for the nightly sweep (not a gtest binary):
//
//   chaos_driver --fabric=sim|tcp --seed=N [--out=DIR] [--ops=K]
//                [--faultplan=FILE]
//
// Derives a FaultPlan from the seed (link drop/duplicate noise plus a
// scheduled crash+restart of shard 0's master) — or replays one dumped by a
// previous failing run / the verify harness via --faultplan — runs a
// retrying client
// workload against an MS+SC cluster on the chosen fabric, and enforces the
// repo's chaos invariant: zero failed acked operations — every op eventually
// succeeds and every acked write reads back its value.
//
// On failure the driver writes the exact FaultPlan JSON and a per-node trace
// dump into --out (uploaded as CI artifacts), so the run can be replayed:
// deterministically on the sim fabric, statistically on TCP.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/net/fault.h"
#include "src/net/tcp_fabric.h"
#include "src/obs/trace.h"
#include "tests/sim_test_util.h"

namespace bespokv {
namespace {

struct Args {
  std::string fabric = "sim";
  uint64_t seed = 1;
  std::string out = ".";
  int ops = 120;
  int reactors = 0;  // --fabric=tcp: reactor threads per node (0 = default)
  int cores = 1;     // --fabric=sim: per-node service cores
  std::string faultplan;  // replay a dumped FaultPlan instead of deriving one
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--fabric=", 0) == 0) {
      a->fabric = arg.substr(9);
    } else if (arg.rfind("--seed=", 0) == 0) {
      a->seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--out=", 0) == 0) {
      a->out = arg.substr(6);
    } else if (arg.rfind("--ops=", 0) == 0) {
      a->ops = std::atoi(arg.c_str() + 6);
    } else if (arg.rfind("--reactors=", 0) == 0) {
      a->reactors = std::atoi(arg.c_str() + 11);
    } else if (arg.rfind("--cores=", 0) == 0) {
      a->cores = std::atoi(arg.c_str() + 8);
      if (a->cores < 1) {
        std::fprintf(stderr, "--cores must be >= 1\n");
        return false;
      }
    } else if (arg.rfind("--faultplan=", 0) == 0) {
      a->faultplan = arg.substr(12);
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", arg.c_str());
      return false;
    }
  }
  return a->fabric == "sim" || a->fabric == "tcp";
}

ClusterOptions chaos_cluster() {
  ClusterOptions o;
  o.topology = Topology::kMasterSlave;
  o.consistency = Consistency::kStrong;
  o.num_shards = 2;
  o.num_replicas = 3;
  o.num_standby = 1;
  o.coordinator.hb_period_us = 100'000;
  o.controlet.hb_period_us = 50'000;
  return o;
}

FaultPlan make_plan(uint64_t seed, const Addr& master);

// The plan either replays a dumped JSON file (--faultplan, e.g. the artifact
// of a previous failing run or of verify_driver) or is derived from the seed.
Result<FaultPlan> resolve_plan(const Args& args, const Addr& master) {
  if (!args.faultplan.empty()) {
    std::ifstream f(args.faultplan);
    if (!f) return Status::NotFound("cannot open " + args.faultplan);
    std::string body((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    auto j = Json::parse(body);
    if (!j.ok()) return j.status();
    // Accept either a bare FaultPlan dump or a full verify-harness Scenario
    // (whose plan sits under "faults") so nightly artifacts replay directly.
    if (j.value().get("faults").is_object()) {
      return FaultPlan::from_json(j.value().get("faults"));
    }
    return FaultPlan::from_json(j.value());
  }
  return make_plan(args.seed, master);
}

FaultPlan make_plan(uint64_t seed, const Addr& master) {
  Rng rng(seed * 7919 + 13);
  FaultPlan p;
  p.seed = seed;
  LinkFault noise;  // everywhere: clients, chain links, heartbeats
  noise.drop = 0.005 * double(1 + rng.next_u64(4));
  noise.duplicate = 0.03;
  // Bound the noise window: faults stop before verification so the cluster
  // can converge. The invariant is "no acked op is lost once faults clear",
  // not "reads succeed while the network is actively being damaged".
  noise.until_us = 8'000'000;
  p.links.push_back(noise);
  NodeFault crash;
  crash.node = master;
  crash.crash_at_us = 200'000 + rng.next_u64(400'000);
  crash.restart_at_us = crash.crash_at_us + 3'000'000;
  p.nodes.push_back(crash);
  return p;
}

using CallFn = std::function<Result<Message>(const Addr&, Message)>;

void dump_failure(const Args& args, const FaultPlan& plan, Cluster& cluster,
                  const CallFn& call) {
  const std::string tag =
      args.fabric + "-seed" + std::to_string(args.seed);
  {
    std::ofstream f(args.out + "/faultplan-" + tag + ".json");
    f << plan.encode() << "\n";
  }
  std::ofstream t(args.out + "/traces-" + tag + ".txt");
  std::vector<Addr> nodes = {cluster.coordinator_addr()};
  for (int s = 0; s < cluster.options().num_shards; ++s) {
    for (int r = 0; r < cluster.options().num_replicas; ++r) {
      nodes.push_back(cluster.controlet_addr(s, r));
    }
  }
  for (const Addr& n : nodes) {
    Message req;
    req.op = Op::kTraceDump;
    auto rep = call(n, std::move(req));
    t << "# node " << n << "\n";
    if (!rep.ok()) {
      t << "# unreachable: " << rep.status().to_string() << "\n";
      continue;
    }
    for (const auto& s : rep.value().strs) t << s << "\n";
  }
  std::fprintf(stderr, "chaos_driver: wrote faultplan-%s.json + traces-%s.txt to %s\n",
               tag.c_str(), tag.c_str(), args.out.c_str());
}

// Returns the number of invariant violations (0 = pass).
int run_workload(const Args& args, SyncKv& kv, const std::function<void()>& settle) {
  Rng rng(args.seed * 101 + 7);
  std::map<std::string, std::string> acked;
  int failed_ops = 0;
  for (int i = 0; i < args.ops; ++i) {
    const std::string key = "c" + std::to_string(rng.next_u64(50));
    const std::string value = "v" + std::to_string(i);
    if (kv.put(key, value).ok()) {
      acked[key] = value;
    } else {
      ++failed_ops;
      std::fprintf(stderr, "chaos_driver: op %d failed outright\n", i);
    }
  }
  settle();
  int lost = 0;
  for (const auto& [key, value] : acked) {
    auto r = kv.get(key, "", ConsistencyLevel::kStrong);
    if (!r.ok() || r.value() != value) {
      ++lost;
      std::fprintf(stderr, "chaos_driver: acked write %s lost (%s)\n",
                   key.c_str(),
                   r.ok() ? "stale value" : r.status().to_string().c_str());
    }
  }
  if (acked.empty()) {
    std::fprintf(stderr, "chaos_driver: no op was ever acked\n");
    return 1;
  }
  return failed_ops + lost;
}

int run_sim(const Args& args) {
  SimFabricOpts fopts;
  fopts.seed = args.seed;
  ClusterOptions copts = chaos_cluster();
  copts.sim_node.cores = args.cores;
  testing::SimEnv env(copts, fopts);
  auto plan_r = resolve_plan(args, env.cluster.controlet_addr(0, 0));
  if (!plan_r.ok()) {
    std::fprintf(stderr, "chaos_driver: bad --faultplan: %s\n",
                 plan_r.status().to_string().c_str());
    return 2;
  }
  const FaultPlan plan = plan_r.value();
  env.sim.set_fault_injector(std::make_shared<FaultInjector>(plan));
  Runtime* admin = env.cluster.admin();
  admin->post([admin, &env, plan] {
    schedule_node_faults(*admin, env.sim, plan);
  });

  SyncKv kv = env.client();
  kv.set_attempts(12);
  const int bad = run_workload(args, kv, [&env] { env.settle(3'000'000); });
  if (bad != 0) {
    dump_failure(args, plan, env.cluster, [&env](const Addr& a, Message m) {
      return env.call(a, std::move(m));
    });
  }
  return bad == 0 ? 0 : 1;
}

int run_tcp(const Args& args) {
  TcpFabricOpts topts;
  topts.reactors = args.reactors;
  TcpFabric fab(topts);
  Cluster cluster(fab, chaos_cluster());
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  auto plan_r = resolve_plan(args, cluster.controlet_addr(0, 0));
  if (!plan_r.ok()) {
    std::fprintf(stderr, "chaos_driver: bad --faultplan: %s\n",
                 plan_r.status().to_string().c_str());
    return 2;
  }
  const FaultPlan plan = plan_r.value();
  fab.set_fault_injector(std::make_shared<FaultInjector>(plan));
  Runtime* admin = cluster.admin();
  admin->post([admin, &fab, plan] { schedule_node_faults(*admin, fab, plan); });

  const CallFn call = [&fab](const Addr& a, Message m) {
    return fab.call_sync(a, std::move(m), 500'000);
  };
  SyncKv kv(call, cluster.coordinator_addr());
  kv.set_attempts(12);
  kv.set_backoff_us(20'000);
  const int bad = run_workload(args, kv, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1'500));
  });
  if (bad != 0) dump_failure(args, plan, cluster, call);
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bespokv

int main(int argc, char** argv) {
  bespokv::Args args;
  if (!bespokv::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: chaos_driver --fabric=sim|tcp --seed=N "
                 "[--out=DIR] [--ops=K] [--faultplan=FILE] "
                 "[--reactors=N] [--cores=N]\n");
    return 2;
  }
  std::fprintf(stderr, "chaos_driver: fabric=%s seed=%llu ops=%d reactors=%d "
               "cores=%d\n",
               args.fabric.c_str(),
               static_cast<unsigned long long>(args.seed), args.ops,
               args.reactors, args.cores);
  const int rc = args.fabric == "sim" ? bespokv::run_sim(args)
                                      : bespokv::run_tcp(args);
  std::fprintf(stderr, "chaos_driver: %s\n", rc == 0 ? "PASS" : "FAIL");
  return rc;
}
