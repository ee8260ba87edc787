// Fault injection shared by both fabrics (sim / TCP).
//
// A FaultPlan is a seeded, JSON-serializable chaos schedule: per-link
// drop/delay/duplicate/reorder rules, node crash/restart events, and
// windowed network partitions (symmetric or one-way node-set splits). The
// same plan file drives identical fault decisions on every fabric — the
// injector consumes its own deterministic RNG stream, so a failing nightly
// run can be replayed locally from the uploaded plan (deterministically on
// SimFabric; statistically on TcpFabric).
//
// Wiring: Fabric::set_fault_injector installs an injector that each fabric
// consults at its single send choke point (SimFabric::transmit,
// TcpFabric::Reactor::ship and the reply path). Node events are
// driven by schedule_node_faults() from any runtime whose node outlives the
// plan (the cluster admin node in practice).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/net/runtime.h"

namespace bespokv {

// One per-link rule. `src`/`dst` are fabric addresses, "*" (everything) or a
// trailing-star prefix ("bkv/s0*"). Probabilities are per message.
struct LinkFault {
  std::string src = "*";
  std::string dst = "*";
  double drop = 0.0;       // message silently lost
  double duplicate = 0.0;  // message delivered twice
  double reorder = 0.0;    // message held back by a random extra delay so
                           // later traffic on the link can overtake it
  uint64_t delay_us = 0;   // fixed extra one-way delay on every message
  uint64_t jitter_us = 0;  // uniform extra [0, jitter] per delayed/reordered msg
  uint64_t after_us = 0;   // rule active from this offset (relative to arming)
  uint64_t until_us = 0;   // rule inactive after this offset (0 = forever)
};

// One node lifecycle event: crash-stop at crash_at_us, optionally restart in
// place (same address, same Service object) at restart_at_us.
//
// Incarnation note: link rules and partitions key on *addresses*, not
// incarnations. A node revived by Fabric::restart keeps its address, so any
// fault window still open at restart time keeps applying to the revived
// node. This is deliberate — a real network outage does not heal because a
// process restarted inside it (regression-tested in fault_injection_test).
struct NodeFault {
  std::string node;
  uint64_t crash_at_us = 0;
  uint64_t restart_at_us = 0;  // 0 = stays down
};

// Whole-cluster power loss: every node whose address matches `match` (same
// pattern syntax as LinkFault src/dst) crashes at `at_us`, each staggered by
// `stagger_us` from the previous one in materialization order (a real rack
// outage never cuts every PSU in the same microsecond), and restarts
// `restart_after_us` after its own crash instant. The pattern form keeps the
// plan portable across cluster sizes; materialized() expands it against the
// concrete node list before scheduling.
struct CrashAllFault {
  std::string match = "*";
  uint64_t at_us = 0;
  uint64_t restart_after_us = 0;  // 0 = the whole cluster stays down
  uint64_t stagger_us = 0;
  std::vector<NodeFault> materialized(
      const std::vector<std::string>& nodes) const;
};

// A network partition: the node sets matching `a` and `b` lose connectivity
// during [after_us, until_us) and heal when the window closes (until_us = 0
// never heals). `symmetric` cuts both directions; an asymmetric entry cuts
// only a -> b traffic — b can still reach a, which models one-way link loss
// (e.g. a master whose heartbeats are lost while the coordinator's verdicts
// still arrive, or vice versa). Patterns match like LinkFault src/dst: "*",
// trailing-star prefix, or exact address. Compiled onto the same per-link
// injector choke point as link rules, so partitions behave identically on
// the sim and TCP fabrics.
struct PartitionFault {
  std::vector<std::string> a;
  std::vector<std::string> b;
  bool symmetric = true;
  uint64_t after_us = 0;
  uint64_t until_us = 0;  // heal instant (0 = forever)
};

// Envelope for FaultPlan::random: which fault classes a generated plan may
// contain and how hard they may hit. The defaults match the chaos sweep's
// proven-stable envelope: bounded-window link noise, optional crash+restart.
struct RandomFaultOpts {
  bool drops = true;
  bool duplicates = true;
  bool delays = true;
  bool reorders = true;
  double max_drop = 0.02;        // per-message ceiling for generated rules
  double max_duplicate = 0.05;
  uint64_t max_delay_us = 2'000;
  // Every generated link rule deactivates by this offset, so the cluster can
  // converge before verification reads run.
  uint64_t window_us = 8'000'000;
  // When non-empty: generate one crash-stop of this node, restarting in
  // place a few seconds later (always restarts — plans that leave a node
  // down for good are written by hand, not drawn at random).
  std::string crash_node;
  uint64_t crash_after_us = 200'000;   // earliest crash instant
  uint64_t crash_spread_us = 400'000;  // crash lands in [after, after+spread)
  uint64_t restart_delay_us = 3'000'000;
};

struct FaultPlan {
  uint64_t seed = 1;
  std::vector<LinkFault> links;
  std::vector<NodeFault> nodes;
  std::vector<PartitionFault> partitions;
  std::vector<CrashAllFault> crash_all;

  Json to_json() const;
  static Result<FaultPlan> from_json(const Json& j);
  std::string encode() const { return to_json().dump(2); }
  static Result<FaultPlan> decode(std::string_view text);

  // Derives a reproducible chaos schedule from `seed`: 1-3 link-noise rules
  // within the allowed classes plus the optional crash/restart. The same
  // seed and opts always yield the same plan (scenario generation and the
  // nightly sweeps both lean on this).
  static FaultPlan random(uint64_t seed, const RandomFaultOpts& opts = {});
};

// Verdict for one message on one link.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  uint64_t delay_us = 0;
};

// Thread-safe (TcpFabric consults it from multiple reactor threads)
// and deterministic given the same plan and the same decision sequence.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  // Sets t=0 for the rules' active windows. Lazily armed by the first
  // decision if never called explicitly.
  void arm(uint64_t now_us);

  FaultDecision on_message(const Addr& src, const Addr& dst, uint64_t now_us);

  const FaultPlan& plan() const { return plan_; }

  // Tallies for tests and the chaos driver's failure reports.
  uint64_t decided() const;
  uint64_t dropped() const;
  uint64_t duplicated() const;
  uint64_t delayed() const;
  // Messages dropped because a partition entry severed their link (a subset
  // of dropped()).
  uint64_t partitioned() const;

 private:
  mutable std::mutex mu_;
  FaultPlan plan_;
  Rng rng_;
  bool armed_ = false;
  uint64_t origin_us_ = 0;
  uint64_t decided_ = 0, dropped_ = 0, duplicated_ = 0, delayed_ = 0;
  uint64_t partitioned_ = 0;
};

// "*" matches everything; a trailing '*' matches by prefix; otherwise exact.
bool fault_addr_match(const std::string& pattern, const Addr& addr);

// Schedules the plan's node crash/restart events as timers on `rt` (which
// must belong to a node the plan never kills). Works on every fabric and
// clock: virtual time on SimFabric, wall clock elsewhere.
void schedule_node_faults(Runtime& rt, Fabric& fab, const FaultPlan& plan);

}  // namespace bespokv
