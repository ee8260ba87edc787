// Runtime / Service / Fabric: the asynchronous event-driven programming
// substrate every bespoKV component is written against (§III-B "controlet
// programming abstraction"). The same controlet, coordinator, DLM, shared-log
// and datalet code runs unchanged on two fabrics:
//
//   * SimFabric — single-threaded discrete-event simulation with a virtual
//                 clock, per-node service-time queueing, link latency and
//                 failure injection. Used by the scale-out benchmarks
//                 (substitute for the paper's 48-node GCE cluster) and the
//                 verify harness.
//   * TcpFabric — epoll-based framed TCP on loopback, real sockets and real
//                 time. Used by the examples, the real-time tests, chaos
//                 runs and every wall-clock benchmark.
//
// Execution model: every node is single-threaded; all handlers, timers and
// RPC callbacks for a node run serialized on that node's runtime, so node
// logic needs no locks (matching the paper's event-driven controlets).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/obs/node_obs.h"
#include "src/proto/message.h"

namespace bespokv {

using Addr = std::string;

// RPC completion: Status is kOk iff a reply arrived (the reply itself may
// still carry an application-level error in msg.code).
using RpcCallback = std::function<void(Status, Message)>;

// Passed to Service::handle; must be invoked exactly once per request.
// Copyable so handlers can stash it while they fan out sub-requests.
using Replier = std::function<void(Message)>;

class Runtime {
 public:
  virtual ~Runtime() = default;

  virtual const Addr& self() const = 0;
  virtual uint64_t now_us() = 0;

  // Runs `fn` on this node's executor, after currently queued events.
  virtual void post(std::function<void()> fn) = 0;

  // One-shot timer. Returns a cancellation id (0 is never a valid id).
  virtual uint64_t set_timer(uint64_t delay_us, std::function<void()> fn) = 0;
  // Periodic timer firing every `period_us` until cancelled.
  virtual uint64_t set_periodic(uint64_t period_us, std::function<void()> fn) = 0;
  virtual void cancel_timer(uint64_t id) = 0;

  // Request/response to another node. The callback always fires exactly once,
  // with kTimeout/kUnavailable if the peer is dead, partitioned or silent.
  virtual void call(const Addr& dst, Message req, RpcCallback cb,
                    uint64_t timeout_us = 1'000'000) = 0;

  // Fire-and-forget send (no reply expected, silently dropped on failure).
  virtual void send(const Addr& dst, Message msg) = 0;

  // Deterministic per-node random source.
  virtual Rng& rng() = 0;

  // How long a request arriving *now* would wait before this node's executor
  // picks it up (its ingress/reactor queue), in microseconds. A real server
  // reads this off its accept/reactor queue depth; the DES computes it from
  // the node's busy time. Admission control (controlet/admission.h) folds it
  // into the predicted wait so load shedding sees queueing that happens
  // before handlers run. 0 = idle or unknown.
  virtual uint64_t queue_backlog_us() { return 0; }

  // The node's observability bundle (metrics registry + tracer), shared by
  // every component running on this node and by the fabric's own counters.
  // Created on first use; safe from any thread.
  obs::NodeObs& obs() {
    std::call_once(obs_once_, [this] {
      obs_ = std::make_unique<obs::NodeObs>(self());
    });
    return *obs_;
  }

 private:
  std::once_flag obs_once_;
  std::unique_ptr<obs::NodeObs> obs_;
};

class Service {
 public:
  virtual ~Service() = default;

  // Called once when the node starts; the Runtime outlives the Service.
  virtual void start(Runtime& rt) { rt_ = &rt; }
  virtual void stop() {}

  // Handles one incoming request. Must eventually invoke `reply` exactly once
  // (for kSend-style one-way messages the fabric supplies a no-op replier).
  virtual void handle(const Addr& from, Message req, Replier reply) = 0;

  // Load-shedding fast path. Capacity-modeling fabrics (the DES) consult
  // this when a request *arrives*, before it occupies a service slot:
  // returning false makes the fabric answer kOverloaded immediately — at the
  // cheap rejection cost, bypassing the work queue — with *retry_after_us
  // carried in the reply's seq. This is where real admission control lives
  // (the reactor thread rejecting before dispatch); the in-handler check in
  // ControletBase::admit covers fabrics that do not call it. `backlog_us` is
  // the node's current ingress-queue wait. Default: admit everything.
  virtual bool admit_ingress(const Message& /*req*/, uint64_t /*backlog_us*/,
                             uint64_t* /*retry_after_us*/) {
    return true;
  }

  // ---- Sharded execution (thread-per-core fabrics) ----
  // A service whose state partitions into independent single-writer shards
  // reports shards() > 1. Sharded fabrics (TcpFabric with reactors > 1, the
  // sim's per-core service model) then route each request to the shard
  // returned by shard_of() and may invoke handle_shard() concurrently for
  // *different* shards — never concurrently for the same shard, so per-shard
  // state still needs no locks. The default (one shard, everything through
  // handle() on the node's home reactor) preserves the paper's fully
  // serialized event-driven controlet model; controlets, coordinator, DLM
  // and shared log all keep it.
  virtual int shards() const { return 1; }
  virtual int shard_of(const Message&) const { return 0; }
  virtual void handle_shard(int /*shard*/, const Addr& from, Message req,
                            Replier reply) {
    handle(from, std::move(req), std::move(reply));
  }

 protected:
  Runtime* rt_ = nullptr;
};

// Convenience Service built from a lambda.
class LambdaService : public Service {
 public:
  using Fn = std::function<void(Runtime&, const Addr&, Message, Replier)>;
  explicit LambdaService(Fn fn) : fn_(std::move(fn)) {}
  void handle(const Addr& from, Message req, Replier reply) override {
    fn_(*rt_, from, std::move(req), std::move(reply));
  }

 private:
  Fn fn_;
};

class FaultInjector;  // src/net/fault.h

class Fabric {
 public:
  virtual ~Fabric() = default;

  // Registers a node. The fabric owns the service's lifecycle.
  virtual Runtime* add_node(const Addr& addr, std::shared_ptr<Service> svc) = 0;

  // Crash-stop the node: in-flight and future messages to it are lost.
  virtual void kill(const Addr& addr) = 0;
  virtual bool alive(const Addr& addr) const = 0;

  // Restarts a previously killed node in place: same address, same Service
  // object, fresh timers/mailbox/connections. The service's start() runs
  // again, so services must treat a second start() as a crash-recovery
  // (ControletBase re-syncs before serving). Returns false if the node is
  // unknown, still alive, or the fabric cannot bring it back.
  virtual bool restart(const Addr& /*addr*/) { return false; }

  // Cuts/restores bidirectional connectivity between two nodes.
  virtual void partition(const Addr& a, const Addr& b, bool cut) = 0;

  // Installs (or clears, with nullptr) a chaos fault injector consulted on
  // every message the fabric carries. See src/net/fault.h.
  void set_fault_injector(std::shared_ptr<FaultInjector> fi) {
    std::lock_guard<std::mutex> g(fault_mu_);
    fault_injector_ = std::move(fi);
  }
  std::shared_ptr<FaultInjector> fault_injector() const {
    std::lock_guard<std::mutex> g(fault_mu_);
    return fault_injector_;
  }

 private:
  mutable std::mutex fault_mu_;
  std::shared_ptr<FaultInjector> fault_injector_;
};

}  // namespace bespokv
