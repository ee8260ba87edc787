// TcpFabric: real sockets, thread-per-core. Each node runs `reactors`
// independent epoll event loops ("reactors"), every one with its own
// SO_REUSEPORT listening socket on the node's 127.0.0.1:<port> address, its
// own connections, timers, buffer pool and outbound sockets — the kernel
// shards incoming connections across the reactors, and a connection is owned
// by exactly one reactor for its whole life. This backend exercises the
// genuine networking path — framing, partial reads/writes, connection reuse,
// peer-death detection, multi-core accept sharding — that SimFabric
// abstracts away. It is the only real-time fabric: examples, real-time tests,
// chaos runs and benches all use it on loopback.
//
// Execution model with reactors > 1:
//   * A Service with shards() == 1 (the default) keeps the paper's fully
//     serialized controlet model: every request, timer and RPC callback runs
//     on the node's home reactor (reactor 0), whichever reactor's socket the
//     bytes arrived on; other reactors forward envelopes through a lock-free
//     MPSC inbox.
//   * A Service with shards() > 1 (e.g. ShardedDataletService) has shard k
//     pinned to reactor (k % reactors); different shards execute truly in
//     parallel and the same shard is never run concurrently.
//   * Responses are matched to the reactor that issued the call: the low
//     rpc-id bits carry the issuing reactor index, and replies ride the
//     request's inbound connection back.
#pragma once

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "src/net/runtime.h"

namespace bespokv {

struct TcpFabricOpts {
  // Reactor (event-loop thread) count per node. 0 = use $BKV_TCP_REACTORS if
  // set, else 1. Clamped to [1, 16] — the low 4 bits of every rpc id encode
  // the issuing reactor.
  int reactors = 0;

  // Per-connection send-queue backpressure. When a connection's queued
  // unsent bytes exceed `send_hi_watermark` the reactor stops *reading* from
  // it (a request-reply stream throttles its own source) until the queue
  // drains below `send_lo_watermark`; a connection exceeding
  // `send_queue_cap` is closed as a dead/slow consumer. The cap must exceed
  // the largest single envelope (multi-MB payloads own their chunk).
  size_t send_hi_watermark = 2u << 20;    // 2 MiB: stop reading
  size_t send_lo_watermark = 512u << 10;  // 512 KiB: resume reading
  size_t send_queue_cap = 64ull << 20;    // 64 MiB: close the connection

  // Pooled write chunks kept per reactor (see src/net/buffer_pool.h).
  size_t pool_buffers = 64;
};

// Per-node network counters live in each node's metrics registry under
// "net.*" names (net.msgs_sent, net.msgs_dropped, net.bytes_sent,
// net.flushes — monotonic over the node's lifetime). `net.flushes` counts
// writev batches, so msgs_sent / flushes is the achieved coalescing factor;
// `net.msgs_dropped` counts envelopes discarded because the peer was
// unreachable or partitioned. Each reactor additionally registers
// net.r<k>.accepts / net.r<k>.wakeups / net.r<k>.stalls counters and a
// net.r<k>.queue_depth gauge (cross-reactor inbox depth), so a kStats
// snapshot exposes the per-reactor dimension. Scrape them like any other
// metric: the kStats op against the node returns the registry snapshot as
// JSON.
class TcpFabric : public Fabric {
 public:
  TcpFabric() : TcpFabric(TcpFabricOpts{}) {}
  explicit TcpFabric(TcpFabricOpts opts);
  ~TcpFabric() override;

  // `addr` must be "127.0.0.1:<port>" (or "<host>:<port>" resolvable locally).
  // Returns nullptr, leaving any existing node untouched, if `addr` is
  // already registered (use restart() to revive a killed node) or its
  // sockets cannot be set up.
  Runtime* add_node(const Addr& addr, std::shared_ptr<Service> svc) override;

  void kill(const Addr& addr) override;
  bool alive(const Addr& addr) const override;
  // Re-binds the node's listen sockets (SO_REUSEADDR|SO_REUSEPORT) and
  // restarts its reactors and service on fresh threads. Must not race a
  // concurrent kill().
  bool restart(const Addr& addr) override;
  // Implemented by dropping outgoing traffic to the severed peer.
  void partition(const Addr& a, const Addr& b, bool cut) override;

  void shutdown();

  // Synchronous RPC from an external thread via a hidden client node.
  Result<Message> call_sync(const Addr& dst, Message req,
                            uint64_t timeout_us = 2'000'000);

  // Picks a free loopback port for harnesses building addrs. Never returns
  // the same port twice in one process; 0 if no fresh port could be drawn.
  static int pick_port();

  int reactors_per_node() const { return opts_.reactors; }

 private:
  struct Node;
  struct Reactor;
  class TcpRuntime;

  Runtime* add_node_with_reactors(const Addr& addr,
                                  std::shared_ptr<Service> svc, int reactors);
  std::shared_ptr<Node> find(const Addr& addr) const;
  bool severed(const Addr& a, const Addr& b) const;

  TcpFabricOpts opts_;
  mutable std::mutex mu_;
  std::map<Addr, std::shared_ptr<Node>> nodes_;
  std::set<std::pair<Addr, Addr>> cuts_;
  std::atomic<uint64_t> next_rpc_id_{1};
  bool shut_down_ = false;
  Runtime* external_ = nullptr;
};

}  // namespace bespokv
