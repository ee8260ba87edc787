// bespoKV client library (§III "Client library", Table II client API).
//
// KvClient is the asynchronous, Runtime-hosted client used by workload
// drivers and services running inside a fabric. It caches the coordinator's
// shard map, routes requests with consistent hashing or range partitioning,
// supports per-request consistency levels (§IV-C), and refreshes its map when
// a reply indicates stale routing (kNotLeader / kUnavailable / epoch bump —
// e.g. after failover or a topology/consistency transition).
//
// Resilience (see DESIGN.md "Fault model & recovery"):
//   * Retries with exponential backoff + jitter on routing failures and
//     timeouts, refreshing the shard map before each retry.
//   * Every PUT/DEL carries an idempotency token; controlets dedup on it, so
//     a retried write is applied exactly once per controlet even when the
//     original attempt did land (safe PUT retry across failover).
//   * Optional hedged GETs: if the primary replica has not answered within
//     `hedge_after_us`, the read races a second replica; first reply wins.
//   * kMaybeApplied contract: a write that exhausts its retries with a
//     timeout completes with Status::MaybeApplied, NOT a plain error. The
//     write may or may not have taken effect (the ack was lost, or the
//     server crashed mid-apply). Callers must not assume the old value is
//     still current; read-back (or retrying with the same client, which
//     reuses the dedup window) resolves the ambiguity. Every non-timeout
//     exhaustion still reports the underlying error.
//
// SyncKv wraps the same routing logic over a fabric's call_sync for tests
// and example programs driving the cluster from an external thread.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "src/coordinator/cluster_meta.h"
#include "src/net/runtime.h"
#include "src/proto/message.h"

namespace bespokv {

struct ClientConfig {
  Addr coordinator;
  uint64_t map_refresh_period_us = 2'000'000;  // background map polling
  uint64_t rpc_timeout_us = 1'000'000;
  int retries = 2;  // retries after a routing-induced failure (map refresh)
  // Backoff before retry attempt N: min(backoff_max_us, base << N), with
  // uniform jitter over the top half so synchronized clients fan out.
  uint64_t backoff_base_us = 5'000;
  uint64_t backoff_max_us = 200'000;
  // Cluster-map acquisition deadline. When the coordinator is unreachable
  // (e.g. this client sits on the wrong side of a partition), connect()
  // retries with the standard backoff+jitter — never a hot loop — until this
  // much time has passed, then completes with kUnavailable and fails queued
  // ops the same way. A background retry at backoff_max cadence keeps
  // running, so a healed partition restores service without a new connect().
  uint64_t connect_deadline_us = 10'000'000;
  // >0 enables hedged GETs: if the primary replica hasn't replied within
  // this threshold, the read is raced against another replica and the first
  // reply wins. Only reads that may legally hit several replicas hedge
  // (eventual-consistency reads; strong MS reads are tail-only).
  uint64_t hedge_after_us = 0;
  // Pins this client's eventual-consistency reads to one replica choice
  // instead of spreading them per request, turning the client into a
  // *session*: as long as the replica set is stable, MS+EC reads are
  // monotonic (a slave applies the master's propagation stream in order and
  // never regresses). Failover or a transition reshuffles the replica list
  // and legitimately breaks the pin. Used by the verification harness; off
  // by default because spreading reads is the better load-balancing policy.
  bool sticky_reads = false;
};

class KvClient {
 public:
  using DoneCb = std::function<void(Status, Message)>;
  // Simplified completions.
  using StatusCb = std::function<void(Status)>;
  using ValueCb = std::function<void(Result<std::string>)>;
  using ScanCb = std::function<void(Result<std::vector<KV>>)>;
  // Per-key results of a batch_get, aligned with the request keys.
  using BatchGetCb = std::function<void(std::vector<Result<std::string>>)>;

  KvClient(Runtime* rt, ClientConfig cfg);
  ~KvClient();

  // Fetches the initial shard map; ops issued before completion are queued.
  void connect(StatusCb ready);

  void create_table(const std::string& table, StatusCb done);
  void delete_table(const std::string& table, StatusCb done);

  void put(const std::string& key, const std::string& value, StatusCb done,
           const std::string& table = "",
           ConsistencyLevel level = ConsistencyLevel::kDefault);
  // PUT with a relative time-to-live (cache-tier mode, DESIGN.md). The
  // master controlet stamps an absolute expiry at admission; 0 = no TTL.
  void put_ttl(const std::string& key, const std::string& value,
               uint32_t ttl_ms, StatusCb done, const std::string& table = "",
               ConsistencyLevel level = ConsistencyLevel::kDefault);
  void get(const std::string& key, ValueCb done, const std::string& table = "",
           ConsistencyLevel level = ConsistencyLevel::kDefault);
  void del(const std::string& key, StatusCb done,
           const std::string& table = "",
           ConsistencyLevel level = ConsistencyLevel::kDefault);
  // Range query (§IV-B): requires a scan-capable datalet; under range
  // partitioning the request is split across the shards covering the range.
  void scan(const std::string& start, const std::string& end, uint32_t limit,
            ScanCb done, const std::string& table = "");

  // Pipelined batches: every request is issued back-to-back before any reply
  // is awaited, so all K RPCs are outstanding at once and a coalescing fabric
  // (TcpFabric's deferred writev flush) ships those sharing a connection in
  // one syscall. The callback fires once, after every reply (or timeout)
  // landed. batch_put reports the first failure; batch_get yields per-key
  // results in request order.
  void batch_put(std::vector<KV> kvs, StatusCb done,
                 const std::string& table = "",
                 ConsistencyLevel level = ConsistencyLevel::kDefault);
  void batch_get(std::vector<std::string> keys, BatchGetCb done,
                 const std::string& table = "",
                 ConsistencyLevel level = ConsistencyLevel::kDefault);

  const ShardMap& shard_map() const { return map_; }
  bool ready() const { return ready_; }
  uint64_t map_refreshes() const { return refreshes_; }
  // Refreshes satisfied by patching deltas (kWrongShard piggyback or the
  // coordinator's delta chain) instead of re-parsing the full map.
  uint64_t delta_refreshes() const { return delta_refreshes_; }

 private:
  void refresh_map(StatusCb done);
  // Adopts the map delta piggybacked on a kWrongShard reply; true on success.
  bool try_apply_delta(const Message& rep);
  void connect_attempt(uint64_t started_us, int attempt, StatusCb ready);
  void on_connected();
  void issue(Message req, bool is_read, int attempts_left, DoneCb done);
  Result<Addr> route(const Message& req, bool is_read) const;
  // Alternate replica for a hedged read; fails if no distinct target exists.
  Result<Addr> hedge_target(const Message& req, const Addr& primary) const;
  uint64_t backoff_us(int attempt);
  uint64_t next_token() { return token_base_ + ++token_seq_; }
  // Records a "client.retry" span parented under the request's root span, so
  // every retry of one logical op stays inside the original trace.
  void record_retry_span(const Message& req, uint64_t start_us);

  Runtime* rt_;
  ClientConfig cfg_;
  ShardMap map_;
  bool ready_ = false;
  bool refreshing_ = false;
  // connect() gave up (deadline passed with the coordinator unreachable):
  // ops now fail fast with kUnavailable instead of queueing forever, while a
  // slow background retry waits for the partition to heal.
  bool connect_failed_ = false;
  uint64_t connect_timer_ = 0;
  uint64_t salt_ = 0;  // spreads eventual reads / AA writes across replicas
  uint64_t session_salt_ = 0;  // fixed per-client salt for sticky reads
  uint64_t refresh_timer_ = 0;
  uint64_t refreshes_ = 0;
  uint64_t delta_refreshes_ = 0;
  uint64_t token_base_ = 0;  // random per-client prefix for idempotency tokens
  uint64_t token_seq_ = 0;
  obs::Counter* c_retry_ = nullptr;
  obs::Counter* c_hedge_ = nullptr;
  obs::Counter* c_hedge_wins_ = nullptr;
  obs::Counter* c_maybe_applied_ = nullptr;
  std::vector<std::function<void()>> waiters_;
};

// Synchronous facade used from outside the fabric (tests, examples).
class SyncKv {
 public:
  using CallFn = std::function<Result<Message>(const Addr&, Message)>;

  // `call` is typically TcpFabric::call_sync bound to the fabric.
  SyncKv(CallFn call, Addr coordinator);

  Status refresh();
  Status put(const std::string& key, const std::string& value,
             const std::string& table = "",
             ConsistencyLevel level = ConsistencyLevel::kDefault);
  Status put_ttl(const std::string& key, const std::string& value,
                 uint32_t ttl_ms, const std::string& table = "",
                 ConsistencyLevel level = ConsistencyLevel::kDefault);
  Result<std::string> get(const std::string& key,
                          const std::string& table = "",
                          ConsistencyLevel level = ConsistencyLevel::kDefault);
  Status del(const std::string& key, const std::string& table = "");
  Result<std::vector<KV>> scan(const std::string& start, const std::string& end,
                               uint32_t limit, const std::string& table = "");

  const ShardMap& shard_map() const { return map_; }

  // Attempts per op (a map refresh runs between attempts). Raise this for
  // chaos runs that must ride out a full failover detection window.
  void set_attempts(int n) { attempts_ = n; }
  // Real-time sleep between attempts, doubled per retry (0 = none; sim
  // harnesses keep 0 — virtual time advances inside call_ itself).
  void set_backoff_us(uint64_t us) { backoff_us_ = us; }

 private:
  Result<Message> issue(Message req, bool is_read);
  uint64_t next_token() { return token_base_ + ++token_seq_; }

  CallFn call_;
  Addr coordinator_;
  ShardMap map_;
  uint64_t salt_ = 0;
  int attempts_ = 4;
  uint64_t backoff_us_ = 0;
  uint64_t token_base_ = 0;
  uint64_t token_seq_ = 0;
};

}  // namespace bespokv
