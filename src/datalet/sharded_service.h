// ShardedDataletService: a key-hash-partitioned datalet service for the
// thread-per-core fabrics. Each shard owns an independent engine instance,
// its own epoch-fence floor and its own idempotency-token dedup window, so a
// sharded fabric (TcpFabric with reactors > 1, the sim's per-core service
// model) can execute different shards concurrently while every piece of
// datalet state stays single-writer — the shard is the unit of ownership,
// and shard k is pinned to reactor (k % reactors).
//
// Cross-shard operations (kScan, kSnapshotReq, kDeleteTable) are rejected
// with kInvalid: they would have to read other shards' engines from the
// wrong reactor. Deployments that need them keep the single-shard
// DataletService; this service is the cache-tier/bench-facing hot path.
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/datalet/datalet.h"
#include "src/net/runtime.h"

namespace bespokv {

class ShardedDataletService : public Service {
 public:
  // `engines` become the shards, in order; one per desired shard.
  explicit ShardedDataletService(std::vector<std::shared_ptr<Datalet>> engines);
  // Convenience: n independent engines of `kind` (datalet factory).
  ShardedDataletService(const std::string& kind, int n);

  void start(Runtime& rt) override;

  int shards() const override { return static_cast<int>(shards_.size()); }
  int shard_of(const Message& req) const override;
  void handle_shard(int shard, const Addr& from, Message req,
                    Replier reply) override;
  // Single-threaded fallback for direct use: routes by key hash so keyspace
  // placement matches the sharded fabrics.
  void handle(const Addr& from, Message req, Replier reply) override;

  Datalet* shard_engine(int shard) { return shards_[size_t(shard)].engine.get(); }
  uint64_t fence_rejects() const;
  uint64_t dedup_hits() const;

 private:
  static constexpr size_t kDedupWindow = 4096;  // per shard, FIFO-evicted

  struct Shard {
    std::shared_ptr<Datalet> engine;
    uint64_t epoch_floor = 0;
    // token -> cached reply: a retried write whose ack was lost on the wire
    // re-applies exactly once and re-serves the original reply. Applies are
    // synchronous, so no in-flight parking is needed (unlike the controlet
    // window, which also handles concurrent replays).
    std::unordered_map<uint64_t, Message> dedup;
    std::deque<uint64_t> dedup_order;
    // Per-shard instrumentation; written only by the owning reactor.
    obs::Counter* ops = nullptr;
    obs::Counter* fence_rejects = nullptr;
    obs::Counter* dedup_hits = nullptr;
  };

  std::vector<Shard> shards_;
  bool started_ = false;
};

}  // namespace bespokv
