// The datalet API (paper Table II): the only interface a single-server store
// must implement to be dropped into bespoKV. Datalets are completely unaware
// of distribution; controlets provide replication/topology/consistency.
//
// Entries carry a sequence number so controlets can do last-writer-wins
// application of asynchronously propagated or log-replayed writes, and so
// recovery snapshots preserve versions. Engines that do not care simply store
// and return it.
//
// Durability hooks: engines backed by src/storage (a DurableDatalet wrapper,
// or tLSM/tLog in disk mode) override crash_restart()/durable_seq()/
// token_pins() so controlets and services can model power loss, recover from
// local state, and reseed idempotency dedup. The defaults describe a
// volatile engine: crash_restart() keeps in-memory state (a process restart,
// not a power cut) and nothing is ever durable.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/proto/message.h"
#include "src/storage/env.h"
#include "src/storage/pin.h"

namespace bespokv {

namespace obs {
class MetricsRegistry;
}  // namespace obs

struct Entry {
  std::string value;
  uint64_t seq = 0;
};

class Datalet {
 public:
  virtual ~Datalet() = default;

  virtual const char* kind() const = 0;

  // Core KV interface (Table II).
  virtual Status put(std::string_view key, std::string_view value,
                     uint64_t seq = 0) = 0;
  virtual Result<Entry> get(std::string_view key) const = 0;
  virtual Status del(std::string_view key, uint64_t seq = 0) = 0;

  // LWW apply: writes only if `seq` is >= the stored sequence (used by EC
  // propagation and shared-log replay). Default forwards to put().
  // (Defaults are inline so the interface is header-complete: the storage
  // layer subclasses Datalet without linking against the engine library.)
  virtual Status put_if_newer(std::string_view key, std::string_view value,
                              uint64_t seq) {
    return put(key, value, seq);
  }

  // Range query support (§IV-B). Engines without ordered storage return
  // kInvalid. `end` is exclusive; empty `end` means "to the last key".
  virtual Result<std::vector<KV>> scan(std::string_view start,
                                       std::string_view end,
                                       uint32_t limit) const {
    (void)start, (void)end, (void)limit;
    return Status::Invalid(std::string(kind()) + " does not support range queries");
  }
  virtual bool supports_scan() const { return false; }

  virtual size_t size() const = 0;

  // Full iteration for recovery snapshots and cross-datalet sync. The
  // callback must not mutate the datalet.
  virtual void for_each(
      const std::function<void(std::string_view key, const Entry&)>& fn) const = 0;

  // Drops all data (transition tooling and tests).
  virtual void clear() = 0;

  // --- durability hooks (src/storage) ---

  // Models a machine power cut + reboot: lose everything not durably on
  // disk, then recover from checkpoint + WAL. Volatile engines keep their
  // in-memory state (a plain process restart).
  virtual Status crash_restart() { return Status::Ok(); }
  // Idempotency token of the *next* mutating op, persisted with its WAL
  // record (0 = none). Set by the apply layer just before put/del.
  virtual void set_op_token(uint64_t token) { (void)token; }
  // Highest seq recovered from (or known to be in) durable local state; the
  // peer catch-up floor — only the suffix past it must come off the wire.
  virtual uint64_t durable_seq() const { return 0; }
  // True when an Ok mutation implies the write is on disk (WAL enabled and
  // fsync=always); gates the shared-log durable-watermark reporting.
  virtual bool durable() const { return false; }
  // Recovered idempotency pins, oldest first (reseeds dedup windows).
  virtual std::vector<storage::TokenPin> token_pins() const { return {}; }
  // Register engine counters (flushes, compactions, WAL syncs, ...).
  virtual void attach_metrics(obs::MetricsRegistry& m) { (void)m; }

  // --- cache-tier hook ---

  // Absolute-time source (µs on the fabric clock) for TTL-aware wrappers:
  // the hosting controlet/service injects its Runtime clock at start so the
  // CacheTierDatalet can expire envelopes lazily. Default: no clock, no
  // engine-level expiry (controlet read paths still filter).
  virtual void set_clock(std::function<uint64_t()> now_us) { (void)now_us; }
};

struct DataletConfig {
  // tLog / tLSM persistence root; empty = keep data purely in memory.
  std::string dir;
  // tLog: fdatasync after this many appends (0 = never sync).
  uint32_t sync_every = 64;
  // tLSM: flush the memtable after this many entries.
  uint32_t memtable_limit = 16 * 1024;
  // tLSM: merge runs when a level holds more than this many.
  uint32_t max_runs_per_level = 4;
  // tHT: initial bucket-array capacity (rounded up to a power of two).
  uint32_t initial_capacity = 1024;
  // tLSM: disable per-run bloom filters (ablation knob; see bench_ablation).
  bool lsm_disable_bloom = false;

  // --- durability (src/storage) ---
  // Non-empty: make the engine durable under this directory. tLSM goes into
  // native disk mode (WAL + SSTables); every other kind is wrapped in a
  // DurableDatalet (WAL + checkpoints around the volatile engine).
  std::string durable_dir;
  // Storage backend; null = posix_env(). The verify harness shares one
  // MemEnv across a simulated cluster so it can model power loss.
  std::shared_ptr<storage::Env> env;
  std::string fsync = "always";  // always | groupcommit | os
  uint64_t group_interval_us = 100;
  uint32_t group_batch = 8;
  // True on TcpFabric: mutations block in group commit. Sim event
  // loops must stay non-blocking (policy approximated by batch counting).
  bool durable_blocking = false;
  // Negative-gate knob: drop all WAL writes, making crash_restart provably
  // lossy (the verify harness's paired acceptance test).
  bool wal_disable = false;
  uint64_t checkpoint_bytes = 4 << 20;  // auto-checkpoint threshold, 0 = manual
  bool torn_writes = true;  // MemEnv power loss tears/garbages unsynced tails
  uint64_t crash_seed = 1;
  // tLSM: merge on a background thread (TcpFabric only; the
  // deterministic sim keeps compaction inline).
  bool lsm_background_compaction = false;

  // --- cache tier (TTL / eviction; src/datalet/cache_tier.h) ---
  // >0 wraps the engine in a CacheTierDatalet: once resident key+value bytes
  // exceed this budget, entries are evicted under cache_policy. 0 = off.
  uint64_t cache_memory_bytes = 0;
  std::string cache_policy = "lru";  // lru | lfu
};

// Factory for the built-in engines: "tHT", "tLog", "tMT", "tLSM", and the
// ported text-protocol stores "tRedis" / "tSSDB" (hash-backed, RESP/SSDB
// wire protocols — see proto/text_protocol.h).
std::unique_ptr<Datalet> make_datalet(const std::string& kind,
                                      const DataletConfig& config = {});

}  // namespace bespokv
