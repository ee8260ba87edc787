// DurableDatalet: the durability decorator every volatile engine gets when a
// durable_dir is configured. Mutations are written ahead to a CRC-framed WAL
// (fsync policy per WalOpts), then applied to the wrapped engine; periodic
// checkpoints snapshot the engine + idempotency pins atomically and truncate
// the WAL. crash_restart() models a power cut: the Env drops unsynced bytes
// (torn tails included), the engine is wiped, and the RecoveryManager
// rebuilds it from checkpoint + WAL — with the WAL disabled (the negative
// acceptance gate) the wipe is permanent, which is exactly the provable
// acked-write loss the verify harness must catch.
//
// Threading: non-blocking mode (the deterministic sim) is single-threaded
// per node. Blocking mode (TcpFabric, bench) serializes
// append+apply under an internal mutex but waits for group commit *outside*
// it, so concurrent writers batch behind one fdatasync.
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/datalet/datalet.h"
#include "src/storage/checkpoint.h"
#include "src/storage/env.h"
#include "src/storage/wal.h"

namespace bespokv::obs {
class Counter;
}  // namespace bespokv::obs

namespace bespokv::storage {

// WAL record types + payload codec for KV mutations, shared between
// DurableDatalet and tLSM's native disk mode.
//   payload = u64 token | u32 klen | key | value
enum class WalRecord : uint8_t { kPut = 1, kDel = 2, kPutIfNewer = 3 };

void encode_kv_record(std::string& payload, uint64_t token,
                      std::string_view key, std::string_view value);

struct KvRecord {
  uint64_t token = 0;
  std::string_view key;
  std::string_view value;
};
Result<KvRecord> decode_kv_record(std::string_view payload);

struct DurabilityOpts {
  std::shared_ptr<Env> env;  // null = posix_env()
  std::string dir;
  FsyncPolicy policy = FsyncPolicy::kAlways;
  uint64_t group_interval_us = 100;
  uint32_t group_batch = 8;
  bool blocking = false;
  bool wal_enabled = true;
  uint64_t checkpoint_bytes = 4 << 20;  // 0 = manual checkpoints only
  CrashOpts crash;
  uint64_t crash_seed = 1;

  static DurabilityOpts from_config(const DataletConfig& cfg);
};

struct RecoveryStats {
  bool had_checkpoint = false;
  uint64_t checkpoint_entries = 0;
  uint64_t wal_records = 0;
  uint64_t torn_bytes = 0;
  uint64_t durable_seq = 0;
};

// Replays local durable state — checkpoint first, then the WAL suffix in log
// order (blind application reproduces the exact pre-crash durable state) —
// into any engine, and surfaces the recovered idempotency pins.
class RecoveryManager {
 public:
  static constexpr const char* kCheckpointFile = "CHECKPOINT";
  static constexpr const char* kWalFile = "wal.log";

  RecoveryManager(std::shared_ptr<Env> env, std::string dir);

  // `wal` is left open at the (truncated-if-torn) log tail for new appends.
  Result<RecoveryStats> recover(Datalet& engine, Wal* wal,
                                std::vector<TokenPin>* pins);

  std::string checkpoint_path() const { return dir_ + "/" + kCheckpointFile; }
  std::string wal_path() const { return dir_ + "/" + kWalFile; }

 private:
  std::shared_ptr<Env> env_;
  std::string dir_;
};

class DurableDatalet : public Datalet {
 public:
  // Recovers from `opts.dir` immediately (a fresh dir recovers to empty).
  DurableDatalet(std::unique_ptr<Datalet> inner, DurabilityOpts opts);

  const char* kind() const override { return inner_->kind(); }
  Status put(std::string_view key, std::string_view value, uint64_t seq) override;
  Result<Entry> get(std::string_view key) const override;
  Status del(std::string_view key, uint64_t seq) override;
  Status put_if_newer(std::string_view key, std::string_view value,
                      uint64_t seq) override;
  Result<std::vector<KV>> scan(std::string_view start, std::string_view end,
                               uint32_t limit) const override;
  bool supports_scan() const override { return inner_->supports_scan(); }
  size_t size() const override;
  void for_each(const std::function<void(std::string_view, const Entry&)>& fn)
      const override;
  void clear() override;

  Status crash_restart() override;
  void set_op_token(uint64_t token) override { op_token_ = token; }
  uint64_t durable_seq() const override;
  bool durable() const override {
    return opts_.wal_enabled && opts_.policy == FsyncPolicy::kAlways;
  }
  std::vector<TokenPin> token_pins() const override;
  void attach_metrics(obs::MetricsRegistry& m) override;

  Status checkpoint();

  Datalet* inner() { return inner_.get(); }
  Wal* wal() { return wal_.get(); }
  const RecoveryStats& last_recovery() const { return last_recovery_; }
  uint64_t wal_bytes() const { return wal_ ? wal_->size_bytes() : 0; }
  static constexpr size_t kMaxPins = 4096;

 private:
  Status log_and_apply(WalRecord type, std::string_view key,
                       std::string_view value, uint64_t seq);
  Status recover_locked();
  Status checkpoint_locked();
  void pin_locked(uint64_t token, uint64_t seq);
  void publish_metrics_locked();

  std::unique_ptr<Datalet> inner_;
  DurabilityOpts opts_;
  std::unique_ptr<Wal> wal_;
  RecoveryManager rm_;

  // Guards inner_ + pins in blocking mode; uncontended on the sim.
  mutable std::mutex mu_;
  uint64_t op_token_ = 0;
  uint64_t durable_seq_ = 0;
  uint64_t incarnation_ = 0;
  RecoveryStats last_recovery_;
  std::unordered_map<uint64_t, TokenPin> pins_;
  std::deque<uint64_t> pin_order_;

  obs::Counter* m_appends_ = nullptr;
  obs::Counter* m_syncs_ = nullptr;
  obs::Counter* m_checkpoints_ = nullptr;
  obs::Counter* m_recoveries_ = nullptr;
  obs::Counter* m_torn_bytes_ = nullptr;
  uint64_t seen_syncs_ = 0;
  uint64_t seen_torn_ = 0;
};

}  // namespace bespokv::storage
