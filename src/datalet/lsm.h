// tLSM: log-structured merge-tree datalet.
//
// Writes land in an O(1) hash memtable (the LSM design point: writes never
// pay ordering costs up front); full memtables are sorted once and flushed
// to immutable runs at level 0. When a level accumulates
// cfg.max_runs_per_level runs they are merged into a single run at the next
// level (tiering compaction). Each run carries a bloom filter and key bounds
// for read pruning. Deletes are tombstones, dropped at the bottom level
// during merges.
//
// Two storage modes:
//  - memory (cfg.dir empty): runs are sorted in-RAM vectors, exactly the
//    paper's Fig. 6 engine-tradeoff model. Volatile.
//  - disk (cfg.dir set): runs are on-disk SSTables (src/storage/sstable.h)
//    read through mmap'd views; the memtable is guarded by a CRC-framed WAL
//    (fsync policy per cfg), and a durably-published MANIFEST names the live
//    runs — orphans from crashed flushes/compactions are swept on recovery.
//    crash_restart() models power loss and rebuilds from MANIFEST + SSTables
//    + WAL replay. With cfg.lsm_background_compaction, merges move to a
//    dedicated compaction thread (TcpFabric only; the
//    deterministic sim keeps them inline).
//
// This engine realizes the paper's Fig. 6 trade-off: high write throughput
// (amortized sequential flushes) against read amplification (multi-run
// lookups), versus tMT's B+-tree profile.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/datalet/bloom.h"
#include "src/datalet/datalet.h"
#include "src/storage/sstable.h"
#include "src/storage/wal.h"

namespace bespokv {

namespace obs {
class Counter;
}  // namespace obs

class LsmDatalet : public Datalet {
 public:
  explicit LsmDatalet(const DataletConfig& cfg = {});
  ~LsmDatalet() override;

  const char* kind() const override { return "tLSM"; }

  Status put(std::string_view key, std::string_view value, uint64_t seq) override;
  Result<Entry> get(std::string_view key) const override;
  Status del(std::string_view key, uint64_t seq) override;
  Status put_if_newer(std::string_view key, std::string_view value,
                      uint64_t seq) override;

  Result<std::vector<KV>> scan(std::string_view start, std::string_view end,
                               uint32_t limit) const override;
  bool supports_scan() const override { return true; }

  size_t size() const override;
  void for_each(const std::function<void(std::string_view, const Entry&)>& fn)
      const override;
  void clear() override;

  // Durability hooks (disk mode; no-ops in memory mode).
  Status crash_restart() override;
  void set_op_token(uint64_t token) override;
  uint64_t durable_seq() const override;
  bool durable() const override;
  std::vector<storage::TokenPin> token_pins() const override;
  void attach_metrics(obs::MetricsRegistry& m) override;

  // Introspection for tests and the ablation bench.
  bool disk_mode() const { return env_ != nullptr; }
  size_t num_runs() const;
  size_t num_levels() const;
  uint64_t bytes_written() const { return bytes_written_.load(); }    // incl. compaction
  uint64_t bytes_ingested() const { return bytes_ingested_.load(); }  // user puts only
  double write_amplification() const {
    const uint64_t in = bytes_ingested_.load(), out = bytes_written_.load();
    return in == 0 ? 1.0 : double(out) / double(in);
  }
  uint64_t flushes() const { return flushes_.load(); }
  uint64_t compactions() const { return compactions_.load(); }
  void flush_memtable();  // public so tests can force run creation
  // Blocks until no level is over its run budget (background mode; an inline
  // engine returns immediately — compaction already ran).
  void wait_for_compaction();

  static constexpr size_t kMaxPins = 4096;

 private:
  struct Item {
    std::string key;
    std::string value;
    uint64_t seq;
    bool tombstone;
  };
  // One immutable sorted run: in-RAM items (memory mode) or an SSTable
  // (disk mode). Immutable after construction, so readers and the compaction
  // thread share runs by shared_ptr without locks.
  struct Run {
    std::vector<Item> items;  // memory mode: sorted, unique keys
    BloomFilter bloom;        // memory mode (disk runs use the table's)
    std::shared_ptr<storage::SSTableReader> table;  // disk mode
    std::string file;                               // disk mode: file name
    uint64_t generation;      // newer runs shadow older ones
    uint64_t max_seq = 0;
    explicit Run(size_t expected) : bloom(expected), generation(0) {}

    size_t count() const { return table ? table->count() : items.size(); }
    std::string_view key_at(size_t i) const {
      return table ? table->key(i) : std::string_view(items[i].key);
    }
    Item item_at(size_t i) const;
  };
  struct MemEntry {
    std::string value;
    uint64_t seq;
    bool tombstone;
  };
  using Lock = std::unique_lock<std::mutex>;

  void apply_to_memtable(std::string_view key, std::string_view value,
                         uint64_t seq, bool tombstone);
  Status log_op(uint8_t type, std::string_view key, std::string_view value,
                uint64_t seq, uint64_t* lsn);
  void flush_memtable_locked();
  void maybe_compact_locked(size_t level);
  bool compact_one_level_locked(Lock& lk);  // true if it merged something
  size_t overfull_level_locked() const;     // SIZE_MAX if none
  std::shared_ptr<Run> merge_runs(const std::vector<std::shared_ptr<Run>>& runs,
                                  bool drop_tombstones);
  std::shared_ptr<Run> build_run_from_items(std::vector<Item> items,
                                            bool count_bytes);
  bool find_in_run(const Run& run, std::string_view key, Item* out) const;
  Result<std::vector<KV>> scan_locked(std::string_view start,
                                      std::string_view end,
                                      uint32_t limit) const;
  Status publish_manifest_locked();
  Status recover_locked();
  void reset_state_locked();
  void pin_locked(uint64_t token, uint64_t seq);
  void compaction_thread();
  std::string sst_path(const std::string& file) const;

  DataletConfig cfg_;
  std::shared_ptr<storage::Env> env_;  // null = memory mode
  std::unique_ptr<storage::Wal> wal_;

  // Guards memtable_, levels_, pins_, manifest state. Runs themselves are
  // immutable; the compaction thread merges outside the lock on shared_ptr
  // snapshots and re-locks only to splice results in.
  mutable std::mutex mu_;
  std::condition_variable compact_cv_;
  std::thread compactor_;
  bool stop_compactor_ = false;
  bool compactor_busy_ = false;

  std::unordered_map<std::string, MemEntry> memtable_;
  // levels_[0] is the newest level; runs within a level ordered oldest-first.
  std::vector<std::vector<std::shared_ptr<Run>>> levels_;
  uint64_t next_generation_ = 1;
  uint64_t durable_seq_ = 0;
  uint64_t op_token_ = 0;
  uint64_t incarnation_ = 0;
  std::unordered_map<uint64_t, storage::TokenPin> pins_;
  std::deque<uint64_t> pin_order_;

  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> bytes_ingested_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> compactions_{0};
  obs::Counter* m_flushes_ = nullptr;
  obs::Counter* m_compactions_ = nullptr;
  obs::Counter* m_compaction_bytes_ = nullptr;
};

}  // namespace bespokv
