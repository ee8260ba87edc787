// §VI-C use case: metadata service for an ephemeral burst-buffer file system.
//
// A job-scoped file system needs a KV store for inode/dentry metadata that
// (a) spins up instantly on the job's compute nodes, (b) supports range
// queries for directory listings (range-partitioned tMT datalets), and
// (c) can relax consistency for checkpoint-style workloads. This example
// builds that metadata store, implements mkdir/create/readdir/stat on top of
// the KV API, and tears it down — the full ephemeral lifecycle.
//
//   $ ./burst_buffer_fs
#include <cstdio>
#include <thread>

#include "src/client/client.h"
#include "src/cluster/cluster.h"
#include "src/net/tcp_fabric.h"

using namespace bespokv;

namespace {

// Minimal metadata schema: one KV pair per inode, keyed by full path.
// Directory listing = range scan over "path/" prefix.
class BurstBufferMeta {
 public:
  explicit BurstBufferMeta(SyncKv kv) : kv_(std::move(kv)) {}

  Status mkdir(const std::string& path) {
    return kv_.put(path, "type=dir", "meta");
  }
  Status create(const std::string& path, size_t size) {
    return kv_.put(path, "type=file;size=" + std::to_string(size), "meta");
  }
  Result<std::string> stat(const std::string& path) {
    return kv_.get(path, "meta");
  }
  Result<std::vector<KV>> readdir(const std::string& dir) {
    // Children of /a sort in ["/a/", "/a0"): '0' is '/'+1 in ASCII.
    std::string lo = dir + "/";
    std::string hi = dir + "0";
    return kv_.scan(lo, hi, 0, "meta");
  }
  Status unlink(const std::string& path) { return kv_.del(path, "meta"); }

 private:
  SyncKv kv_;
};

}  // namespace

int main() {
  // Job prologue: instantiate the metadata store on the job's nodes. Range
  // partitioning keeps each subtree's metadata on one shard, so directory
  // listings touch a single node.
  ClusterOptions opts;
  opts.topology = Topology::kMasterSlave;
  opts.consistency = Consistency::kEventual;  // relaxed POSIX (§VI-C)
  opts.num_shards = 3;
  opts.num_replicas = 3;
  opts.datalet_kind = "tMT";  // ordered store: directory scans
  opts.partitioner = "range";
  opts.range_splits = {"meta\x1f/ckpt", "meta\x1f/output"};

  TcpFabric fabric;
  Cluster cluster(fabric, opts);
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::printf("burst-buffer metadata store up (3 range-partitioned shards)\n");

  BurstBufferMeta fs(SyncKv(
      [&fabric](const Addr& a, Message m) { return fabric.call_sync(a, std::move(m)); },
      cluster.coordinator_addr()));

  // The application writes a checkpoint: one directory, N rank files.
  fs.mkdir("/ckpt/step100");
  for (int rank = 0; rank < 16; ++rank) {
    char path[64];
    std::snprintf(path, sizeof(path), "/ckpt/step100/rank%04d", rank);
    fs.create(path, 64 * 1024 * 1024);
  }
  fs.mkdir("/output");
  fs.create("/output/results.h5", 1 * 1024 * 1024);

  auto listing = fs.readdir("/ckpt/step100");
  std::printf("readdir(/ckpt/step100): %zu entries\n",
              listing.ok() ? listing.value().size() : 0);
  if (listing.ok() && !listing.value().empty()) {
    std::printf("  %s [%s]\n", listing.value().front().key.c_str(),
                listing.value().front().value.c_str());
    std::printf("  ... %s\n", listing.value().back().key.c_str());
  }

  auto st = fs.stat("/output/results.h5");
  std::printf("stat(/output/results.h5): %s\n", st.value_or("<missing>").c_str());

  // Restart semantics: the previous checkpoint is garbage-collected.
  for (int rank = 0; rank < 8; ++rank) {
    char path[64];
    std::snprintf(path, sizeof(path), "/ckpt/step100/rank%04d", rank);
    fs.unlink(path);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  listing = fs.readdir("/ckpt/step100");
  std::printf("after GC, readdir(/ckpt/step100): %zu entries\n",
              listing.ok() ? listing.value().size() : 0);

  // Job epilogue: the whole store simply goes away with the job.
  std::printf("job done; ephemeral metadata store torn down\n");
  return 0;
}
