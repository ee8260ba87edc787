// §VI-B use case: distributed cache for deep-learning training ingest.
//
// Ingesting millions of small files from a parallel file system starves
// accelerators; a bespoKV cache in front of the PFS serves the hot dataset
// from memory. This example builds the cache, populates it from a (mock)
// PFS namespace, then runs two training epochs reading every sample through
// the cache — demonstrating cache hits, misses with fill, and large-value
// handling.
//
//   $ ./dl_cache
#include <cstdio>
#include <map>
#include <thread>

#include "src/client/client.h"
#include "src/cluster/cluster.h"
#include "src/net/tcp_fabric.h"

using namespace bespokv;

namespace {

// Stand-in for the parallel file system: slow, authoritative object source.
class MockPfs {
 public:
  explicit MockPfs(int num_samples) {
    for (int i = 0; i < num_samples; ++i) {
      files_["/dataset/img" + std::to_string(i) + ".jpg"] =
          std::string(32 * 1024, static_cast<char>('a' + i % 26));
    }
  }
  const std::map<std::string, std::string>& files() const { return files_; }
  std::string read(const std::string& path) const {
    ++reads_;
    return files_.at(path);
  }
  mutable int reads_ = 0;

 private:
  std::map<std::string, std::string> files_;
};

}  // namespace

int main() {
  constexpr int kSamples = 200;
  MockPfs pfs(kSamples);

  // The cache: 2 shards x 2 replicas of in-memory hash datalets.
  ClusterOptions opts;
  opts.topology = Topology::kMasterSlave;
  opts.consistency = Consistency::kEventual;
  opts.num_shards = 2;
  opts.num_replicas = 2;
  opts.datalet_kind = "tHT";

  TcpFabric fabric;
  Cluster cluster(fabric, opts);
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  SyncKv kv([&fabric](const Addr& a, Message m) { return fabric.call_sync(a, std::move(m)); },
            cluster.coordinator_addr());

  auto fetch_sample = [&](const std::string& path) -> std::string {
    auto cached = kv.get(path, "dlcache");
    if (cached.ok()) return std::move(cached).value();
    // Cache miss: fill from the PFS.
    std::string data = pfs.read(path);
    kv.put(path, data, "dlcache");
    return data;
  };

  // Epoch 1: all misses — every sample is pulled from the PFS once.
  size_t bytes = 0;
  for (const auto& [path, _] : pfs.files()) bytes += fetch_sample(path).size();
  const int pfs_reads_epoch1 = pfs.reads_;
  std::printf("epoch 1: %d samples (%zu KiB), PFS reads = %d (all misses)\n",
              kSamples, bytes / 1024, pfs_reads_epoch1);

  // Epoch 2: the dataset is resident — zero PFS traffic.
  bytes = 0;
  for (const auto& [path, _] : pfs.files()) bytes += fetch_sample(path).size();
  std::printf("epoch 2: %d samples (%zu KiB), PFS reads = %d (served by cache)\n",
              kSamples, bytes / 1024, pfs.reads_ - pfs_reads_epoch1);

  // Sanity: a cached object round-trips byte-identically.
  const std::string probe = "/dataset/img7.jpg";
  std::printf("integrity: %s %s\n", probe.c_str(),
              kv.get(probe, "dlcache").value_or("") == pfs.read(probe)
                  ? "matches the PFS copy"
                  : "MISMATCH");
  std::printf("dl_cache example done\n");
  return 0;
}
