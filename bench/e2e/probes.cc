#include "bench/e2e/probes.h"

#include <time.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>

#include "src/sharedlog/sharedlog.h"

namespace bespokv::e2e {

namespace {

// A shard id no controlet serves: appends land in the log's order but no
// replica ever fetches them.
constexpr uint32_t kProbeShard = 0xFFFF;
constexpr uint64_t kProbeTimeoutUs = 200'000;
constexpr size_t kMaxProbeSpans = 4096;
const char kProbeKey[] = "~probe/key000000";

void record(ProbeSamples& s, std::vector<double>& into, const char* name,
            uint64_t start_ns, uint64_t end_ns) {
  into.push_back(static_cast<double>(end_ns - start_ns) / 1e3);
  if (s.spans.size() >= kMaxProbeSpans) return;
  obs::Span sp;
  sp.name = name;
  sp.node = "bench.probe";
  sp.start_us = start_ns / 1000;
  sp.end_us = end_ns / 1000;
  s.spans.push_back(std::move(sp));
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

uint64_t mono_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void sleep_until_ns(uint64_t t_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(t_ns % 1'000'000'000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

uint64_t io_write_bytes(const char* proc_file) {
  std::ifstream in(proc_file);
  std::string name;
  uint64_t v = 0;
  while (in >> name >> v) {
    if (name == "write_bytes:") return v;
  }
  return 0;
}

Scrape scrape(TcpFabric& fab, const std::vector<Addr>& nodes) {
  Scrape out;
  for (const Addr& a : nodes) {
    if (!fab.alive(a)) continue;
    Message req;
    req.op = Op::kStats;
    auto rep = fab.call_sync(a, std::move(req), 500'000);
    if (!rep.ok() || rep.value().code != Code::kOk) continue;
    auto snap = obs::MetricsSnapshot::from_json(rep.value().value);
    if (snap.ok()) out[a] = std::move(snap).value();
  }
  return out;
}

LayerProbe::LayerProbe(TcpFabric& fab, Cluster& cluster, ProbeConfig cfg)
    : cluster_(cluster), cfg_(std::move(cfg)) {
  echo_addr_ = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  fab.add_node(echo_addr_, std::make_shared<LambdaService>(
                               [](Runtime&, const Addr&, Message, Replier reply) {
                                 reply(Message::reply(Code::kOk));
                               }));
  probe_addr_ = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  rt_ = fab.add_node(probe_addr_,
                     std::make_shared<LambdaService>(
                         [](Runtime&, const Addr&, Message, Replier reply) {
                           reply(Message::reply(Code::kInvalid));
                         }));

  std::filesystem::create_directories(cfg_.side_dir);
  DataletConfig side = cluster_.options().datalet_cfg;
  if (!side.durable_dir.empty()) side.durable_dir = cfg_.side_dir + "/engine";
  if (!side.dir.empty()) side.dir = cfg_.side_dir + "/engine";
  side_engine_ = make_datalet(cluster_.options().datalet_kind, side);
  storage::WalOpts wopts;
  wopts.policy = storage::FsyncPolicy::kAlways;
  wal_ = std::make_unique<storage::Wal>(storage::posix_env(),
                                        cfg_.side_dir + "/probe.wal", wopts);
  (void)wal_->replay_and_open(nullptr);
}

LayerProbe::~LayerProbe() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

void LayerProbe::start() { thread_ = std::thread([this] { drive(); }); }

void LayerProbe::note_kill(uint64_t at_ns) { kill_at_ = at_ns; }

void LayerProbe::drive() {
  // The engine a read is served from: the tail under MS+SC, any replica
  // otherwise (all hold the same keys).
  const ClusterOptions& co = cluster_.options();
  const int read_replica =
      co.topology == Topology::kMasterSlave ? co.num_replicas - 1 : 0;
  std::shared_ptr<Datalet> engine = cluster_.datalet(0, read_replica);
  const uint64_t period_ns = static_cast<uint64_t>(1e9 / cfg_.rounds_per_sec);
  const uint64_t io_base = e2e::io_write_bytes("/proc/thread-self/io");
  uint64_t next = mono_ns();
  while (!stop_.load()) {
    rt_->post([this] { rpc_round(); });

    uint64_t t0 = mono_ns();
    (void)engine->get(cfg_.datalet_key);
    record(direct_, direct_.datalet_get, "probe.datalet.get", t0, mono_ns());

    // Keys cycle so the side engine's size stays comparable to the cluster's.
    const std::string key = "~probe/" + std::to_string(side_seq_ % 65536);
    ++side_seq_;
    t0 = mono_ns();
    (void)side_engine_->put(key, cfg_.value, side_seq_);
    record(direct_, direct_.datalet_put, "probe.datalet.put", t0, mono_ns());

    t0 = mono_ns();
    auto lsn = wal_->append(1, side_seq_, cfg_.value);
    if (lsn.ok()) {
      record(direct_, direct_.fsync, "probe.storage.fsync", t0, mono_ns());
    }

    io_bytes_ = e2e::io_write_bytes("/proc/thread-self/io") - io_base;
    next += period_ns;
    sleep_until_ns(next);
  }
}

void LayerProbe::rpc_round() {
  const uint64_t t0 = mono_ns();
  rt_->call(echo_addr_, Message::get("~probe/echo"),
            [this, t0](Status s, Message) {
              if (s.ok()) record(rpc_, rpc_.net_rtt, "probe.net.echo", t0, mono_ns());
            },
            kProbeTimeoutUs);

  if (kill_at_.load() != 0 && kill_epoch_ == 0) kill_epoch_ = map_.epoch;
  if (!map_fetch_inflight_) {
    map_fetch_inflight_ = true;
    Message req;
    req.op = Op::kGetShardMap;
    const uint64_t t_map = mono_ns();
    rt_->call(cluster_.coordinator_addr(), std::move(req),
              [this, t_map](Status s, Message rep) {
                map_fetch_inflight_ = false;
                if (!s.ok() || rep.code != Code::kOk) return;
                const uint64_t t1 = mono_ns();
                record(rpc_, rpc_.get_map, "probe.coordinator.get_map", t_map, t1);
                auto m = ShardMap::decode(rep.value);
                if (!m.ok() || m.value().epoch < map_.epoch) return;
                map_ = std::move(m).value();
                if (kill_epoch_ != 0 && map_.epoch > kill_epoch_ &&
                    rpc_.detect_ms == 0) {
                  rpc_.detect_ms = static_cast<double>(t1 - kill_at_.load()) / 1e6;
                }
              },
              kProbeTimeoutUs);
  }
  if (map_.shards.empty()) return;

  auto read = map_.read_target(kProbeKey, 0,
                               map_.consistency == Consistency::kStrong);
  if (read.ok()) {
    const uint64_t t_get = mono_ns();
    rt_->call(read.value(), Message::get(kProbeKey),
              [this, t_get](Status s, Message rep) {
                if (s.ok() && (rep.code == Code::kOk || rep.code == Code::kNotFound)) {
                  record(rpc_, rpc_.ctl_get, "probe.controlet.get", t_get, mono_ns());
                }
              },
              kProbeTimeoutUs);
  }
  auto write = map_.write_target(kProbeKey, 0);
  if (write.ok()) {
    const uint64_t t_put = mono_ns();
    rt_->call(write.value(), Message::put(kProbeKey, cfg_.value),
              [this, t_put](Status s, Message rep) {
                if (s.ok() && rep.code == Code::kOk) {
                  record(rpc_, rpc_.ctl_put, "probe.controlet.put", t_put, mono_ns());
                }
              },
              kProbeTimeoutUs);
  }
  SharedLogClient log(rt_, cluster_.sharedlog_addr());
  const uint64_t t_log = mono_ns();
  log.append(Message::put(kProbeKey, cfg_.value), kProbeShard,
             [this, t_log](Status s, uint64_t) {
               if (s.ok()) {
                 record(rpc_, rpc_.log_append, "probe.sharedlog.append", t_log, mono_ns());
               }
             });
}

ProbeSamples LayerProbe::stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  auto done = std::make_shared<std::promise<ProbeSamples>>();
  auto fut = done->get_future();
  rt_->post([this, done] { done->set_value(rpc_); });
  ProbeSamples out = fut.get();
  append(out.datalet_get, direct_.datalet_get);
  append(out.datalet_put, direct_.datalet_put);
  append(out.fsync, direct_.fsync);
  out.spans.insert(out.spans.end(), direct_.spans.begin(), direct_.spans.end());
  return out;
}

}  // namespace bespokv::e2e
