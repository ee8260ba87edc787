// bench_e2e: one repetition of one end-to-end workload on the real TCP
// fabric. The process builds a fresh Cluster on a TcpFabric, loads it, then
// offers open-loop Poisson load from a single KvClient on its own fabric
// node and times every operation from its *scheduled* send time, so a stall
// is charged to every request that queued behind it. After the window it
// checks what the cluster returned and prints one JSON line on stdout.
//
//   bench_e2e --workload NAME [--seed N] [--window-ms M] [--traced]
//             [--data-dir DIR] [--trace-out FILE]
//   bench_e2e --smoke [--data-dir DIR]
//   bench_e2e --list
//
// Exit codes: 0 with a record on stdout, kExitPortCollision when two cluster
// nodes drew the same port (run.py runs the repetition again), 1 when the
// cluster could not be set up, 2 on bad arguments.
//
// bench/e2e/run.py runs repetitions in fresh processes and aggregates them;
// README.md explains the workloads and metrics.
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/e2e/probes.h"
#include "src/client/client.h"
#include "src/cluster/cluster.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/net/tcp_fabric.h"
#include "src/obs/trace.h"
#include "src/workload/workload.h"

namespace bespokv::e2e {
namespace {

// ---------------------------------------------------------------------------
// Workloads. README.md gives the reason for each.

struct Workload {
  const char* name;
  Topology topology;
  Consistency consistency;
  const char* engine;  // datalet kind
  bool durable;        // tLSM disk mode, group commit, blocking appenders
  double get_ratio;
  // true: YCSB, Zipf(0.99) over the preloaded keys. false: ingest — every
  // PUT writes a fresh key, every GET picks uniformly among keys already sent.
  bool zipf;
  uint64_t preload;  // keys written before the measured window
  size_t value_size;
  double rate;    // offered ops/s
  bool failover;  // kill the master a quarter into the window
};

constexpr Workload kWorkloads[] = {
    {"ycsb_b_ms_sc", Topology::kMasterSlave, Consistency::kStrong, "tHT", false,
     0.95, true, 20'000, 100, 50'000, false},
    {"ingest_durable_ms_sc", Topology::kMasterSlave, Consistency::kStrong,
     "tLSM", true, 0.30, false, 1'000, 64, 1'000, false},
    {"ycsb_a_aa_ec", Topology::kActiveActive, Consistency::kEventual, "tHT",
     false, 0.50, true, 20'000, 100, 25'000, false},
    {"failover_ms_sc", Topology::kMasterSlave, Consistency::kStrong, "tHT",
     false, 0.95, true, 20'000, 100, 10'000, true},
};

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool strong(const Workload& w) { return w.consistency == Consistency::kStrong; }

ClusterOptions cluster_options(const Workload& w, const std::string& dir) {
  ClusterOptions o;
  o.topology = w.topology;
  o.consistency = w.consistency;
  o.num_shards = 1;
  o.num_replicas = 3;
  o.datalet_kind = w.engine;
  if (w.durable) {
    o.datalet_cfg.durable_dir = dir;
    o.datalet_cfg.fsync = "groupcommit";
    o.datalet_cfg.durable_blocking = true;
    // Small enough that a few-second window flushes and compacts.
    o.datalet_cfg.memtable_limit = 512;
  }
  if (w.failover) {
    // No standby: a standby joins as the new tail from a snapshot that
    // misses writes acked while it copied, and serves them stale (README,
    // "Findings"). The crash still exercises detection, re-election and
    // client retry.
    o.coordinator.hb_period_us = 100'000;
    o.controlet.hb_period_us = 50'000;
  }
  return o;
}

ClientConfig client_config(const Workload& w, const Addr& coordinator) {
  ClientConfig c;
  c.coordinator = coordinator;
  if (w.failover) {
    c.retries = 12;
    c.backoff_base_us = 20'000;
    c.rpc_timeout_us = 300'000;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Values: "<key>|<write id>|" padded with a letter derived from the write id,
// so a GET that returns another key's value, or garbage, is caught.

std::string key_str(uint64_t k) {
  char b[32];
  std::snprintf(b, sizeof(b), "k%015" PRIu64, k);
  return std::string(b, 16);
}

std::string make_value(uint64_t key, uint64_t wid, size_t size) {
  std::string v = key_str(key) + "|" + std::to_string(wid) + "|";
  v.resize(std::max(size, v.size()), static_cast<char>('a' + wid % 26));
  return v;
}

bool parse_value(std::string_view v, uint64_t key, size_t size, uint64_t* wid) {
  const std::string k = key_str(key);
  if (v.size() != size || v.substr(0, k.size()) != k || v[k.size()] != '|') {
    return false;
  }
  uint64_t id = 0;
  size_t i = k.size() + 1;
  const size_t digits_from = i;
  while (i < v.size() && i - digits_from < 19 && v[i] >= '0' && v[i] <= '9') {
    id = id * 10 + uint64_t(v[i++] - '0');
  }
  if (i == digits_from || i >= v.size() || v[i] != '|') return false;
  const char pad = static_cast<char>('a' + id % 26);
  for (size_t j = i + 1; j < v.size(); ++j) {
    if (v[j] != pad) return false;
  }
  *wid = id;
  return true;
}

// ---------------------------------------------------------------------------
// Operation records. The pacing thread fills the schedule, the client node's
// reactor fills the outcome; `completed_` publishes them to the main thread.
// Times are steady-clock nanoseconds.

enum class Outcome : uint8_t { kPending, kOk, kNotFound, kFailed, kWrong };

struct OpRec {
  uint64_t sched = 0;  // when the op was due
  uint64_t post = 0;   // when the pacer handed it to the client node
  uint64_t issue = 0;  // when KvClient was called
  uint64_t done = 0;
  uint64_t key = 0;
  uint64_t got = 0;         // GET: write id read back (0 = preload)
  uint32_t issue_cost = 0;  // time spent inside KvClient::get/put
  bool is_get = true;
  bool traced = false;  // tracing was on when issued
  Outcome outcome = Outcome::kPending;
};

// Write id of the PUT at index i (0 is reserved for preloaded values).
uint64_t wid_of(size_t i) { return i + 1; }

double cpu_seconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Peak resident set of this process image. Not getrusage: its ru_maxrss
// keeps the high-water mark of the image exec replaced (the parent's).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

uint64_t dir_bytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// Posts `fn` to a node and waits until it fulfils the promise.
template <typename T>
bool run_on(Runtime* rt, std::function<void(std::shared_ptr<std::promise<T>>)> fn,
            T* out, uint64_t timeout_ms = 60'000) {
  auto p = std::make_shared<std::promise<T>>();
  auto fut = p->get_future();
  rt->post([fn = std::move(fn), p] { fn(p); });
  if (fut.wait_for(std::chrono::milliseconds(timeout_ms)) !=
      std::future_status::ready) {
    return false;
  }
  *out = fut.get();
  return true;
}

constexpr int kExitPortCollision = 75;

// Cluster picks every node's loopback port (bind port 0, read it, close)
// before it binds any of them, so two nodes can draw the same port. TcpFabric
// would then replace the first node with the second and destroy it while its
// reactor still runs, which aborts the process (README, "Findings"). This
// fabric ends such a start-up with kExitPortCollision instead, the one
// failure run.py runs again.
class BenchFabric : public TcpFabric {
 public:
  Runtime* add_node(const Addr& addr, std::shared_ptr<Service> svc) override {
    if (alive(addr)) {
      std::fprintf(stderr, "two nodes drew the same address %s\n", addr.c_str());
      std::_Exit(kExitPortCollision);
    }
    return TcpFabric::add_node(addr, std::move(svc));
  }
};

struct RunOpts {
  uint64_t seed = 1;
  uint64_t warmup_ms = 500;
  uint64_t window_ms = 3000;
  bool traced = false;
  std::string data_dir = "build-e2e/data";
  std::string trace_out;
};

// Correctness violations, counted per kind with a few examples.
class Violations {
 public:
  void add(const std::string& kind, const std::string& example) {
    if (examples_.size() < 8) examples_.push_back(kind + ": " + example);
    ++by_kind_[kind];
    ++count_;
  }
  uint64_t count() const { return count_; }
  Json to_json() const {
    Json j = Json::object();
    for (const auto& [k, n] : by_kind_) j.set(k, Json::number(static_cast<double>(n)));
    Json a = Json::array();
    for (const auto& e : examples_) a.push(Json::string(e));
    j.set("examples", std::move(a));
    return j;
  }

 private:
  uint64_t count_ = 0;
  std::map<std::string, uint64_t> by_kind_;
  std::vector<std::string> examples_;
};

Json num(double v) { return Json::number(v); }

std::string hex(uint64_t v) {
  char b[20];
  std::snprintf(b, sizeof(b), "%" PRIx64, v);
  return b;
}

// Raw latency samples by name, in integer nanoseconds.
using Samples = std::vector<std::pair<std::string, std::vector<double>>>;

// Appends {"samples": {name: [ns, ...]}} to a dumped JSON object. Written by
// hand: hundreds of thousands of samples are too many for Json values.
std::string with_samples(std::string obj, const Samples& samples) {
  obj.pop_back();  // the closing brace
  obj += ",\"samples\":{";
  char buf[32];
  for (size_t i = 0; i < samples.size(); ++i) {
    obj += (i ? ",\"" : "\"") + samples[i].first + "\":[";
    for (size_t k = 0; k < samples[i].second.size(); ++k) {
      std::snprintf(buf, sizeof(buf), k ? ",%.0f" : "%.0f", samples[i].second[k]);
      obj += buf;
    }
    obj += "]";
  }
  return obj + "}}";
}

// ---------------------------------------------------------------------------
// One repetition.

class Rep {
 public:
  Rep(const Workload& w, RunOpts o) : w_(w), o_(std::move(o)) {}
  // Stops every node thread before the client and records they touch go.
  ~Rep() {
    if (fab_) fab_->shutdown();
  }
  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;
  // Returns the repetition's JSON record (one line), or an error if the
  // cluster could not be set up.
  Result<std::string> run();

 private:
  Status set_up();
  Status wait_ready();
  void pace(uint64_t start, uint64_t end);
  void issue(size_t i);
  void finish(size_t i, Outcome out, uint64_t got);
  void check_history();
  void check_final_state();
  std::vector<obs::Span> dump_spans();
  std::vector<Addr> all_nodes();

  const Workload& w_;
  const RunOpts o_;
  std::unique_ptr<BenchFabric> fab_;
  std::unique_ptr<Cluster> cluster_;
  Runtime* crt_ = nullptr;
  Addr client_addr_;
  std::unique_ptr<KvClient> kv_;

  std::vector<OpRec> ops_;
  size_t created_ = 0;  // written by the pacer, read after it joined
  std::atomic<size_t> completed_{0};
  bool overflow_ = false;
  bool pacer_realtime_ = false;
  Violations violations_;
};

// A chain replica that has not fetched its shard map yet takes itself for
// the tail and acks a chain write without forwarding it (README,
// "Findings"). The cluster counts as ready once a write becomes visible to a
// strong read, i.e. once it crossed the whole chain (or, under EC, reached
// the replica the read lands on); a write that never shows up is retried
// under a fresh key.
Status Rep::wait_ready() {
  const uint64_t deadline = mono_ns() + 10'000'000'000ull;
  for (int n = 0; mono_ns() < deadline; ++n) {
    const std::string key = "~ready/" + std::to_string(n);
    Status st;
    if (!run_on<Status>(
            crt_,
            [this, key](std::shared_ptr<std::promise<Status>> p) {
              kv_->put(key, key, [p](Status s) { p->set_value(s); });
            },
            &st) ||
        !st.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    for (int poll = 0; poll < 50; ++poll) {
      Result<std::string> got = Status::Unavailable("no reply");
      const bool ok = run_on<Result<std::string>>(
          crt_,
          [this, key](std::shared_ptr<std::promise<Result<std::string>>> p) {
            kv_->get(key, [p](Result<std::string> r) { p->set_value(std::move(r)); },
                     "", ConsistencyLevel::kStrong);
          },
          &got);
      if (ok && got.ok() && got.value() == key) return Status::Ok();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return Status::Unavailable("cluster never became ready");
}

Status Rep::set_up() {
  std::filesystem::remove_all(o_.data_dir);
  std::filesystem::create_directories(o_.data_dir);
  fab_ = std::make_unique<BenchFabric>();
  cluster_ = std::make_unique<Cluster>(
      *fab_, cluster_options(w_, o_.data_dir + "/cluster"));
  cluster_->start();

  client_addr_ = "127.0.0.1:" + std::to_string(TcpFabric::pick_port());
  crt_ = fab_->add_node(client_addr_,
                        std::make_shared<LambdaService>(
                            [](Runtime&, const Addr&, Message, Replier reply) {
                              reply(Message::reply(Code::kInvalid));
                            }));
  const ClientConfig ccfg = client_config(w_, cluster_->coordinator_addr());
  Status st;
  const bool connected = run_on<Status>(
      crt_,
      [this, ccfg](std::shared_ptr<std::promise<Status>> p) {
        kv_ = std::make_unique<KvClient>(crt_, ccfg);
        kv_->connect([p](Status s) { p->set_value(s); });
      },
      &st);
  if (!connected || !st.ok()) return Status::Unavailable("client connect failed");
  BKV_RETURN_IF_ERROR(wait_ready());

  // Preload, 100 pipelined PUTs at a time. A durable chain commits them one
  // by one at about 1 ms each, so a batch of 1000 would put its last PUTs
  // past the client's 1 s RPC timeout.
  constexpr uint64_t kBatch = 100;
  for (uint64_t base = 0; base < w_.preload; base += kBatch) {
    std::vector<KV> batch;
    for (uint64_t k = base; k < std::min(w_.preload, base + kBatch); ++k) {
      batch.push_back(KV{key_str(k), make_value(k, 0, w_.value_size), 0});
    }
    const bool ok = run_on<Status>(
        crt_,
        [this, batch = std::move(batch)](std::shared_ptr<std::promise<Status>> p) mutable {
          kv_->batch_put(std::move(batch), [p](Status s) { p->set_value(s); });
        },
        &st);
    if (!ok || !st.ok()) {
      return Status::Unavailable("preload failed: " + st.to_string());
    }
  }
  // Eventually consistent replicas apply the preload asynchronously; the
  // window starts once every replica holds it, so a NotFound is a bug.
  const uint64_t deadline = mono_ns() + 20'000'000'000ull;
  for (int r = 0; r < cluster_->options().num_replicas; ++r) {
    while (cluster_->datalet(0, r)->size() < w_.preload) {
      if (mono_ns() > deadline) return Status::Unavailable("replicas never converged");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return Status::Ok();
}

void Rep::pace(uint64_t start, uint64_t end) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  // The generator must not queue behind the cluster's threads for a CPU:
  // real-time priority where permitted (it sleeps between arrivals).
  sched_param sp{};
  sp.sched_priority = 1;
  pacer_realtime_ = pthread_setschedparam(pthread_self(), SCHED_FIFO, &sp) == 0;
  ArrivalSpec as;
  as.rate_per_sec = w_.rate;
  as.seed = o_.seed * 2 + 1;
  ArrivalProcess arrivals(as);
  Rng rng(o_.seed * 2 + 2);
  ZipfianGenerator zipf(w_.preload, 0.99, o_.seed + 7);
  uint64_t inserted = w_.preload;  // ingest: keys PUT so far

  uint64_t next = start + arrivals.next_gap_us() * 1000;
  while (next < end && !overflow_) {
    sleep_until_ns(next);
    const uint64_t now = mono_ns();
    const size_t first = created_;
    while (next <= now && next < end) {
      if (created_ == ops_.size()) {
        overflow_ = true;
        break;
      }
      OpRec& r = ops_[created_++];
      r.sched = next;
      r.post = now;
      r.is_get = rng.next_double() < w_.get_ratio;
      if (w_.zipf) {
        r.key = zipf.next();
      } else if (r.is_get) {
        r.key = rng.next_u64(inserted);
      } else {
        r.key = inserted++;
      }
      next += arrivals.next_gap_us() * 1000;
    }
    const size_t last = created_;
    crt_->post([this, first, last] {
      for (size_t i = first; i < last; ++i) issue(i);
    });
  }
}

void Rep::issue(size_t i) {
  OpRec& r = ops_[i];
  r.traced = obs::tracing_enabled();
  r.issue = mono_ns();
  if (r.is_get) {
    kv_->get(key_str(r.key), [this, i](Result<std::string> res) {
      const OpRec& op = ops_[i];
      if (res.ok()) {
        uint64_t wid = 0;
        if (!parse_value(res.value(), op.key, w_.value_size, &wid)) {
          violations_.add("foreign_value", key_str(op.key));
          finish(i, Outcome::kWrong, 0);
          return;
        }
        const bool known = wid == 0 ? op.key < w_.preload
                                    : wid - 1 < ops_.size() && !ops_[wid - 1].is_get &&
                                          ops_[wid - 1].key == op.key;
        if (!known) {
          violations_.add("unknown_write", key_str(op.key) + " read write " +
                                               std::to_string(wid));
          finish(i, Outcome::kWrong, wid);
          return;
        }
        finish(i, Outcome::kOk, wid);
      } else if (res.status().code() == Code::kNotFound) {
        finish(i, Outcome::kNotFound, 0);
      } else {
        finish(i, Outcome::kFailed, 0);
      }
    });
  } else {
    kv_->put(key_str(r.key), make_value(r.key, wid_of(i), w_.value_size),
             [this, i](Status s) {
               finish(i, s.ok() ? Outcome::kOk : Outcome::kFailed, 0);
             });
  }
  r.issue_cost = static_cast<uint32_t>(std::min<uint64_t>(mono_ns() - r.issue, UINT32_MAX));
}

void Rep::finish(size_t i, Outcome out, uint64_t got) {
  OpRec& r = ops_[i];
  r.done = mono_ns();
  r.outcome = out;
  r.got = got;
  completed_.fetch_add(1, std::memory_order_release);
}

// Per-key history check. Under SC a GET must not return a value that was
// overwritten before the GET began: if write V completed before write Y was
// issued, and Y completed before the GET was issued, returning V is stale.
// Under either model a GET must not return a write issued after it finished,
// and must not miss a key every replica held before it began.
void Rep::check_history() {
  struct Acked {
    uint64_t done, issue;
  };
  std::unordered_map<uint64_t, std::vector<Acked>> acked;  // key -> puts
  for (size_t i = 0; i < created_; ++i) {
    const OpRec& r = ops_[i];
    if (!r.is_get && r.outcome == Outcome::kOk) acked[r.key].push_back({r.done, r.issue});
  }
  // Sorted by completion, with a running max of issue times: the latest
  // issue among writes that completed before time t.
  for (auto& [k, v] : acked) {
    std::sort(v.begin(), v.end(), [](const Acked& a, const Acked& b) { return a.done < b.done; });
    for (size_t j = 1; j < v.size(); ++j) v[j].issue = std::max(v[j].issue, v[j - 1].issue);
  }
  auto latest_issue_before = [&](uint64_t key, uint64_t t) -> std::optional<uint64_t> {
    auto it = acked.find(key);
    if (it == acked.end()) return std::nullopt;
    const auto& v = it->second;
    auto pos = std::lower_bound(v.begin(), v.end(), t,
                                [](const Acked& a, uint64_t x) { return a.done < x; });
    if (pos == v.begin()) return std::nullopt;
    return std::prev(pos)->issue;
  };

  for (size_t i = 0; i < created_; ++i) {
    const OpRec& r = ops_[i];
    if (!r.is_get || r.outcome == Outcome::kFailed || r.outcome == Outcome::kWrong) continue;
    const std::string k = key_str(r.key);
    if (r.outcome == Outcome::kNotFound) {
      if (r.key < w_.preload || (strong(w_) && latest_issue_before(r.key, r.issue))) {
        violations_.add("missed_acked_write", k);
      }
      continue;
    }
    // Value V (0 = the preload, complete before any op was issued).
    uint64_t v_done = 0;
    if (r.got != 0) {
      const OpRec& v = ops_[r.got - 1];
      if (v.issue > r.done) {
        violations_.add("read_from_future", k);
        continue;
      }
      v_done = v.outcome == Outcome::kOk ? v.done : UINT64_MAX;
    }
    if (!strong(w_)) continue;
    auto later = latest_issue_before(r.key, r.issue);
    if (later && *later > v_done) {
      violations_.add("stale_read", k + " read write " + std::to_string(r.got));
    }
  }
}

// After the window: every sampled key whose last write overlapped no other
// write must read back as that write — through strong reads under MS+SC
// (across the crash too), and identically on every replica once an EC
// cluster has converged.
void Rep::check_final_state() {
  std::unordered_map<uint64_t, std::vector<size_t>> puts;  // key -> op indices
  for (size_t i = 0; i < created_; ++i) {
    if (!ops_[i].is_get) puts[ops_[i].key].push_back(i);
  }
  std::vector<std::pair<uint64_t, uint64_t>> expect;  // key, write id
  for (const auto& [k, idx] : puts) {
    const OpRec& last = ops_[idx.back()];
    bool clean = last.outcome == Outcome::kOk;
    for (size_t j = 0; clean && j + 1 < idx.size(); ++j) {
      const OpRec& p = ops_[idx[j]];
      clean = p.outcome == Outcome::kOk && p.done < last.issue;
    }
    if (clean) expect.emplace_back(k, wid_of(idx.back()));
  }
  std::sort(expect.begin(), expect.end());
  if (expect.size() > 2000) expect.resize(2000);
  Rng rng(o_.seed * 2 + 3);
  for (int n = 0; n < 500 && w_.preload > 0; ++n) {
    const uint64_t k = rng.next_u64(w_.preload);
    if (!puts.count(k)) expect.emplace_back(k, 0);
  }

  if (strong(w_)) {
    for (size_t base = 0; base < expect.size(); base += 500) {
      const size_t end = std::min(expect.size(), base + 500);
      std::vector<std::string> keys;
      for (size_t j = base; j < end; ++j) keys.push_back(key_str(expect[j].first));
      std::vector<Result<std::string>> got;
      const bool ok = run_on<std::vector<Result<std::string>>>(
          crt_,
          [this, keys](std::shared_ptr<std::promise<std::vector<Result<std::string>>>> p) {
            kv_->batch_get(keys, [p](std::vector<Result<std::string>> rs) {
              p->set_value(std::move(rs));
            }, "", ConsistencyLevel::kStrong);
          },
          &got);
      if (!ok) {
        violations_.add("read_back_timeout", "batch of " + std::to_string(keys.size()));
        return;
      }
      for (size_t j = base; j < end; ++j) {
        const auto& r = got[j - base];
        uint64_t wid = 0;
        if (!r.ok() || !parse_value(r.value(), expect[j].first, w_.value_size, &wid) ||
            wid != expect[j].second) {
          violations_.add("lost_acked_write", key_str(expect[j].first) + " write " +
                                                  std::to_string(expect[j].second));
        }
      }
    }
    return;
  }

  // Eventual consistency: wait for the replicas to agree, then compare.
  const int replicas = cluster_->options().num_replicas;
  auto value_at = [this](int r, uint64_t k) -> std::string {
    auto e = cluster_->datalet(0, r)->get(key_str(k));
    return e.ok() ? e.value().value : std::string("<missing>");
  };
  auto agree = [&](uint64_t k) {
    for (int r = 1; r < replicas; ++r) {
      if (value_at(r, k) != value_at(0, k)) return false;
    }
    return true;
  };
  const uint64_t deadline = mono_ns() + 5'000'000'000ull;
  for (size_t j = 0; j < expect.size() && mono_ns() < deadline;) {
    if (agree(expect[j].first)) {
      ++j;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  for (const auto& [k, want] : expect) {
    uint64_t wid = 0;
    if (!agree(k)) {
      violations_.add("replicas_diverge", key_str(k));
    } else if (!parse_value(value_at(0, k), k, w_.value_size, &wid) || wid != want) {
      violations_.add("lost_acked_write", key_str(k) + " write " + std::to_string(want));
    }
  }
}

std::vector<Addr> Rep::all_nodes() {
  std::vector<Addr> nodes = {cluster_->coordinator_addr(), cluster_->dlm_addr(),
                             cluster_->sharedlog_addr(), cluster_->admin_addr(),
                             client_addr_};
  for (int r = 0; r < cluster_->options().num_replicas; ++r) {
    nodes.push_back(cluster_->controlet_addr(0, r));
  }
  return nodes;
}

std::vector<obs::Span> Rep::dump_spans() {
  std::vector<obs::Span> spans;
  for (const Addr& a : all_nodes()) {
    if (!fab_->alive(a)) continue;
    Message req;
    req.op = Op::kTraceDump;
    auto rep = fab_->call_sync(a, std::move(req), 500'000);
    if (!rep.ok()) continue;
    for (const auto& enc : rep.value().strs) {
      obs::Span s;
      if (obs::Span::decode(enc, &s)) spans.push_back(std::move(s));
    }
  }
  return spans;
}

Json spans_json(const std::string& workload, const std::vector<obs::Span>& spans) {
  Json arr = Json::array();
  for (const obs::Span& s : spans) {
    Json j = Json::object();
    j.set("trace", Json::string(hex(s.trace_id)));
    j.set("span", Json::string(hex(s.span_id)));
    j.set("parent", Json::string(hex(s.parent_span_id)));
    j.set("name", Json::string(s.name));
    j.set("node", Json::string(s.node));
    j.set("start_us", num(static_cast<double>(s.start_us)));
    j.set("end_us", num(static_cast<double>(s.end_us)));
    arr.push(std::move(j));
  }
  Json out = Json::object();
  out.set("workload", Json::string(workload));
  out.set("spans", std::move(arr));
  return out;
}

// Client-side share of each traced GET: its root span minus the serving
// controlet's dispatch span (the client library, both network hops and the
// server's inbox wait).
std::vector<double> client_share_us(const std::vector<obs::Span>& spans) {
  std::unordered_map<uint64_t, const obs::Span*> roots;
  for (const auto& s : spans) {
    if (s.name == "client.GET") roots[s.span_id] = &s;
  }
  std::vector<double> out;
  for (const auto& s : spans) {
    if (s.name != "GET") continue;
    auto it = roots.find(s.parent_span_id);
    if (it == roots.end()) continue;
    const obs::Span& r = *it->second;
    out.push_back(static_cast<double>(r.end_us - r.start_us) -
                  static_cast<double>(s.end_us - s.start_us));
  }
  return out;
}

Result<std::string> Rep::run() {
  const uint64_t t_setup = mono_ns();
  BKV_RETURN_IF_ERROR(set_up());
  const double setup_s = static_cast<double>(mono_ns() - t_setup) / 1e9;

  ops_.resize(static_cast<size_t>(
      w_.rate * static_cast<double>(o_.warmup_ms + o_.window_ms) / 1000.0 * 1.5 + 1000));

  std::unique_ptr<LayerProbe> probe;
  if (o_.traced) {
    ProbeConfig pc;
    // At most 2% of the workload's operations, so the probe's own requests
    // barely move the cluster's counters and tails (README, "Metrics").
    pc.rounds_per_sec = std::min(300.0, 0.02 * w_.rate);
    pc.value = make_value(0, 0, w_.value_size);
    pc.side_dir = o_.data_dir + "/probe";
    pc.datalet_key = key_str(0);
    probe = std::make_unique<LayerProbe>(*fab_, *cluster_, pc);
    probe->start();
  }

  const uint64_t ms = 1'000'000;
  const uint64_t start = mono_ns() + ms;
  const uint64_t warm_end = start + o_.warmup_ms * ms;
  const uint64_t end = warm_end + o_.window_ms * ms;
  std::thread pacer([this, start, end] { pace(start, end); });

  sleep_until_ns(warm_end);
  const std::vector<Addr> nodes = all_nodes();
  Scrape before;
  if (o_.traced) before = scrape(*fab_, nodes);
  const double cpu0 = cpu_seconds();
  // The probe's side engine and side WAL write too, outside the cluster, so
  // their bytes are taken out. The probe's puts into the cluster stay in.
  auto cluster_io = [&probe] {
    return io_write_bytes("/proc/self/io") - (probe ? probe->io_write_bytes() : 0);
  };
  const uint64_t io0 = cluster_io();
  uint64_t refreshes0 = 0, refreshes1 = 0;
  auto map_refreshes = [this](std::shared_ptr<std::promise<uint64_t>> p) {
    p->set_value(kv_->map_refreshes());
  };
  run_on<uint64_t>(crt_, map_refreshes, &refreshes0);

  // Traced runs alternate tracing on and off every 250 ms, so the overhead
  // is measured inside one process instead of across two.
  const uint64_t kill_at = w_.failover ? warm_end + o_.window_ms * ms / 4 : 0;
  bool killed = false;
  bool tracing = false;
  for (uint64_t t = warm_end; t < end;) {
    const uint64_t next = o_.traced ? std::min(end, t + 250 * ms) : end;
    if (o_.traced) {
      tracing = !tracing;
      obs::set_tracing(tracing);
    }
    if (kill_at != 0 && !killed && kill_at < next) {
      sleep_until_ns(kill_at);
      cluster_->kill_controlet(0, 0);
      killed = true;
      if (probe) probe->note_kill(mono_ns());
    }
    sleep_until_ns(next);
    t = next;
  }
  obs::set_tracing(false);
  const double cpu1 = cpu_seconds();
  const uint64_t io1 = cluster_io();
  Scrape after;
  if (o_.traced) after = scrape(*fab_, nodes);
  pacer.join();

  // Drain: every op created must complete (retries ride out a failover).
  const uint64_t drain_deadline = mono_ns() + 15'000 * ms;
  while (completed_.load(std::memory_order_acquire) < created_ &&
         mono_ns() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const bool drained = completed_.load(std::memory_order_acquire) == created_;
  run_on<uint64_t>(crt_, map_refreshes, &refreshes1);
  ProbeSamples ps;
  if (probe) ps = probe->stop();
  const uint64_t data_bytes = w_.durable ? dir_bytes(o_.data_dir + "/cluster") : 0;

  if (!drained) violations_.add("undrained", "ops pending after the drain deadline");
  if (overflow_) violations_.add("overflow", "op table full; generator stopped early");
  if (drained) {
    check_history();
    check_final_state();
  }
  std::vector<obs::Span> spans;
  if (o_.traced) {
    spans = dump_spans();
    spans.insert(spans.end(), ps.spans.begin(), ps.spans.end());
    if (!o_.trace_out.empty()) {
      std::ofstream(o_.trace_out) << spans_json(w_.name, spans).dump() << "\n";
    }
  }
  const int reactors = fab_->reactors_per_node();
  fab_->shutdown();

  // ---- raw samples over ops scheduled inside the window ----
  // Latencies go out raw (integer ns) so run.py can take percentiles over
  // every repetition's requests; scalars are per-repetition numbers.
  const double rss_mb = peak_rss_mb();
  std::vector<double> lag, reads, writes, reads_on, reads_off, issue;
  uint64_t attempted = 0, failed = 0, user_bytes = 0;
  double stall_us = 0;
  for (size_t i = 0; i < created_; ++i) {
    const OpRec& r = ops_[i];
    if (r.sched < warm_end || r.sched >= end) continue;
    ++attempted;
    const bool bad = r.outcome == Outcome::kFailed || r.outcome == Outcome::kWrong ||
                     r.outcome == Outcome::kPending;
    if (bad) ++failed;
    // A failed op misses every latency limit.
    const double lat = bad ? 1e12 : static_cast<double>(r.done - r.sched);
    if (r.is_get) {
      reads.push_back(lat);
      if (o_.traced) (r.traced ? reads_on : reads_off).push_back(lat);
    } else {
      writes.push_back(lat);
      user_bytes += 16 + w_.value_size;
      stall_us = std::max(stall_us, lat / 1e3);
    }
    lag.push_back(static_cast<double>(r.post - r.sched));
    if (o_.traced) issue.push_back(r.issue_cost);
  }
  const double ops = std::max<double>(1, static_cast<double>(attempted));
  const double window_writes = std::max<double>(1, static_cast<double>(writes.size()));

  Samples samples = {
      {"read", std::move(reads)}, {"write", std::move(writes)}, {"lag", std::move(lag)}};
  Json scalars = Json::object();
  scalars.set("workload.cpu_us_per_op", num((cpu1 - cpu0) * 1e6 / ops));
  scalars.set("rss_mb", num(rss_mb));
  scalars.set("workload.failover_stall_ms", num(stall_us / 1e3));
  if (o_.traced) {
    auto ns = [](std::vector<double> us) {
      for (double& x : us) x *= 1e3;
      return us;
    };
    samples.emplace_back("read_traced", std::move(reads_on));
    samples.emplace_back("read_untraced", std::move(reads_off));
    samples.emplace_back("client.issue", std::move(issue));
    samples.emplace_back("client.share", ns(client_share_us(spans)));
    samples.emplace_back("net.rtt", ns(ps.net_rtt));
    samples.emplace_back("controlet.get", ns(ps.ctl_get));
    samples.emplace_back("controlet.put", ns(ps.ctl_put));
    samples.emplace_back("sharedlog.append", ns(ps.log_append));
    samples.emplace_back("coordinator.get_map", ns(ps.get_map));
    samples.emplace_back("datalet.get", ns(ps.datalet_get));
    samples.emplace_back("datalet.put", ns(ps.datalet_put));
    samples.emplace_back("storage.fsync", ns(ps.fsync));

    auto named = [&](const std::string& name) {
      return static_cast<double>(counter_delta(
          before, after, [&](const std::string& n) { return n == name; }));
    };
    auto suffixed = [&](const std::string& suffix) {
      return static_cast<double>(counter_delta(before, after, [&](const std::string& n) {
        return n.size() >= suffix.size() &&
               n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0;
      }));
    };
    const double ubytes = std::max<double>(1, static_cast<double>(user_bytes));
    std::unordered_map<uint64_t, bool> live;
    for (size_t i = 0; i < created_; ++i) {
      if (!ops_[i].is_get && ops_[i].outcome == Outcome::kOk) live[ops_[i].key] = true;
    }
    const double live_bytes =
        static_cast<double>(live.size() + w_.preload) * (16.0 + double(w_.value_size));
    scalars.set("client.retries_per_kop", num(named("client.retry") * 1000 / ops));
    scalars.set("client.map_refreshes", num(static_cast<double>(refreshes1 - refreshes0)));
    scalars.set("net.msgs_per_op", num(named("net.msgs_sent") / ops));
    scalars.set("net.bytes_per_op", num(named("net.bytes_sent") / ops));
    scalars.set("net.wakeups_per_op", num(suffixed(".wakeups") / ops));
    scalars.set("net.msgs_per_flush",
                num(named("net.msgs_sent") / std::max(1.0, named("net.flushes"))));
    scalars.set("net.dropped", num(named("net.msgs_dropped")));
    scalars.set("controlet.dedup_hits", num(named("controlet.dedup_hits")));
    scalars.set("controlet.fenced",
                num(named("controlet.lease_fenced") + named("controlet.epoch_fenced")));
    scalars.set("sharedlog.appends_per_write",
                num(named("sharedlog.appends") / window_writes));
    scalars.set("coordinator.detect_ms", num(ps.detect_ms));
    scalars.set("lsm.flushes", num(named("lsm.flushes")));
    scalars.set("lsm.compactions", num(named("lsm.compactions")));
    scalars.set("lsm.compaction_bytes_per_user_byte",
                num(named("lsm.compaction_bytes") / ubytes));
    scalars.set("storage.write_amp", num(static_cast<double>(io1 - io0) / ubytes));
    // Per replica: the data directory holds every replica's files.
    scalars.set("storage.space_amp",
                num(static_cast<double>(data_bytes) /
                    cluster_->options().num_replicas / std::max(1.0, live_bytes)));
  }

  Json j = Json::object();
  j.set("workload", Json::string(w_.name));
  j.set("seed", num(static_cast<double>(o_.seed)));
  j.set("traced", Json::boolean(o_.traced));
  j.set("reactors", num(reactors));
  j.set("pacer_realtime", Json::boolean(pacer_realtime_));
  j.set("setup_s", num(setup_s));
  j.set("attempted", num(static_cast<double>(attempted)));
  j.set("failed", num(static_cast<double>(failed)));
  j.set("violations", num(static_cast<double>(violations_.count())));
  j.set("violation_kinds", violations_.to_json());
  j.set("scalars", std::move(scalars));
  return with_samples(j.dump(), samples);
}

// ---------------------------------------------------------------------------

int smoke(const std::string& data_dir) {
  int bad = 0;
  for (const auto& w : kWorkloads) {
    RunOpts o;
    o.warmup_ms = 300;
    o.window_ms = 1000;
    o.traced = true;
    o.data_dir = data_dir + "/" + w.name;
    o.trace_out = o.data_dir + ".trace.json";
    auto res = Rep(w, o).run();
    std::filesystem::remove_all(o.data_dir);
    std::filesystem::remove(o.trace_out);
    if (!res.ok()) {
      std::fprintf(stderr, "%s: %s\n", w.name, res.status().to_string().c_str());
      ++bad;
      continue;
    }
    auto parsed = Json::parse(res.value());
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: unparsable record\n", w.name);
      ++bad;
      continue;
    }
    const Json& j = parsed.value();
    const bool ok = j.get("violations").as_int() == 0 && j.get("failed").as_int() == 0 &&
                    j.get("attempted").as_int() > 0;
    std::printf("%-22s %s attempted=%" PRId64 " failed=%" PRId64 " violations=%" PRId64 "\n",
                w.name, ok ? "ok  " : "FAIL", j.get("attempted").as_int(),
                j.get("failed").as_int(), j.get("violations").as_int());
    if (!ok) {
      std::fprintf(stderr, "%s\n", j.get("violation_kinds").dump().c_str());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed N] [--window-ms M] "
               "[--traced] [--data-dir DIR] [--trace-out FILE]\n"
               "       bench_e2e --smoke [--data-dir DIR]\n"
               "       bench_e2e --list\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  RunOpts o;
  std::string workload;
  bool smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--list") {
      for (const auto& w : kWorkloads) std::printf("%s\n", w.name);
      return 0;
    } else if (a == "--smoke") {
      smoke_mode = true;
    } else if (a == "--traced") {
      o.traced = true;
    } else if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--window-ms") {
      o.window_ms = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--data-dir") {
      o.data_dir = value();
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else {
      return usage();
    }
  }
  if (smoke_mode) return smoke(o.data_dir);
  const Workload* w = find_workload(workload);
  if (w == nullptr || o.window_ms == 0 || o.window_ms > 600'000 ||
      o.data_dir.empty()) {
    return usage();
  }
  auto res = Rep(*w, o).run();
  std::filesystem::remove_all(o.data_dir);
  if (!res.ok()) {
    std::fprintf(stderr, "%s: %s\n", w->name, res.status().to_string().c_str());
    return 1;
  }
  std::printf("%s\n", res.value().c_str());
  return 0;
}

}  // namespace
}  // namespace bespokv::e2e

int main(int argc, char** argv) { return bespokv::e2e::main_impl(argc, argv); }
