#include "src/net/tcp_fabric.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/common/byte_buffer.h"
#include "src/common/hash.h"
#include "src/common/intrusive_list.h"
#include "src/common/logging.h"
#include "src/common/mpsc_queue.h"
#include "src/net/buffer_pool.h"
#include "src/net/envelope.h"
#include "src/net/fault.h"
#include "src/obs/admin.h"

namespace bespokv {

namespace {

uint64_t real_now_us() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Parses "host:port"; host must be a dotted quad (loopback in practice).
bool parse_addr(const Addr& addr, sockaddr_in* sa) {
  auto colon = addr.rfind(':');
  if (colon == std::string::npos) return false;
  const std::string host = addr.substr(0, colon);
  const int port = std::atoi(addr.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return false;
  std::memset(sa, 0, sizeof(*sa));
  sa->sin_family = AF_INET;
  sa->sin_port = htons(static_cast<uint16_t>(port));
  return inet_pton(AF_INET, host.c_str(), &sa->sin_addr) == 1;
}

void set_nonblock(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Write-queue chunk sizing: a chunk accepts envelopes until its backing store
// crosses kChunkBytes, then the next envelope starts a fresh (pooled) chunk —
// one oversized envelope may exceed the cap and simply owns its chunk.
// flush() gathers up to kMaxIov chunks per writev.
constexpr size_t kChunkBytes = 256 * 1024;
constexpr int kMaxIov = 64;

// epoll user-data discriminants. Connection events carry the Conn* itself;
// heap pointers never collide with these small sentinels.
constexpr uint64_t kListenTag = 1;
constexpr uint64_t kWakeTag = 2;

// The low bits of every rpc id name the reactor that issued the call, so a
// response landing on any of the node's sockets can be steered back to the
// pending-map (and timeout timer) that owns it.
constexpr unsigned kRidxBits = 4;
constexpr uint64_t kRidxMask = (1u << kRidxBits) - 1;
constexpr int kMaxReactors = 1 << kRidxBits;

// Timer ids encode their owning reactor in the top byte ((idx+1) << 56), so
// cancel_timer can route to the right reactor from anywhere. Ids are never 0.
constexpr unsigned kTimerRidxShift = 56;

}  // namespace

class TcpFabric::TcpRuntime : public Runtime {
 public:
  TcpRuntime(TcpFabric* fab, Node* node, Addr addr)
      : fab_(fab), node_(node), addr_(std::move(addr)) {}

  const Addr& self() const override { return addr_; }
  uint64_t now_us() override { return real_now_us(); }
  void post(std::function<void()> fn) override;
  uint64_t set_timer(uint64_t delay_us, std::function<void()> fn) override;
  uint64_t set_periodic(uint64_t period_us, std::function<void()> fn) override;
  void cancel_timer(uint64_t id) override;
  void call(const Addr& dst, Message req, RpcCallback cb, uint64_t timeout_us) override;
  void send(const Addr& dst, Message msg) override;
  Rng& rng() override;

 private:
  friend class TcpFabric;
  TcpFabric* fab_;
  Node* node_;
  Addr addr_;
};

struct TcpFabric::Node {
  TcpFabric* fab = nullptr;
  Addr addr;
  std::shared_ptr<Service> svc;
  std::unique_ptr<TcpRuntime> rt;
  std::vector<std::unique_ptr<Reactor>> reactors;
  std::atomic<bool> stopping{false};
  std::atomic<bool> alive{true};

  // Node-wide network counters (relaxed atomics — every reactor bumps them).
  obs::Counter* msgs_sent = nullptr;
  obs::Counter* msgs_dropped = nullptr;
  obs::Counter* bytes_sent = nullptr;
  obs::Counter* flushes = nullptr;

  int n_reactors() const { return static_cast<int>(reactors.size()); }
  Reactor* home() { return reactors[0].get(); }
  // Reactor of the calling thread if it belongs to this node, else home.
  // Anything touching reactor-owned state from a non-reactor thread must run
  // before the loop threads start (Service::start) or after they join.
  Reactor* here();
  void wake_all();

  // Reply path: prefers the request's inbound connection (origin reactor +
  // connection generation id), falling back to dialing `from`'s listen
  // address if that connection is gone.
  void reply_to(const Addr& from, uint64_t rpc_id, Message resp,
                int origin_ridx, uint64_t origin_gen);
  void deliver_reply(Envelope out, const Addr& from, int origin_ridx,
                     uint64_t origin_gen);
};

// One reactor: an epoll loop thread owning a shard of the node's connections.
// Every field below the inbox is touched only by this reactor's loop thread
// (or before it starts / after it joins).
struct TcpFabric::Reactor {
  Node* node = nullptr;
  int idx = 0;

  int epoll_fd = -1;
  int listen_fd = -1;
  // Created once per reactor and kept open across kill/restart: other
  // reactors and external posters write it at any time, and closing it while
  // they might would hand the fd number to an unrelated socket.
  int wake_fd = -1;
  std::thread thread;

  // Cross-reactor / external funnel. Producers push a closure then write the
  // eventfd; the loop drains after every wakeup.
  MpscQueue<std::function<void()>> inbox;

  static thread_local Reactor* current;

  struct Conn {
    int fd = -1;
    uint64_t gen = 0;  // reactor-unique id; Repliers hold (reactor, gen)
    Addr peer;         // nonempty iff this is an outbound connection
    ByteBuffer rbuf;
    // Outgoing ring: append_envelope encodes into the tail chunk, flush()
    // writev()s from the head. Drained chunks recycle through the reactor's
    // BufferPool so steady-state traffic reuses warm slabs.
    std::deque<ByteBuffer> wq;
    size_t pending = 0;  // queued unsent bytes (sum of wq readable sizes)
    bool want_write = false;
    bool corked = false;  // EPOLLIN off: send queue above the hi watermark
    bool dirty = false;   // enqueued on dirty_conns for the deferred flush
    bool closed = false;  // unlinked; lives in the graveyard until batch end
    ListHook<Conn> hook;
  };

  IntrusiveList<Conn, &Conn::hook> conns;
  std::unordered_map<uint64_t, Conn*> conns_by_gen;
  std::unordered_map<Addr, Conn*> out_conns;  // peer listen addr -> conn
  std::vector<Conn*> dirty_conns;
  // Closed connections are deleted only after the current event batch: the
  // epoll_wait result array may still reference them.
  std::vector<Conn*> graveyard;
  uint64_t next_gen = 1;  // monotonic across restarts — stale Replier gens
                          // must never match a revived node's connections

  BufferPool pool;
  Rng rng{1};

  struct Timer {
    uint64_t id;
    uint64_t period_us;
    std::function<void()> fn;
  };
  // Deadline-ordered so the next-due timer is begin(); `timers_by_id` makes
  // cancel O(log T). RPC timeouts are set on every call() and cancelled on
  // every response, so both operations must stay cheap.
  std::multimap<uint64_t, Timer> timers;  // at_us -> timer
  std::map<uint64_t, std::multimap<uint64_t, Timer>::iterator> timers_by_id;
  uint64_t next_timer_seq = 1;

  struct PendingRpc {
    RpcCallback cb;
    uint64_t timer_id = 0;
  };
  std::map<uint64_t, PendingRpc> pending;

  bool accept_paused = false;  // EMFILE backoff in effect

  // Per-reactor metrics (handles resolved before the loop threads start).
  obs::Counter* accepts = nullptr;
  obs::Counter* wakeups = nullptr;
  obs::Counter* stalls = nullptr;
  obs::Gauge* queue_depth = nullptr;

  ~Reactor();

  void wake() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }
  void post(std::function<void()> fn) {
    inbox.push(std::move(fn));
    wake();
  }

  bool setup();
  void loop();
  void drain_inbox();
  void reap();
  void teardown();
  void accept_ready();
  void pause_accept();
  void resume_accept();
  Conn* register_fd(int fd);
  void close_conn(Conn* c);
  void handle_readable(Conn* c);
  void flush(Conn* c);
  void flush_dirty();
  void mark_dirty(Conn* c);
  ByteBuffer& out_chunk(Conn* c);
  void append_envelope(Conn* c, const Envelope& env);
  void update_epoll_interest(Conn* c);
  void dispatch(Envelope env, Conn* src);
  void complete_response(Envelope env);
  void execute(int shard, Envelope env, int origin_ridx, uint64_t origin_gen);
  Conn* conn_to(const Addr& dst);
  void ship(const Addr& dst, const Envelope& env);
  void ship_now(const Addr& dst, const Envelope& env);
  void write_reply(uint64_t gen, const Envelope& out, const Addr& from);
  uint64_t add_timer(uint64_t at_us, uint64_t period_us,
                     std::function<void()> fn);
  void cancel_timer_local(uint64_t id);
  void run_due_timers();
  int next_timeout_ms() const;
};

thread_local TcpFabric::Reactor* TcpFabric::Reactor::current = nullptr;

// ------------------------------- Reactor ------------------------------------

TcpFabric::Reactor::~Reactor() {
  conns.for_each([this](Conn* c) {
    if (!c->closed && c->fd >= 0) ::close(c->fd);
    conns.erase(c);
    delete c;
  });
  for (Conn* c : graveyard) delete c;
  graveyard.clear();
  if (listen_fd >= 0) ::close(listen_fd);
  if (epoll_fd >= 0) ::close(epoll_fd);
  if (wake_fd >= 0) ::close(wake_fd);
}

bool TcpFabric::Reactor::setup() {
  sockaddr_in sa;
  if (!parse_addr(node->addr, &sa)) {
    LOG_ERROR << "TcpFabric: bad address " << node->addr;
    return false;
  }
  listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return false;
  int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Accept sharding: every reactor binds its own listening socket to the
  // node's address and the kernel distributes incoming connections.
  if (setsockopt(listen_fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0 &&
      node->n_reactors() > 1) {
    LOG_ERROR << "TcpFabric " << node->addr << ": SO_REUSEPORT unavailable ("
              << std::strerror(errno) << ") but " << node->n_reactors()
              << " reactors requested";
    return false;
  }
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    LOG_ERROR << "TcpFabric: bind " << node->addr
              << " failed: " << std::strerror(errno);
    return false;
  }
  if (::listen(listen_fd, 512) != 0) return false;
  set_nonblock(listen_fd);

  epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    LOG_ERROR << "TcpFabric " << node->addr << " r" << idx
              << ": epoll_create1 failed: " << std::strerror(errno);
    return false;
  }
  if (wake_fd < 0) {
    wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd < 0) return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) != 0) {
    LOG_ERROR << "TcpFabric " << node->addr << " r" << idx
              << ": epoll_ctl ADD listen failed: " << std::strerror(errno);
    return false;
  }
  ev.data.u64 = kWakeTag;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0) {
    LOG_ERROR << "TcpFabric " << node->addr << " r" << idx
              << ": epoll_ctl ADD wake failed: " << std::strerror(errno);
    return false;
  }
  accept_paused = false;
  return true;
}

uint64_t TcpFabric::Reactor::add_timer(uint64_t at_us, uint64_t period_us,
                                       std::function<void()> fn) {
  const uint64_t id =
      (static_cast<uint64_t>(idx + 1) << kTimerRidxShift) | next_timer_seq++;
  auto it = timers.emplace(at_us, Timer{id, period_us, std::move(fn)});
  timers_by_id[id] = it;
  return id;
}

void TcpFabric::Reactor::cancel_timer_local(uint64_t id) {
  auto it = timers_by_id.find(id);
  if (it == timers_by_id.end()) return;
  timers.erase(it->second);
  timers_by_id.erase(it);
}

void TcpFabric::Reactor::run_due_timers() {
  const uint64_t now = real_now_us();
  // Fire timers one at a time; a fired timer may add or cancel others. Only
  // timers due at entry fire — anything a callback schedules for "now" waits
  // for the next loop iteration (next_timeout_ms returns 0 for it).
  while (!timers.empty() && timers.begin()->first <= now) {
    auto it = timers.begin();
    Timer t = std::move(it->second);
    timers_by_id.erase(t.id);
    timers.erase(it);
    if (t.period_us > 0) {
      auto re = timers.emplace(now + t.period_us, Timer{t.id, t.period_us, t.fn});
      timers_by_id[t.id] = re;
    }
    t.fn();
  }
}

int TcpFabric::Reactor::next_timeout_ms() const {
  if (timers.empty()) return 100;  // wake periodically regardless
  const uint64_t earliest = timers.begin()->first;
  const uint64_t now = real_now_us();
  if (earliest <= now) return 0;
  return static_cast<int>(std::min<uint64_t>((earliest - now) / 1000 + 1, 100));
}

void TcpFabric::Reactor::loop() {
  current = this;
  obs::set_reactor_tag(static_cast<uint32_t>(idx));
  epoll_event events[64];
  while (!node->stopping.load()) {
    const int n = epoll_wait(epoll_fd, events, 64, next_timeout_ms());
    if (node->stopping.load()) break;
    run_due_timers();
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        accept_ready();
      } else if (tag == kWakeTag) {
        uint64_t buf;
        while (::read(wake_fd, &buf, sizeof(buf)) > 0) {
        }
        wakeups->inc();
        drain_inbox();
      } else {
        Conn* c = static_cast<Conn*>(events[i].data.ptr);
        if (c->closed) continue;  // closed earlier in this batch
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          close_conn(c);
          continue;
        }
        if (events[i].events & EPOLLIN) handle_readable(c);
        if (!c->closed && (events[i].events & EPOLLOUT)) flush(c);
      }
    }
    // Opportunistic drain: a task pushed after our epoll_wait returned would
    // otherwise wait for its eventfd edge next iteration.
    drain_inbox();
    // Deferred flush: everything shipped during this wakeup (timer fires,
    // funneled tasks, request dispatches, replies) drains per-connection in
    // one writev — N envelopes to one peer cost one syscall.
    flush_dirty();
    reap();
  }
  teardown();
  obs::set_reactor_tag(0);
  current = nullptr;
}

void TcpFabric::Reactor::drain_inbox() {
  queue_depth->set(static_cast<int64_t>(inbox.approx_depth()));
  while (auto task = inbox.pop()) (*task)();
}

void TcpFabric::Reactor::reap() {
  for (Conn* c : graveyard) delete c;
  graveyard.clear();
}

void TcpFabric::Reactor::teardown() {
  conns.for_each([this](Conn* c) {
    ::close(c->fd);
    conns.erase(c);
    delete c;
  });
  reap();
  conns_by_gen.clear();
  out_conns.clear();
  dirty_conns.clear();
  timers.clear();
  timers_by_id.clear();
  pending.clear();
  if (listen_fd >= 0) {
    ::close(listen_fd);
    listen_fd = -1;
  }
  if (epoll_fd >= 0) {
    ::close(epoll_fd);
    epoll_fd = -1;
  }
  // wake_fd intentionally stays open (see its declaration).
}

void TcpFabric::Reactor::accept_ready() {
  while (true) {
    int cfd = ::accept4(listen_fd, nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: stop accepting for a moment instead of
        // spinning on a level-triggered listen socket we cannot serve.
        LOG_WARN << "TcpFabric " << node->addr << " r" << idx
                 << ": accept failed (" << std::strerror(errno)
                 << "); pausing accepts 100ms";
        pause_accept();
        break;
      }
      LOG_WARN << "TcpFabric " << node->addr << " r" << idx
               << ": accept failed: " << std::strerror(errno);
      break;
    }
    set_nodelay(cfd);
    if (register_fd(cfd) != nullptr) accepts->inc();
  }
}

void TcpFabric::Reactor::pause_accept() {
  if (accept_paused) return;
  accept_paused = true;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr) != 0) {
    LOG_WARN << "TcpFabric " << node->addr << " r" << idx
             << ": epoll_ctl DEL listen failed: " << std::strerror(errno);
  }
  add_timer(real_now_us() + 100'000, 0, [this] { resume_accept(); });
}

void TcpFabric::Reactor::resume_accept() {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) != 0) {
    LOG_WARN << "TcpFabric " << node->addr << " r" << idx
             << ": re-arming listen failed (" << std::strerror(errno)
             << "); retrying in 100ms";
    add_timer(real_now_us() + 100'000, 0, [this] { resume_accept(); });
    return;
  }
  accept_paused = false;
}

TcpFabric::Reactor::Conn* TcpFabric::Reactor::register_fd(int fd) {
  Conn* c = new Conn();
  c->fd = fd;
  c->gen = next_gen++;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = c;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    LOG_WARN << "TcpFabric " << node->addr << " r" << idx
             << ": epoll_ctl ADD conn failed: " << std::strerror(errno);
    ::close(fd);
    delete c;
    return nullptr;
  }
  conns.push_back(c);
  conns_by_gen[c->gen] = c;
  return c;
}

void TcpFabric::Reactor::close_conn(Conn* c) {
  if (c->closed) return;
  c->closed = true;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr) != 0) {
    LOG_WARN << "TcpFabric " << node->addr << " r" << idx
             << ": epoll_ctl DEL conn failed: " << std::strerror(errno);
  }
  ::close(c->fd);
  conns.erase(c);
  conns_by_gen.erase(c->gen);
  if (!c->peer.empty()) {
    auto it = out_conns.find(c->peer);
    if (it != out_conns.end() && it->second == c) out_conns.erase(it);
  }
  for (auto& b : c->wq) pool.release(std::move(b));
  c->wq.clear();
  graveyard.push_back(c);
}

void TcpFabric::Reactor::handle_readable(Conn* c) {
  constexpr size_t kReadChunk = 64 * 1024;
  while (true) {
    // read(2) straight into the buffer tail — no bounce through a stack
    // buffer and no erase(0, n) memmove afterwards (consume is O(1)).
    char* dst = c->rbuf.prepare(kReadChunk);
    ssize_t n = ::read(c->fd, dst, kReadChunk);
    if (n > 0) {
      c->rbuf.commit(static_cast<size_t>(n));
      if (static_cast<size_t>(n) < kReadChunk) break;  // drained the socket
    } else {
      c->rbuf.commit(0);
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        close_conn(c);
        return;
      }
      break;
    }
  }
  while (!c->closed) {
    Envelope env;
    size_t consumed = 0;
    Status s = decode_envelope(c->rbuf.readable(), &env, &consumed);
    if (!s.ok()) {
      LOG_WARN << "TcpFabric " << node->addr << " r" << idx
               << ": corrupt stream from fd " << c->fd << ": " << s.to_string();
      close_conn(c);
      return;
    }
    if (consumed == 0) break;
    c->rbuf.consume(consumed);
    dispatch(std::move(env), c);
  }
}

void TcpFabric::Reactor::dispatch(Envelope env, Conn* src) {
  Node* nd = node;
  if (env.kind == EnvelopeKind::kResponse) {
    // Responses belong to the reactor that issued the call (low rpc-id
    // bits). They normally arrive on that reactor's own outbound connection;
    // an addr-dialed reply may land anywhere and is funneled across.
    const int target = static_cast<int>(env.rpc_id & kRidxMask);
    if (target != idx && target < nd->n_reactors()) {
      Reactor* tr = nd->reactors[static_cast<size_t>(target)].get();
      tr->post([tr, env = std::move(env)]() mutable {
        tr->complete_response(std::move(env));
      });
      return;
    }
    complete_response(std::move(env));
    return;
  }
  // Requests and one-ways run on the reactor owning their shard: shard k of
  // a sharded service lives on reactor (k % reactors); everything else is
  // serialized on the node's home reactor, preserving the single-threaded
  // controlet model.
  int shard = 0;
  int owner = 0;
  if (nd->svc->shards() > 1) {
    shard = nd->svc->shard_of(env.msg);
    owner = shard % nd->n_reactors();
  }
  const uint64_t gen = (src != nullptr) ? src->gen : 0;
  if (owner != idx) {
    Reactor* tr = nd->reactors[static_cast<size_t>(owner)].get();
    const int origin = idx;
    tr->post([tr, shard, origin, gen, env = std::move(env)]() mutable {
      tr->execute(shard, std::move(env), origin, gen);
    });
    return;
  }
  execute(shard, std::move(env), idx, gen);
}

void TcpFabric::Reactor::complete_response(Envelope env) {
  auto it = pending.find(env.rpc_id);
  if (it == pending.end()) return;  // already timed out
  RpcCallback cb = std::move(it->second.cb);
  cancel_timer_local(it->second.timer_id);
  pending.erase(it);
  cb(Status::Ok(), std::move(env.msg));
}

void TcpFabric::Reactor::execute(int shard, Envelope env, int origin_ridx,
                                 uint64_t origin_gen) {
  Node* nd = node;
  const Addr from = env.from;
  Replier reply;
  if (env.kind == EnvelopeKind::kRequest) {
    const uint64_t rpc_id = env.rpc_id;
    reply = [nd, from, rpc_id, origin_ridx, origin_gen](Message resp) {
      nd->reply_to(from, rpc_id, std::move(resp), origin_ridx, origin_gen);
    };
  } else {
    reply = [](Message) {};
  }
  if (obs::handle_admin(*nd->rt, env.msg, reply)) return;
  obs::DispatchSpan span(*nd->rt, env.msg);
  reply = span.wrap(std::move(reply));
  if (nd->svc->shards() > 1) {
    nd->svc->handle_shard(shard, from, std::move(env.msg), std::move(reply));
  } else {
    nd->svc->handle(from, std::move(env.msg), std::move(reply));
  }
}

TcpFabric::Reactor::Conn* TcpFabric::Reactor::conn_to(const Addr& dst) {
  auto it = out_conns.find(dst);
  if (it != out_conns.end()) return it->second;
  sockaddr_in sa;
  if (!parse_addr(dst, &sa)) return nullptr;
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  // Loopback connects complete immediately in practice; block briefly here
  // rather than implementing full async connect state tracking.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return nullptr;
  }
  set_nonblock(fd);
  set_nodelay(fd);
  Conn* c = register_fd(fd);
  if (c == nullptr) return nullptr;
  c->peer = dst;
  out_conns[dst] = c;
  return c;
}

// Picks the chunk append_envelope encodes into: the current tail until it
// crosses kChunkBytes, then a fresh chunk from the reactor's pool.
ByteBuffer& TcpFabric::Reactor::out_chunk(Conn* c) {
  if (c->wq.empty() || c->wq.back().backing().size() >= kChunkBytes) {
    c->wq.push_back(pool.acquire());
  }
  return c->wq.back();
}

void TcpFabric::Reactor::mark_dirty(Conn* c) {
  if (c->dirty) return;
  c->dirty = true;
  dirty_conns.push_back(c);
}

// Zero-copy enqueue plus backpressure accounting: the envelope serializes
// directly into the connection's tail chunk. Crossing the hi watermark corks
// the connection (we stop reading from a peer we cannot answer); crossing
// the cap closes it as a dead or runaway consumer.
void TcpFabric::Reactor::append_envelope(Conn* c, const Envelope& env) {
  ByteBuffer& chunk = out_chunk(c);
  const size_t before = chunk.size();
  encode_envelope(env, &chunk);
  c->pending += chunk.size() - before;
  node->msgs_sent->inc();
  mark_dirty(c);
  const TcpFabricOpts& o = node->fab->opts_;
  if (c->pending > o.send_queue_cap) {
    LOG_WARN << "TcpFabric " << node->addr << " r" << idx << ": send queue ("
             << c->pending << " bytes) over cap; closing slow consumer fd "
             << c->fd;
    close_conn(c);
    return;
  }
  if (!c->corked && c->pending > o.send_hi_watermark) {
    c->corked = true;
    stalls->inc();
    update_epoll_interest(c);
  }
}

void TcpFabric::Reactor::update_epoll_interest(Conn* c) {
  epoll_event ev{};
  ev.events = (c->corked ? 0u : EPOLLIN) | (c->want_write ? EPOLLOUT : 0u);
  ev.data.ptr = c;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c->fd, &ev) != 0) {
    LOG_WARN << "TcpFabric " << node->addr << " r" << idx
             << ": epoll_ctl MOD failed: " << std::strerror(errno);
    close_conn(c);
  }
}

void TcpFabric::Reactor::flush_dirty() {
  while (!dirty_conns.empty()) {
    std::vector<Conn*> batch;
    batch.swap(dirty_conns);
    for (Conn* c : batch) {
      if (!c->closed) flush(c);
    }
  }
}

void TcpFabric::Reactor::flush(Conn* c) {
  if (c->closed) return;
  c->dirty = false;
  bool wrote = false;
  while (!c->wq.empty() && !c->wq.front().empty()) {
    iovec iov[kMaxIov];
    int iovcnt = 0;
    for (const auto& b : c->wq) {
      if (iovcnt == kMaxIov) break;
      std::string_view v = b.readable();
      if (v.empty()) continue;
      iov[iovcnt].iov_base = const_cast<char*>(v.data());
      iov[iovcnt].iov_len = v.size();
      ++iovcnt;
    }
    if (iovcnt == 0) break;
    ssize_t n = ::writev(c->fd, iov, iovcnt);
    if (n > 0) {
      wrote = true;
      node->bytes_sent->inc(static_cast<uint64_t>(n));
      c->pending -= std::min(c->pending, static_cast<size_t>(n));
      size_t left = static_cast<size_t>(n);
      while (left > 0) {
        ByteBuffer& head = c->wq.front();
        const size_t take = std::min(left, head.size());
        head.consume(take);
        left -= take;
        if (head.empty() && c->wq.size() > 1) {
          // Fully drained and not the active tail: recycle through the pool
          // so the next burst (on any connection) reuses the allocation.
          pool.release(std::move(head));
          c->wq.pop_front();
        }
      }
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      close_conn(c);
      return;
    }
  }
  if (wrote) node->flushes->inc();
  const bool want = !c->wq.empty() && !c->wq.front().empty();
  bool mod = false;
  if (want != c->want_write) {
    c->want_write = want;
    mod = true;
  }
  if (c->corked && c->pending <= node->fab->opts_.send_lo_watermark) {
    c->corked = false;
    mod = true;
  }
  if (mod) update_epoll_interest(c);
}

void TcpFabric::Reactor::ship(const Addr& dst, const Envelope& env) {
  // Chaos hook: the injector's verdict applies once per send; delayed and
  // duplicated copies go straight to ship_now so they are not re-judged.
  if (auto fi = node->fab->fault_injector()) {
    const FaultDecision d = fi->on_message(node->addr, dst, real_now_us());
    if (d.drop) {
      node->msgs_dropped->inc();
      return;
    }
    if (d.delay_us > 0) {
      // ship() only runs on this reactor's thread, so the timer manipulation
      // and the deferred re-ship both stay on this reactor's loop.
      add_timer(real_now_us() + d.delay_us, 0,
                [this, dst, env, dup = d.duplicate] {
                  ship_now(dst, env);
                  if (dup) ship_now(dst, env);
                });
      return;
    }
    if (d.duplicate) ship_now(dst, env);
  }
  ship_now(dst, env);
}

void TcpFabric::Reactor::ship_now(const Addr& dst, const Envelope& env) {
  if (node->fab->severed(node->addr, dst)) {  // partition: drop outgoing
    node->msgs_dropped->inc();
    LOG_DEBUG << "TcpFabric " << node->addr << ": dropped envelope to " << dst
              << " (partitioned)";
    return;
  }
  Conn* c = conn_to(dst);
  if (c == nullptr) {  // peer dead: caller's timeout handles it
    node->msgs_dropped->inc();
    LOG_DEBUG << "TcpFabric " << node->addr << ": dropped envelope to " << dst
              << " (connect failed)";
    return;
  }
  append_envelope(c, env);
}

void TcpFabric::Reactor::write_reply(uint64_t gen, const Envelope& out,
                                     const Addr& from) {
  if (gen != 0) {
    auto it = conns_by_gen.find(gen);
    if (it != conns_by_gen.end()) {
      append_envelope(it->second, out);
      return;
    }
  }
  // The inbound connection is gone (or the request was locally injected):
  // fall back to dialing the peer's listen address. The fault verdict was
  // already applied upstream, so this must not re-judge.
  ship_now(from, out);
}

// -------------------------------- Node --------------------------------------

TcpFabric::Reactor* TcpFabric::Node::here() {
  Reactor* r = Reactor::current;
  return (r != nullptr && r->node == this) ? r : home();
}

void TcpFabric::Node::wake_all() {
  for (auto& r : reactors) r->wake();
}

void TcpFabric::Node::reply_to(const Addr& from, uint64_t rpc_id, Message resp,
                               int origin_ridx, uint64_t origin_gen) {
  if (stopping.load()) return;
  Envelope out;
  out.rpc_id = rpc_id;
  out.kind = EnvelopeKind::kResponse;
  out.from = addr;
  out.msg = std::move(resp);
  // The fault verdict applies once, on the reactor executing the reply.
  if (auto fi = fab->fault_injector()) {
    const FaultDecision d = fi->on_message(addr, from, real_now_us());
    if (d.drop) {
      msgs_dropped->inc();
      return;
    }
    if (d.delay_us > 0) {
      here()->add_timer(
          real_now_us() + d.delay_us, 0,
          [this, from, origin_ridx, origin_gen, out, dup = d.duplicate] {
            deliver_reply(out, from, origin_ridx, origin_gen);
            if (dup) deliver_reply(out, from, origin_ridx, origin_gen);
          });
      return;
    }
    if (d.duplicate) deliver_reply(out, from, origin_ridx, origin_gen);
  }
  deliver_reply(std::move(out), from, origin_ridx, origin_gen);
}

void TcpFabric::Node::deliver_reply(Envelope out, const Addr& from,
                                    int origin_ridx, uint64_t origin_gen) {
  if (fab->severed(addr, from)) {  // partition severed after dispatch
    msgs_dropped->inc();
    LOG_DEBUG << "TcpFabric " << addr << ": dropped reply to " << from
              << " (partitioned)";
    return;
  }
  Reactor* origin = (origin_ridx >= 0 && origin_ridx < n_reactors())
                        ? reactors[static_cast<size_t>(origin_ridx)].get()
                        : home();
  if (Reactor::current == origin) {
    origin->write_reply(origin_gen, out, from);
  } else {
    origin->post([origin, out = std::move(out), from, origin_gen]() mutable {
      origin->write_reply(origin_gen, out, from);
    });
  }
}

// ----------------------------- TcpRuntime ----------------------------------

void TcpFabric::TcpRuntime::post(std::function<void()> fn) {
  node_->here()->post(std::move(fn));
}

uint64_t TcpFabric::TcpRuntime::set_timer(uint64_t delay_us,
                                          std::function<void()> fn) {
  // Timers are manipulated on the owning reactor's thread only (services run
  // there); external threads must post() first. Calls made before the loop
  // threads start (Service::start) land on the home reactor.
  return node_->here()->add_timer(real_now_us() + delay_us, 0, std::move(fn));
}

uint64_t TcpFabric::TcpRuntime::set_periodic(uint64_t period_us,
                                             std::function<void()> fn) {
  return node_->here()->add_timer(real_now_us() + period_us, period_us,
                                  std::move(fn));
}

void TcpFabric::TcpRuntime::cancel_timer(uint64_t id) {
  if (id == 0) return;
  const int target = static_cast<int>(id >> kTimerRidxShift) - 1;
  if (target < 0 || target >= node_->n_reactors()) return;
  Reactor* r = node_->reactors[static_cast<size_t>(target)].get();
  if (Reactor::current == r || !r->thread.joinable()) {
    // On the owner (the hot path: every RPC response cancels its timeout
    // there) or no loop thread is running yet/anymore — mutate directly.
    r->cancel_timer_local(id);
  } else {
    r->post([r, id] { r->cancel_timer_local(id); });
  }
}

void TcpFabric::TcpRuntime::call(const Addr& dst, Message req, RpcCallback cb,
                                 uint64_t timeout_us) {
  obs::stamp_outgoing(*this, req);
  Reactor* r = node_->here();
  const uint64_t rpc_id =
      (fab_->next_rpc_id_.fetch_add(1) << kRidxBits) |
      static_cast<uint64_t>(r->idx);
  // The response path cancels this timer; without that, every completed RPC
  // would leave a dead timer behind for timeout_us and a busy client drowns
  // in stale entries.
  const uint64_t timer_id =
      r->add_timer(real_now_us() + timeout_us, 0, [r, rpc_id] {
        auto it = r->pending.find(rpc_id);
        if (it == r->pending.end()) return;
        RpcCallback cb = std::move(it->second.cb);
        r->pending.erase(it);
        cb(Status::Timeout("rpc timeout"), Message{});
      });
  r->pending[rpc_id] = Reactor::PendingRpc{std::move(cb), timer_id};
  Envelope env;
  env.rpc_id = rpc_id;
  env.kind = EnvelopeKind::kRequest;
  env.from = addr_;
  env.msg = std::move(req);
  r->ship(dst, env);
}

void TcpFabric::TcpRuntime::send(const Addr& dst, Message msg) {
  obs::stamp_outgoing(*this, msg);
  Envelope env;
  env.kind = EnvelopeKind::kOneWay;
  env.from = addr_;
  env.msg = std::move(msg);
  node_->here()->ship(dst, env);
}

Rng& TcpFabric::TcpRuntime::rng() { return node_->here()->rng; }

// ------------------------------ TcpFabric ----------------------------------

TcpFabric::TcpFabric(TcpFabricOpts opts) : opts_(opts) {
  if (opts_.reactors <= 0) {
    const char* env = std::getenv("BKV_TCP_REACTORS");
    opts_.reactors = (env != nullptr) ? std::atoi(env) : 1;
  }
  opts_.reactors = std::clamp(opts_.reactors, 1, kMaxReactors);
  if (opts_.send_lo_watermark > opts_.send_hi_watermark) {
    opts_.send_lo_watermark = opts_.send_hi_watermark / 4;
  }
  if (opts_.send_queue_cap < 2 * opts_.send_hi_watermark) {
    opts_.send_queue_cap = 2 * opts_.send_hi_watermark;
  }
  const int port = pick_port();
  // The hidden client node for call_sync: one reactor is plenty.
  external_ = add_node_with_reactors(
      "127.0.0.1:" + std::to_string(port),
      std::make_shared<LambdaService>(
          [](Runtime&, const Addr&, Message, Replier reply) {
            reply(Message::reply(Code::kInvalid));
          }),
      1);
}

TcpFabric::~TcpFabric() { shutdown(); }

Runtime* TcpFabric::add_node(const Addr& addr, std::shared_ptr<Service> svc) {
  return add_node_with_reactors(addr, std::move(svc), opts_.reactors);
}

Runtime* TcpFabric::add_node_with_reactors(const Addr& addr,
                                           std::shared_ptr<Service> svc,
                                           int reactors) {
  // SO_REUSEPORT would let a second node bind a live node's port and steal
  // its connections, so a registered address is refused up front.
  if (find(addr) != nullptr) {
    LOG_ERROR << "TcpFabric: address " << addr << " is already registered";
    return nullptr;
  }
  auto node = std::make_shared<Node>();
  node->fab = this;
  node->addr = addr;
  node->svc = std::move(svc);
  node->rt = std::make_unique<TcpRuntime>(this, node.get(), addr);
  obs::MetricsRegistry& m = node->rt->obs().metrics();
  node->msgs_sent = &m.counter("net.msgs_sent");
  node->msgs_dropped = &m.counter("net.msgs_dropped");
  node->bytes_sent = &m.counter("net.bytes_sent");
  node->flushes = &m.counter("net.flushes");
  for (int i = 0; i < reactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->node = node.get();
    r->idx = i;
    r->pool = BufferPool(opts_.pool_buffers, kChunkBytes);
    r->rng = Rng(fnv1a64(addr) + 0x9e3779b97f4a7c15ULL * uint64_t(i + 1));
    const std::string p = "net.r" + std::to_string(i) + ".";
    r->accepts = &m.counter(p + "accepts");
    r->wakeups = &m.counter(p + "wakeups");
    r->stalls = &m.counter(p + "stalls");
    r->queue_depth = &m.gauge(p + "queue_depth");
    node->reactors.push_back(std::move(r));
  }
  for (auto& r : node->reactors) {
    if (!r->setup()) {
      LOG_ERROR << "TcpFabric: failed to set up node " << addr;
      return nullptr;
    }
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    // A concurrent add_node of the same address won the race: keep it.
    if (!nodes_.emplace(addr, node).second) return nullptr;
  }
  // start() runs before any reactor thread exists, so services may install
  // timers and resolve metric handles without synchronization.
  node->svc->start(*node->rt);
  for (auto& r : node->reactors) {
    Reactor* rp = r.get();
    r->thread = std::thread([rp] { rp->loop(); });
  }
  return node->rt.get();
}

std::shared_ptr<TcpFabric::Node> TcpFabric::find(const Addr& addr) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = nodes_.find(addr);
  return it == nodes_.end() ? nullptr : it->second;
}

bool TcpFabric::severed(const Addr& a, const Addr& b) const {
  std::lock_guard<std::mutex> g(mu_);
  auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  return cuts_.count(key) > 0;
}

void TcpFabric::kill(const Addr& addr) {
  auto node = find(addr);
  if (!node) return;
  node->svc->stop();
  node->alive.store(false);
  node->stopping.store(true);
  node->wake_all();
  for (auto& r : node->reactors) {
    if (r->thread.joinable()) r->thread.join();
  }
}

bool TcpFabric::alive(const Addr& addr) const {
  auto node = find(addr);
  return node && node->alive.load();
}

bool TcpFabric::restart(const Addr& addr) {
  auto node = find(addr);
  if (!node || node->alive.load()) return false;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (shut_down_) return false;
  }
  for (auto& r : node->reactors) {
    if (r->thread.joinable()) r->thread.join();
  }
  // The old loops tore down their fds/timers/conns on the way out; drain
  // whatever cross-thread tasks queued while the node was dead.
  for (auto& r : node->reactors) {
    while (r->inbox.pop()) {
    }
  }
  node->stopping.store(false);
  for (auto& r : node->reactors) {
    if (!r->setup()) {
      LOG_ERROR << "TcpFabric: restart of " << addr << " failed to re-bind";
      return false;
    }
  }
  node->alive.store(true);
  node->svc->start(*node->rt);
  for (auto& r : node->reactors) {
    Reactor* rp = r.get();
    r->thread = std::thread([rp] { rp->loop(); });
  }
  return true;
}

void TcpFabric::partition(const Addr& a, const Addr& b, bool cut) {
  std::lock_guard<std::mutex> g(mu_);
  auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  if (cut) {
    cuts_.insert(key);
  } else {
    cuts_.erase(key);
  }
}

void TcpFabric::shutdown() {
  std::vector<std::shared_ptr<Node>> all;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (shut_down_) return;
    shut_down_ = true;
    for (auto& [addr, node] : nodes_) all.push_back(node);
  }
  for (auto& node : all) {
    if (node->alive.load()) node->svc->stop();
    node->alive.store(false);
    node->stopping.store(true);
    node->wake_all();
  }
  for (auto& node : all) {
    for (auto& r : node->reactors) {
      if (r->thread.joinable()) r->thread.join();
    }
  }
}

Result<Message> TcpFabric::call_sync(const Addr& dst, Message req,
                                     uint64_t timeout_us) {
  auto prom = std::make_shared<std::promise<Result<Message>>>();
  auto fut = prom->get_future();
  external_->post([this, dst, req = std::move(req), prom, timeout_us]() mutable {
    external_->call(
        dst, std::move(req),
        [prom](Status s, Message m) {
          if (s.ok()) {
            prom->set_value(std::move(m));
          } else {
            prom->set_value(s);
          }
        },
        timeout_us);
  });
  return fut.get();
}

int TcpFabric::pick_port() {
  // The port is free when drawn but bound only later, so the kernel may hand
  // it out again in between; remembering every port this process drew keeps
  // two nodes off the same address.
  static std::mutex mu;
  static std::set<int> drawn;
  for (int attempt = 0; attempt < 64; ++attempt) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      ::close(fd);
      return 0;
    }
    socklen_t len = sizeof(sa);
    getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
    const int port = ntohs(sa.sin_port);
    ::close(fd);
    std::lock_guard<std::mutex> g(mu);
    if (drawn.insert(port).second) return port;
  }
  return 0;
}

}  // namespace bespokv
