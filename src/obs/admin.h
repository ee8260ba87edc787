// Fabric-level observability plumbing: the kStats/kTraceDump admin surface,
// the per-dispatch server-span guard, outgoing context stamping, and the
// periodic snapshot exporter. Both fabrics call these at their single
// choke points (deliver + call/send), so every node — controlet, datalet,
// coordinator, DLM, shared log — is scrapable and traceable with no
// per-service code.
#pragma once

#include <functional>
#include <memory>

#include "src/net/runtime.h"
#include "src/obs/node_obs.h"

namespace bespokv::obs {

// Answers observability admin ops addressed to any node:
//   kStats     → reply.value = metrics snapshot JSON
//   kTraceDump → reply.strs = encoded spans (req.seq = trace-id filter, 0 =
//                all); reply.seq = spans dropped from the ring so far;
//                req.flags bit0 clears the buffer after dumping.
// Returns true iff `req` was an admin op (and `reply` was invoked).
bool handle_admin(Runtime& rt, const Message& req, const Replier& reply);

// Stamps an outgoing message with a child context of the node's current one
// (same trace, parent = current span, hop+1). No-op if the message is
// already traced or nothing is being traced — the common untraced case costs
// two branches.
void stamp_outgoing(Runtime& rt, Message& msg);

// Scopes the server-side span of one incoming request. If the request
// carries a trace context this opens a span named after the op, installs the
// child context as the node's current context for the synchronous part of
// the handler, and closes the span when the wrapped replier fires (i.e. at
// ack time, so chain spans nest: tail closes before mid closes before head).
// If the handler never replies (one-way messages that drop the no-op
// replier), the destructor closes the span at handler exit instead.
class DispatchSpan {
 public:
  DispatchSpan(Runtime& rt, const Message& req);
  ~DispatchSpan();

  DispatchSpan(const DispatchSpan&) = delete;
  DispatchSpan& operator=(const DispatchSpan&) = delete;

  // Wraps the replier so the span ends when the reply is sent. Pass-through
  // when the request is untraced.
  Replier wrap(Replier reply);

  bool active() const { return st_ != nullptr; }

 private:
  struct State {
    Runtime* rt;
    Tracer* tracer;
    Span span;
    bool done = false;
  };
  std::shared_ptr<State> st_;
  Tracer* tracer_ = nullptr;
  TraceContext prev_{};
};

// Emits a child span of the node's current context covering [start_us, now].
// Used by controlets for replication-stage spans (chain.forward,
// sharedlog.append, dlm.lock). `ctx` is captured before the async hop since
// the current context is gone by callback time.
void record_stage(Runtime& rt, const TraceContext& ctx, const char* name,
                  uint64_t start_us);

// Periodically snapshots the node's registry on its own thread and hands the
// snapshot to `sink` — the bench-facing exporter.
class StatsExporter {
 public:
  using Sink = std::function<void(const MetricsSnapshot&)>;

  // Must be called from (or posted to) contexts where `rt` outlives the
  // exporter. Restartable after stop().
  void start(Runtime& rt, uint64_t period_us, Sink sink);
  void stop();

 private:
  Runtime* rt_ = nullptr;
  uint64_t timer_ = 0;
};

}  // namespace bespokv::obs
