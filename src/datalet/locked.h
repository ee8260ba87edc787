// LockedDatalet: mutex-guarded decorator. Nodes are single-threaded, so an
// engine owned by one node needs no locking; during §V transitions, however,
// the old and the new controlet — two nodes — share one datalet. On the
// TCP fabric that is a genuine cross-thread share, so the harness
// wraps engines with this decorator. (The DES fabric is single-threaded and
// skips it.)
#pragma once

#include <mutex>

#include "src/datalet/datalet.h"

namespace bespokv {

class LockedDatalet : public Datalet {
 public:
  explicit LockedDatalet(std::unique_ptr<Datalet> inner)
      : inner_(std::move(inner)) {}

  const char* kind() const override { return inner_->kind(); }

  Status put(std::string_view key, std::string_view value, uint64_t seq) override {
    std::lock_guard<std::mutex> g(mu_);
    return inner_->put(key, value, seq);
  }
  Result<Entry> get(std::string_view key) const override {
    std::lock_guard<std::mutex> g(mu_);
    return inner_->get(key);
  }
  Status del(std::string_view key, uint64_t seq) override {
    std::lock_guard<std::mutex> g(mu_);
    return inner_->del(key, seq);
  }
  Status put_if_newer(std::string_view key, std::string_view value,
                      uint64_t seq) override {
    std::lock_guard<std::mutex> g(mu_);
    return inner_->put_if_newer(key, value, seq);
  }
  Result<std::vector<KV>> scan(std::string_view start, std::string_view end,
                               uint32_t limit) const override {
    std::lock_guard<std::mutex> g(mu_);
    return inner_->scan(start, end, limit);
  }
  bool supports_scan() const override { return inner_->supports_scan(); }
  size_t size() const override {
    std::lock_guard<std::mutex> g(mu_);
    return inner_->size();
  }
  void for_each(const std::function<void(std::string_view, const Entry&)>& fn)
      const override {
    std::lock_guard<std::mutex> g(mu_);
    inner_->for_each(fn);
  }
  void clear() override {
    std::lock_guard<std::mutex> g(mu_);
    inner_->clear();
  }

  Status crash_restart() override {
    std::lock_guard<std::mutex> g(mu_);
    return inner_->crash_restart();
  }
  void set_op_token(uint64_t token) override {
    std::lock_guard<std::mutex> g(mu_);
    inner_->set_op_token(token);
  }
  uint64_t durable_seq() const override {
    std::lock_guard<std::mutex> g(mu_);
    return inner_->durable_seq();
  }
  bool durable() const override { return inner_->durable(); }
  std::vector<storage::TokenPin> token_pins() const override {
    std::lock_guard<std::mutex> g(mu_);
    return inner_->token_pins();
  }
  void attach_metrics(obs::MetricsRegistry& m) override {
    std::lock_guard<std::mutex> g(mu_);
    inner_->attach_metrics(m);
  }

 private:
  mutable std::mutex mu_;
  std::unique_ptr<Datalet> inner_;
};

}  // namespace bespokv
