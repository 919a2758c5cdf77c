#include "fleet_watch.h"

#include <chrono>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <utility>

#include "dist/protocol.h"
#include "support/json.h"

namespace perfbench {

namespace {

// Every protocol message is a JSON object whose first member is its
// type (dist/protocol.cpp), so a prefix picks out the frames watched.
constexpr std::string_view kWelcome = "{\"type\":\"welcome\",";
constexpr std::string_view kGrant = "{\"type\":\"lease\",";
constexpr std::string_view kRetire = "{\"type\":\"retire\",\"lease\":";

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

class FleetWatch::WatchedConnection : public gks::dist::Connection {
 public:
  WatchedConnection(std::unique_ptr<gks::dist::Connection> inner,
                    std::shared_ptr<Shared> shared, std::size_t index)
      : inner_(std::move(inner)), shared_(std::move(shared)), index_(index) {}

  void send(const std::string& frame) override {
    inner_->send(frame);
    if (!starts_with(frame, kRetire)) return;
    const std::uint64_t lease =
        std::strtoull(frame.c_str() + kRetire.size(), nullptr, 10);
    std::lock_guard lock(shared_->mu);
    Link& link = shared_->links[index_];
    if (link.granted.erase(lease) > 0) ++link.retired;
  }

  std::optional<std::string> recv(double timeout_s) override {
    std::optional<std::string> frame = inner_->recv(timeout_s);
    if (!frame) return frame;
    if (starts_with(*frame, kWelcome)) {
      std::lock_guard lock(shared_->mu);
      Link& link = shared_->links[index_];
      if (!link.welcomed) {
        link.welcomed = true;
        ++shared_->welcomed;
        shared_->welcomed_cv.notify_all();
      }
    } else if (starts_with(*frame, kGrant)) {
      const gks::dist::LeaseGrantWire grant =
          gks::dist::lease_grant_from_json(gks::json::parse(*frame));
      if (grant.job_name == shared_->job_name) {
        std::lock_guard lock(shared_->mu);
        shared_->links[index_].granted.insert(grant.lease_id);
      }
    }
    return frame;
  }

  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<gks::dist::Connection> inner_;
  std::shared_ptr<Shared> shared_;
  std::size_t index_;
};

class FleetWatch::WatchedTransport : public gks::dist::Transport {
 public:
  WatchedTransport(gks::dist::Transport& inner, std::shared_ptr<Shared> shared,
                   std::size_t index)
      : inner_(inner), shared_(std::move(shared)), index_(index) {}

  std::unique_ptr<gks::dist::Listener> listen(
      const std::string& address) override {
    return inner_.listen(address);
  }
  std::unique_ptr<gks::dist::Connection> connect(const std::string& address,
                                                 double timeout_s) override {
    return std::make_unique<WatchedConnection>(
        inner_.connect(address, timeout_s), shared_, index_);
  }
  double now_s() const override { return inner_.now_s(); }
  void sleep_s(double seconds) const override { inner_.sleep_s(seconds); }

 private:
  gks::dist::Transport& inner_;
  std::shared_ptr<Shared> shared_;
  std::size_t index_;
};

FleetWatch::FleetWatch(std::size_t workers, std::string job_name) {
  shared_->job_name = std::move(job_name);
  shared_->links.resize(workers);
}

std::unique_ptr<gks::dist::Transport> FleetWatch::transport_for(
    std::size_t index, gks::dist::Transport& inner) {
  return std::make_unique<WatchedTransport>(inner, shared_, index);
}

std::size_t FleetWatch::wait_welcomed(double timeout_s) const {
  std::unique_lock lock(shared_->mu);
  shared_->welcomed_cv.wait_for(
      lock, std::chrono::duration<double>(timeout_s),
      [&] { return shared_->welcomed == shared_->links.size(); });
  return shared_->welcomed;
}

std::vector<std::uint64_t> FleetWatch::retired() const {
  std::lock_guard lock(shared_->mu);
  std::vector<std::uint64_t> out;
  for (const Link& link : shared_->links) out.push_back(link.retired);
  return out;
}

}  // namespace perfbench
