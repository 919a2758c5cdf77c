#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <unordered_map>
#include <utility>

#include "support/json.h"

namespace perfbench {

namespace {

thread_local std::uint64_t t_current_span = 0;

double steady_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer() : epoch_(steady_s()) {}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(bool on, std::uint64_t run_id) {
  run_ = run_id;
  enabled_.store(on, std::memory_order_relaxed);
}

double Tracer::now_s() const { return steady_s() - epoch_; }

void Tracer::record(const SpanRecord& span) {
  std::lock_guard lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

Span::Span(const char* name) : Span(name, t_current_span) {}

Span::Span(const char* name, std::uint64_t parent) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  rec_.id = tracer.next_id();
  rec_.parent = parent;
  rec_.name = name;
  rec_.run = tracer.run_id();
  prev_ = t_current_span;
  t_current_span = rec_.id;
  rec_.start_s = tracer.now_s();
}

Span::~Span() {
  if (rec_.id == 0) return;
  Tracer& tracer = Tracer::global();
  rec_.end_s = tracer.now_s();
  t_current_span = prev_;
  tracer.record(rec_);
}

std::map<std::string, double> layer_self_seconds(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_s, s.end_s);
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    double covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = s.start_s, hi = s.start_s;  // current merged run
      for (auto [b, e] : iv) {
        b = std::max(b, s.start_s);
        e = std::min(e, s.end_s);
        if (e <= b) continue;
        if (b > hi) {
          covered += hi - lo;
          lo = b;
          hi = e;
        } else {
          hi = std::max(hi, e);
        }
      }
      covered += hi - lo;
    }
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] += std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return self;
}

void write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  for (const SpanRecord& s : spans) {
    gks::json::Writer w;
    w.begin_object()
        .key("name").value(s.name)
        .key("id").value(s.id)
        .key("parent").value(s.parent)
        .key("run").value(s.run)
        .key("start_s").value(s.start_s)
        .key("end_s").value(s.end_s)
        .end_object();
    out << w.str() << '\n';
  }
}

class TracedTransport::TracedConnection : public gks::dist::Connection {
 public:
  TracedConnection(std::unique_ptr<gks::dist::Connection> inner,
                   std::shared_ptr<Shared> shared)
      : inner_(std::move(inner)), shared_(std::move(shared)) {}

  void send(const std::string& frame) override {
    Span span("dist.send");
    // Timed from before the send: on a loaded host the woken peer often
    // runs and replies before send() returns.
    const double start = Tracer::global().now_s();
    inner_->send(frame);
    const double end = Tracer::global().now_s();
    std::lock_guard lock(shared_->mu);
    shared_->stats.send_block_s += end - start;
    ++shared_->stats.frames_sent;
    shared_->stats.bytes_sent += frame.size();
    last_send_s_ = start;
  }

  std::optional<std::string> recv(double timeout_s) override {
    Span span("dist.recv");
    const double t0 = Tracer::global().now_s();
    std::optional<std::string> frame;
    try {
      frame = inner_->recv(timeout_s);
    } catch (...) {
      note_recv(t0, nullptr);
      throw;
    }
    note_recv(t0, frame ? &*frame : nullptr);
    return frame;
  }

  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  void note_recv(double t0, const std::string* frame) {
    const double now = Tracer::global().now_s();
    std::lock_guard lock(shared_->mu);
    shared_->stats.recv_block_s += now - t0;
    if (frame == nullptr) return;
    ++shared_->stats.frames_received;
    shared_->stats.bytes_received += frame->size();
    if (last_send_s_) {
      shared_->stats.rtt_s.push_back(now - *last_send_s_);
      last_send_s_.reset();
    }
  }

  std::unique_ptr<gks::dist::Connection> inner_;
  std::shared_ptr<Shared> shared_;
  std::optional<double> last_send_s_;  ///< guarded by shared_->mu
};

TracedTransport::TracedTransport(gks::dist::Transport& inner)
    : inner_(inner) {}

std::unique_ptr<gks::dist::Listener> TracedTransport::listen(
    const std::string& address) {
  return inner_.listen(address);
}

std::unique_ptr<gks::dist::Connection> TracedTransport::connect(
    const std::string& address, double timeout_s) {
  Span span("dist.connect");
  auto conn = inner_.connect(address, timeout_s);
  {
    std::lock_guard lock(shared_->mu);
    ++shared_->stats.connects;
  }
  return std::make_unique<TracedConnection>(std::move(conn), shared_);
}

double TracedTransport::now_s() const { return inner_.now_s(); }

void TracedTransport::sleep_s(double seconds) const { inner_.sleep_s(seconds); }

LinkStats TracedTransport::stats() const {
  std::lock_guard lock(shared_->mu);
  return shared_->stats;
}

}  // namespace perfbench
