#pragma once
// Benchmark-side tracing: an in-memory span recorder and the
// dist::Transport decorator through which the benchmark times the
// distributed tier from outside. Spans are recorded only around the
// benchmark's own calls into the library's public API; nothing inside
// the library is instrumented.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dist/transport.h"

namespace perfbench {

/// One closed span. `parent` is 0 for a root; `run` ties every span of
/// one benchmark run together.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  double start_s = 0;
  double end_s = 0;
  std::uint64_t run = 0;
};

/// Process-wide span sink. Disabled by default: a disabled tracer makes
/// Span construction a single relaxed load.
class Tracer {
 public:
  static Tracer& global();

  void enable(bool on, std::uint64_t run_id);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Seconds since the tracer was created (steady clock).
  double now_s() const;

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const SpanRecord& span);
  std::uint64_t run_id() const { return run_; }
  std::vector<SpanRecord> spans() const;

 private:
  Tracer();
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::uint64_t run_ = 0;
  double epoch_ = 0;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span. The parent is the innermost open span of the calling
/// thread unless one is given (a thread's entry span names the span
/// that spawned it).
class Span {
 public:
  explicit Span(const char* name);
  Span(const char* name, std::uint64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// 0 when tracing is off.
  std::uint64_t id() const { return rec_.id; }

 private:
  SpanRecord rec_;
  std::uint64_t prev_ = 0;
};

/// Self time per layer: each span's duration minus the union of its
/// children's intervals, summed over spans whose name starts with
/// "<layer>.". Keyed by layer.
std::map<std::string, double> layer_self_seconds(
    const std::vector<SpanRecord>& spans);

/// Writes spans as JSON lines (name, id, parent, run, start_s, end_s).
void write_spans(const std::string& path, const std::vector<SpanRecord>& spans);

/// Frame counters of every connection dialed through a TracedTransport.
struct LinkStats {
  std::uint64_t connects = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  /// Seconds spent inside send() / recv(), summed over connections.
  double send_block_s = 0;
  double recv_block_s = 0;
  /// Start of a send → next received frame on the same connection: one
  /// protocol round trip as the worker sees it.
  std::vector<double> rtt_s;
};

/// dist::Transport decorator: every connect/send/recv through it runs
/// inside a span ("dist.connect", "dist.send", "dist.recv") and is
/// counted into LinkStats. Listening is passed through untraced — the
/// benchmark wraps only the workers' side.
class TracedTransport : public gks::dist::Transport {
 public:
  /// `inner` must outlive this transport and every connection dialed
  /// through it.
  explicit TracedTransport(gks::dist::Transport& inner);

  std::unique_ptr<gks::dist::Listener> listen(
      const std::string& address) override;
  std::unique_ptr<gks::dist::Connection> connect(const std::string& address,
                                                 double timeout_s) override;
  double now_s() const override;
  void sleep_s(double seconds) const override;

  LinkStats stats() const;

 private:
  struct Shared {
    mutable std::mutex mu;
    LinkStats stats;
  };
  class TracedConnection;
  gks::dist::Transport& inner_;
  std::shared_ptr<Shared> shared_ = std::make_shared<Shared>();
};

}  // namespace perfbench
