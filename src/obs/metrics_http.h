#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <thread>

namespace gks::obs {

/// Minimal Prometheus scrape endpoint: serves GET /metrics (and /)
/// with whatever the renderer returns, over plain HTTP/1.0,
/// one-connection-per-request. It shares the dist tier's address
/// conventions — "host:port" or "[v6]:port", port 0 picks one, and
/// address() returns the resolved form — but speaks raw HTTP on its
/// own socket: the transport's GKF1 message framing cannot carry a
/// scrape, so only the addressing idiom is reused, not the framing.
///
/// The renderer runs on the serving thread; it must be thread-safe
/// (registry snapshots are) and should stay cheap — a scrape blocks
/// the next accept until it finishes.
class MetricsHttpServer {
 public:
  using Renderer = std::function<std::string()>;

  explicit MetricsHttpServer(Renderer render);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Binds and starts serving; throws gks::Error on bind failure.
  void start(const std::string& listen_addr);
  void stop();

  /// Resolved listen address ("127.0.0.1:43210"); empty before start.
  std::string address() const { return address_; }

 private:
  void serve_loop();
  void handle_client(int fd);

  Renderer render_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe to unblock the poll loop
  std::string address_;
  std::thread thread_;
  /// Written by stop(), read by the serve_loop thread.
  std::atomic<bool> running_{false};
};

}  // namespace gks::obs
