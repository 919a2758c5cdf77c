#pragma once
// What the benchmark learns by watching each worker's link from
// outside: when the coordinator accepted the worker's hello, and how
// many leases of one job (the repetition's big job) the worker retired.
// Each worker dials through its own decorator, so frames are attributed
// to workers without reading any state inside the library.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "dist/transport.h"

namespace perfbench {

class FleetWatch {
 public:
  /// Watches `workers` links; leases are counted for `job_name` only.
  FleetWatch(std::size_t workers, std::string job_name);

  /// The decorator worker `index` dials through. `inner` must outlive
  /// it and every connection dialed through it.
  std::unique_ptr<gks::dist::Transport> transport_for(
      std::size_t index, gks::dist::Transport& inner);

  /// Blocks until every worker has received a welcome (its hello was
  /// accepted) or `timeout_s` passes; returns how many have.
  std::size_t wait_welcomed(double timeout_s) const;

  /// Leases of the watched job each worker retired, by worker index.
  std::vector<std::uint64_t> retired() const;

 private:
  struct Link {
    bool welcomed = false;
    std::set<std::uint64_t> granted;  ///< watched job's leases not retired
    std::uint64_t retired = 0;
  };
  struct Shared {
    std::string job_name;
    mutable std::mutex mu;
    mutable std::condition_variable welcomed_cv;
    std::size_t welcomed = 0;
    std::vector<Link> links;
  };
  class WatchedTransport;
  class WatchedConnection;
  std::shared_ptr<Shared> shared_ = std::make_shared<Shared>();
};

}  // namespace perfbench
