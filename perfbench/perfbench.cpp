// The repo benchmark: drives the production stack — hash lane kernels,
// the TargetIndex gate, core::MultiSweeper, service::JobManager (with
// its scheduler and JobStore journal) and, on cluster workloads,
// dist::Coordinator + WorkerDaemon over TCP loopback — from one
// process, checks every output, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). README.md in this
// directory maps layers to metrics to workloads.
//
// Usage:
//   gks_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--work-dir DIR] [--trace-out FILE] [--source-rev REV]
//                 [--tiny]
//
// Every layer is measured from outside: the benchmark times its own
// calls into public functions and reads public stats accessors. The
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Exit codes: 0 ok, 1 wrong output, 2 usage, 3 workload
// validity check failed (no result printed).

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/coordinator.h"
#include "dist/fault_transport.h"
#include "dist/tcp_transport.h"
#include "dist/worker_daemon.h"
#include "hash/lane_scan.h"
#include "hash/md5.h"
#include "hash/sha1.h"
#include "hash/simd/dispatch.h"
#include "hash/target_index.h"
#include "keyspace/codec.h"
#include "keyspace/space.h"
#include "obs/metrics.h"
#include "service/job_manager.h"
#include "support/crc32.h"
#include "support/json.h"
#include "support/rng.h"

#include "fleet_watch.h"
#include "trace.h"

namespace {

using namespace gks;
using perfbench::FleetWatch;
using perfbench::LinkStats;
using perfbench::Span;
using perfbench::TracedTransport;
using perfbench::Tracer;

constexpr std::size_t kPrefixChars = 4;  // chars varied inside one tail
constexpr std::size_t kMinProbes = 100;  // >= 10 samples beyond p90
constexpr std::uint64_t kMinLeasesPerWorker = 10;
constexpr double kJobTimeoutS = 90;
constexpr std::size_t kSetupSamples = 201;
constexpr std::size_t kSetupBatch = 25;  // set-up trials after one rep
constexpr double kSetupTrialBudgetS = 4;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set of this process image. VmHWM, not ru_maxrss:
/// the latter keeps the high-water mark of the process that forked us
/// (it survives exec), so a launcher's own footprint would leak in.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// A workload validity check failed: the run is rejected, not reported.
struct InvalidWorkload : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------
// Workloads and their seeded inputs

struct Workload {
  std::string name;
  hash::Algorithm algo = hash::Algorithm::kMd5;
  unsigned len = 6;             ///< fixed key length, lower-case charset
  std::size_t digests = 2;      ///< targets in the big job
  std::size_t planted = 1;      ///< of which have a key in the space
  bool cluster = false;         ///< Coordinator + WorkerDaemons over TCP
  bool journal = false;
  std::size_t journal_batch = 1;  ///< records per group commit
  u128 max_lease{u128(1) << 22};
  double probe_rate = 25;       ///< probe jobs per second, open loop
  double fault_loss = 0;        ///< per-direction frame drop on workers
};

Workload workload_named(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "crack_single") {
    w.len = tiny ? 5 : 6;
  } else if (name == "audit_sha1") {
    w.algo = hash::Algorithm::kSha1;
    w.len = tiny ? 4 : 5;
    w.digests = std::size_t{1} << 19;
    w.planted = 256;
    w.journal = true;
  } else if (name == "cluster_fine") {
    w.len = tiny ? 5 : 6;
    w.cluster = true;
    w.journal = true;
    w.journal_batch = 32;
    // About 37 of the big job's leases per worker on average: at 2^22
    // (about 18) lease sizing left some worker fewer than 10.
    w.max_lease = tiny ? u128(1) << 16 : u128(1) << 21;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

/// The fixed reference job the traced run pushes through the dist tier
/// when the workload itself has no dist traffic, and (with loss) the
/// lossy-link step every traced run includes.
Workload dist_reference(bool lossy, bool tiny) {
  Workload w;
  w.name = lossy ? "dist_lossy_ref" : "dist_ref";
  w.len = tiny ? 4 : 5;
  w.cluster = true;
  // The lossy step leases finer, so a run has frames enough to lose a
  // few: about 800 at 2^16 against about 200 at 2^18.
  const unsigned lease_bits = (tiny ? 14 : 18) - (lossy ? 2 : 0);
  w.max_lease = u128(1) << lease_bits;
  w.probe_rate = 0;
  w.fault_loss = lossy ? 0.01 : 0;
  return w;
}

std::string digest_hex(hash::Algorithm algo, const std::string& key) {
  return algo == hash::Algorithm::kSha1 ? hash::Sha1::digest(key).to_hex()
                                        : hash::Md5::digest(key).to_hex();
}

std::string random_key(SplitMix64& rng, unsigned len) {
  std::string key(len, 'a');
  for (char& c : key) c = static_cast<char>('a' + rng.below(26));
  return key;
}

/// A digest-sized random hex string: no key of the space hashes to it
/// (the chance is the space size over 2^128 or 2^160).
std::string unfindable_hex(SplitMix64& rng, hash::Algorithm algo) {
  static const char* kHex = "0123456789abcdef";
  std::string hex(algo == hash::Algorithm::kSha1 ? 40 : 32, '0');
  for (char& c : hex) c = kHex[rng.below(16)];
  return hex;
}

struct Inputs {
  Workload w;
  std::uint64_t seed = 0;
  std::uint64_t target_seed = 0;
  std::uint64_t probe_seed = 0;
  std::uint64_t fault_seed = 0;
  double probe_phase_s = 0;
  core::MultiCrackRequest request;
  std::map<std::string, std::string> planted;  ///< digest hex → key
  std::set<std::string> unfindable;
  std::uint32_t target_crc = 0;
  u128 space{0};
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  in.w = w;
  in.seed = seed;
  SplitMix64 master(seed);
  in.target_seed = master();
  in.probe_seed = master();
  in.fault_seed = master();
  in.probe_phase_s =
      w.probe_rate > 0 ? SplitMix64(master()).uniform01() / w.probe_rate : 0;

  SplitMix64 rng(in.target_seed);
  in.request.algorithm = w.algo;
  in.request.charset = keyspace::Charset::lower();
  in.request.min_length = w.len;
  in.request.max_length = w.len;
  std::set<std::string> keys;
  while (in.planted.size() < w.planted) {
    const std::string key = random_key(rng, w.len);
    if (!keys.insert(key).second) continue;
    in.planted.emplace(digest_hex(w.algo, key), key);
  }
  while (in.unfindable.size() < w.digests - w.planted) {
    std::string hex = unfindable_hex(rng, w.algo);
    if (!in.planted.count(hex)) in.unfindable.insert(std::move(hex));
  }
  // Request order is itself seeded: planted digests are interleaved
  // with the unfindable ones, not all at the front.
  auto& hexes = in.request.target_hexes;
  for (const auto& [hex, key] : in.planted) hexes.push_back(hex);
  for (const auto& hex : in.unfindable) hexes.push_back(hex);
  for (std::size_t i = hexes.size(); i > 1; --i) {
    std::swap(hexes[i - 1], hexes[rng.below(i)]);
  }
  for (const auto& hex : hexes) in.target_crc = crc32(hex, in.target_crc);
  in.space = keyspace::space_size(26, w.len, w.len);
  return in;
}

/// Generator-relative id of a key of the workload's space (the id the
/// sweeper scans it at).
u128 relative_id(const Inputs& in, const std::string& key) {
  const keyspace::KeyCodec codec(in.request.charset,
                                 keyspace::DigitOrder::kPrefixFastest);
  return codec.encode(key) - keyspace::first_id_of_length(26, in.w.len);
}

// ---------------------------------------------------------------------
// Open-loop probe stream: small single-key jobs submitted on a fixed
// schedule, each timed from when it was due to when it went terminal.

class ProbeStream {
 public:
  ProbeStream(service::JobManager& manager, const Inputs& in, int rep)
      : manager_(manager), in_(in), rep_(rep), rng_(in.probe_seed + rep) {}
  ProbeStream(const ProbeStream&) = delete;
  ProbeStream& operator=(const ProbeStream&) = delete;
  ~ProbeStream() { stop(0); }

  void start(double t0) {
    t0_ = t0;
    generator_ = std::thread([this] { generate(); });
    collector_ = std::thread([this] { collect(); });
  }

  /// Stops sending, waits up to `timeout_s` for outstanding probes,
  /// joins. Probes still running then count as failed.
  void stop(double timeout_s) {
    if (!generator_.joinable()) return;
    deadline_.store(now_s() + timeout_s);
    sending_.store(false);
    generator_.join();
    collector_.join();
  }

  std::vector<double> latencies;
  double max_late_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  struct Probe {
    service::JobId id = 0;
    std::string digest;
    std::string key;
    double due = 0;
  };

  void generate() {
    for (std::uint64_t i = 0; sending_.load(); ++i) {
      const double due = t0_ + in_.probe_phase_s +
                         static_cast<double>(i) / in_.w.probe_rate;
      while (sending_.load() && now_s() < due) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(0.005, std::max(0.0, due - now_s()))));
      }
      if (!sending_.load()) break;
      Probe p;
      p.key = random_key(rng_, 4);
      p.digest = hash::Md5::digest(p.key).to_hex();
      p.due = due;
      service::JobSpec spec;
      spec.name = "probe-" + std::to_string(rep_) + "-" + std::to_string(i);
      spec.request.algorithm = hash::Algorithm::kMd5;
      spec.request.charset = keyspace::Charset::lower();
      spec.request.min_length = 4;
      spec.request.max_length = 4;
      spec.request.target_hexes = {p.digest};
      {
        Span span("jobs.submit");
        p.id = manager_.submit(std::move(spec));
      }
      std::lock_guard lock(mu_);
      max_late_s = std::max(max_late_s, now_s() - due);
      pending_.push_back(std::move(p));
    }
    generating_done_.store(true);
  }

  void collect() {
    for (;;) {
      std::vector<Probe> open;
      {
        std::lock_guard lock(mu_);
        open.swap(pending_);
      }
      std::vector<Probe> still;
      for (Probe& p : open) {
        if (manager_.wait(p.id, 0)) {
          finish(p, now_s());
        } else {
          still.push_back(std::move(p));
        }
      }
      const bool done_sending = generating_done_.load();
      if (done_sending && still.empty()) {
        std::lock_guard lock(mu_);
        if (pending_.empty()) return;
      }
      if (done_sending && now_s() > deadline_.load()) {
        for (Probe& p : still) fail(p);
        std::lock_guard lock(mu_);
        for (Probe& p : pending_) fail(p);
        pending_.clear();
        return;
      }
      {
        std::lock_guard lock(mu_);
        for (Probe& p : still) pending_.push_back(std::move(p));
      }
      // Blocks until some job goes terminal (or 2 ms pass), so a
      // completion is seen within microseconds without busy polling.
      if (!still.empty()) manager_.wait(still.front().id, 0.002);
      else std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void finish(const Probe& p, double done_at) {
    ++attempted;
    service::JobSnapshot snap;
    {
      Span span("jobs.status");
      snap = manager_.status(p.id);
    }
    const bool ok = snap.state == service::JobState::kDone &&
                    snap.found.size() == 1 &&
                    snap.found[0].first == p.digest &&
                    snap.found[0].second == p.key;
    if (!ok) {
      ++failed;
      return;
    }
    latencies.push_back(done_at - p.due);
  }

  void fail(const Probe&) {
    ++attempted;
    ++failed;
  }

  service::JobManager& manager_;
  const Inputs& in_;
  int rep_;
  SplitMix64 rng_;
  double t0_ = 0;
  std::atomic<bool> sending_{true};
  std::atomic<bool> generating_done_{false};
  std::atomic<double> deadline_{0};
  std::mutex mu_;
  std::vector<Probe> pending_;
  std::thread generator_;
  std::thread collector_;
};

// ---------------------------------------------------------------------
// One repetition: set the stack up, run the big job (plus probes) to a
// terminal state, check everything, tear down.

struct RepResult {
  double setup_s = 0;
  double submit_s = 0;
  double sweep_s = 0;
  double cpu_s = 0;
  double keys_per_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> probe_latency_s;
  double probe_late_s = 0;
  service::JobSnapshot snap;
  std::vector<dist::WorkerDaemon::Stats> workers;
  /// Leases of the big job (probe jobs' leases excluded) each worker
  /// retired, by worker index.
  std::vector<std::uint64_t> big_leases;
  dist::Coordinator::Stats coord;
  LinkStats link;
  std::uint64_t fault_dropped = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_records = 0;
  double sweep_yields = 0;
  /// Single-thread warm scan rate measured right after this repetition.
  double base_rate = 0;
};

struct JournalFiles {
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
};

JournalFiles journal_files(const std::string& path) {
  JournalFiles out;
  for (const std::string& seg : service::JobStore::segment_paths(path)) {
    std::error_code ec;
    out.bytes += std::filesystem::file_size(seg, ec);
    std::ifstream in(seg);
    std::string line;
    while (std::getline(in, line)) ++out.records;
  }
  return out;
}

void remove_journal(const std::string& path) {
  for (const std::string& seg : service::JobStore::segment_paths(path)) {
    std::filesystem::remove(seg);
  }
  std::filesystem::remove(path + ".quarantine");
}

/// The cluster's worker daemons and their threads. Every daemon is
/// constructed before any thread starts, and a thread holds its
/// daemon's pointer, never an index into a vector that may still grow.
/// Destruction stops and joins them, on exception paths too. Each
/// daemon dials through its own link of `watch`.
struct Fleet {
  std::unique_ptr<FleetWatch> watch;
  std::vector<std::unique_ptr<dist::Transport>> links;
  std::vector<std::unique_ptr<dist::WorkerDaemon>> daemons;
  std::vector<std::thread> threads;
  std::mutex mu;
  std::vector<std::string> errors;  ///< exceptions escaping run(), by mu

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { stop(); }

  void start(const std::string& addr, std::uint64_t parent_span) {
    for (auto& d : daemons) {
      threads.emplace_back([this, daemon = d.get(), addr, parent_span] {
        Span span("dist.worker_run", parent_span);
        try {
          daemon->run(addr);
        } catch (const std::exception& e) {
          std::lock_guard lock(mu);
          errors.push_back(e.what());
        }
      });
    }
  }

  void stop() {
    for (auto& d : daemons) d->stop();
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

class Bench {
 public:
  Bench(std::string work_dir, bool traced)
      : work_dir_(std::move(work_dir)), traced_(traced) {}

  /// One repetition. `setup_only` stops after set-up (the job is
  /// cancelled and the stack torn down): the extra set-up samples that
  /// steady setup_s.
  RepResult rep(const Inputs& in, int rep_index, bool setup_only = false) {
    // Hand the previous repetition's freed heap back to the OS, so
    // peak_rss_mb measures one repetition rather than how fragmented
    // the allocator got over however many ran before it.
    malloc_trim(0);
    Span rep_span("bench.rep");
    RepResult r;
    const Workload& w = in.w;
    const unsigned n = nproc();
    const std::string journal =
        w.journal ? work_dir_ + "/journal-" + w.name + "-" +
                        std::to_string(getpid()) + ".jsonl"
                  : std::string();
    if (!journal.empty()) remove_journal(journal);
    const obs::RegistrySnapshot reg_before = obs::Registry::global().snapshot();
    const std::string big_name = "big-" + std::to_string(rep_index);

    const double t_build = now_s();
    service::JobServiceConfig cfg;
    cfg.workers = n;
    cfg.local_scan = !w.cluster;
    cfg.journal_path = journal;
    cfg.journal_flush.every_records = w.journal_batch;
    std::unique_ptr<service::JobManager> manager;
    {
      Span span("jobs.manager");
      manager = std::make_unique<service::JobManager>(cfg);
    }

    dist::TcpTransport tcp;
    std::unique_ptr<dist::FaultInjectingTransport> faulty;
    std::unique_ptr<TracedTransport> traced;
    std::unique_ptr<dist::Coordinator> coordinator;
    if (w.cluster) {
      dist::CoordinatorConfig ccfg;
      ccfg.max_lease = w.max_lease;
      // Workers connect before the job arrives, as they would to a
      // running coordinator; polling for work every 10 ms (not 0.2 s)
      // keeps the first leases from lagging the submit.
      ccfg.idle_retry_s = 0.01;
      if (w.fault_loss > 0) {
        // The recovery knobs bench_dispatch's lossy rows use: short
        // leases and recv timeouts so loss costs seconds, not tens.
        ccfg.lease_s = 1.5;
        ccfg.heartbeat_s = 0.25;
        ccfg.reap_interval_s = 0.1;
      }
      coordinator = std::make_unique<dist::Coordinator>(*manager, tcp, ccfg);
      Span span("dist.coordinator_start");
      coordinator->start("127.0.0.1:0");
    }

    Fleet fleet;
    if (w.cluster) {
      dist::Transport* worker_side = &tcp;
      if (w.fault_loss > 0) {
        dist::FaultPlan plan;
        plan.send.drop = w.fault_loss;
        plan.recv.drop = w.fault_loss;
        faulty = std::make_unique<dist::FaultInjectingTransport>(
            tcp, plan, in.fault_seed + rep_index);
        worker_side = faulty.get();
      }
      if (traced_) {
        traced = std::make_unique<TracedTransport>(*worker_side);
        worker_side = traced.get();
      }
      fleet.watch = std::make_unique<FleetWatch>(n, big_name);
      for (unsigned i = 0; i < n; ++i) {
        dist::WorkerConfig wcfg;
        wcfg.name = "w";
        wcfg.name += std::to_string(i);
        wcfg.threads = 1;
        if (w.fault_loss > 0) {
          wcfg.recv_timeout_s = 1.0;
          wcfg.reconnect_attempts = 100;
          wcfg.reconnect_backoff_s = 0.05;
          wcfg.reconnect_backoff_max_s = 0.5;
          wcfg.backoff_seed = in.fault_seed + i + 1;
        }
        fleet.links.push_back(fleet.watch->transport_for(i, *worker_side));
        fleet.daemons.push_back(
            std::make_unique<dist::WorkerDaemon>(*fleet.links.back(), wcfg));
      }
      fleet.start(coordinator->address(), rep_span.id());
      // Blocks until each worker has been welcomed: woken by the welcome
      // frame itself, so the wait adds no polling granularity.
      const std::size_t hellos = fleet.watch->wait_welcomed(10);
      if (hellos < n) {
        ++r.attempted;
        fail(r, std::to_string(hellos) + " of " + std::to_string(n) +
                    " workers said hello");
      }
    }

    service::JobSpec spec;
    spec.name = big_name;
    spec.request = in.request;
    const double cpu0 = cpu_s();
    const double t_submit = now_s();
    service::JobId id = 0;
    {
      Span span("jobs.submit");
      id = manager->submit(std::move(spec));
    }
    const double t_submitted = now_s();
    r.submit_s = t_submitted - t_submit;
    r.setup_s = t_submitted - t_build;

    std::unique_ptr<ProbeStream> probes;
    if (w.probe_rate > 0 && !setup_only) {
      probes = std::make_unique<ProbeStream>(*manager, in, rep_index);
      probes->start(t_submitted);
    }

    bool terminal = false;
    if (setup_only) {
      manager->cancel(id);
    } else {
      {
        Span span("jobs.wait");
        terminal = manager->wait(id, kJobTimeoutS);
      }
      const double t_done = now_s();
      r.cpu_s = cpu_s() - cpu0;
      r.sweep_s = t_done - t_submit;
      r.keys_per_s = in.space.to_double() / r.sweep_s;
      if (probes) {
        probes->stop(20);
        r.probe_latency_s = probes->latencies;
        r.probe_late_s = probes->max_late_s;
        r.attempted += probes->attempted;
        r.failed += probes->failed;
        if (probes->failed > 0) {
          r.failures.push_back(std::to_string(probes->failed) +
                               " probe(s) unfinished or wrong");
        }
      }
      {
        Span span("jobs.status");
        r.snap = manager->status(id);
      }
    }

    if (w.cluster) {
      fleet.stop();
      for (const std::string& e : fleet.errors) {
        ++r.attempted;
        fail(r, "worker: " + e);
      }
      for (auto& d : fleet.daemons) r.workers.push_back(d->stats());
      r.big_leases = fleet.watch->retired();
      r.coord = coordinator->stats();
      {
        Span span("dist.coordinator_stop");
        coordinator->stop();
      }
      if (traced) r.link = traced->stats();
      if (faulty) r.fault_dropped = faulty->stats().dropped;
    }
    {
      Span span("jobs.manager");
      coordinator.reset();
      manager.reset();
    }
    r.sweep_yields = static_cast<double>(
        obs::diff(obs::Registry::global().snapshot(), reg_before)
            .counter_or("gks_sweep_yields_total"));
    if (setup_only) {
      if (!journal.empty()) remove_journal(journal);
      return r;
    }

    check_big_job(in, r, terminal);
    if (!journal.empty()) {
      const JournalFiles jf = journal_files(journal);
      r.journal_bytes = jf.bytes;
      r.journal_records = jf.records;
      if (w.name == "audit_sha1") check_replay(journal, r);
      remove_journal(journal);
    }
    return r;
  }

 private:
  static void fail(RepResult& r, std::string why) {
    ++r.failed;
    if (r.failures.size() < 8) r.failures.push_back(std::move(why));
  }

  /// Every planted key recovered with its exact preimage, no
  /// unfindable digest reported, the whole space covered.
  static void check_big_job(const Inputs& in, RepResult& r, bool terminal) {
    std::map<std::string, std::string> found(r.snap.found.begin(),
                                             r.snap.found.end());
    ++r.attempted;
    if (!terminal || r.snap.state != service::JobState::kDone ||
        r.snap.scanned != in.space) {
      fail(r, "coverage: state " +
                  std::string(service::job_state_name(r.snap.state)) +
                  ", scanned " + r.snap.scanned.to_string() + " of " +
                  in.space.to_string());
    }
    for (const auto& [hex, key] : in.planted) {
      ++r.attempted;
      const auto it = found.find(hex);
      if (it == found.end() || it->second != key) {
        fail(r, "planted key '" + key + "' not recovered");
      }
    }
    for (const auto& hex : in.unfindable) {
      ++r.attempted;
      if (found.count(hex)) fail(r, "unfindable digest " + hex + " reported");
    }
  }

  /// Replaying the journal must give the same found set.
  static void check_replay(const std::string& journal, RepResult& r) {
    ++r.attempted;
    const auto jobs = service::JobStore::load(journal);
    std::set<std::pair<std::string, std::string>> replayed;
    for (const auto& job : jobs) {
      if (job.spec.name == r.snap.name) {
        replayed.insert(job.found.begin(), job.found.end());
      }
    }
    const std::set<std::pair<std::string, std::string>> live(
        r.snap.found.begin(), r.snap.found.end());
    if (replayed != live) {
      fail(r, "journal replay found " + std::to_string(replayed.size()) +
                  " keys, live job " + std::to_string(live.size()));
    }
  }

  std::string work_dir_;
  bool traced_;
};

// ---------------------------------------------------------------------
// Single-thread warm scan rate: the per-thread "standalone rate" of the
// Table IX ratio, on the same request as the big job.

class WarmRate {
 public:
  explicit WarmRate(const Inputs& in)
      : sweeper_(in.request), interval_(u128(0), warm_interval(in)) {
    sweeper_.calibrate();
    measure();  // builds the interval's per-tail contexts
  }

  static u128 warm_interval(const Inputs& in) {
    const u128 tail = keyspace::space_size(26, kPrefixChars, kPrefixChars);
    const u128 want = tail * u128(in.w.digests > 1024 ? 2 : 16);
    return std::min(want, in.space);
  }

  /// Median rate of three scans of the interval, keys/s.
  double measure() {
    std::vector<double> rates;
    std::vector<core::SweepHit> hits;
    for (int i = 0; i < 3; ++i) {
      hits.clear();
      const double t0 = now_s();
      const u128 tested = sweeper_.scan(interval_, hits);
      rates.push_back(tested.to_double() / (now_s() - t0));
    }
    return median(rates);
  }

 private:
  core::MultiSweeper sweeper_;
  keyspace::Interval interval_;
};

// ---------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string read_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string fingerprint_json(const std::string& source_rev) {
  // The lane width dispatch chose: calibrate a sweeper on the canonical
  // one-target MD5 request and read the gauge it publishes.
  core::MultiCrackRequest req;
  req.target_hexes = {hash::Md5::digest("fingerprint").to_hex()};
  req.charset = keyspace::Charset::lower();
  req.min_length = req.max_length = 6;
  core::MultiSweeper(req).calibrate();
  const auto width = static_cast<unsigned>(
      obs::Registry::global().snapshot().gauge_or("gks_kernel_lane_width"));
  const hash::simd::ScanKernels* k = hash::simd::kernels_for_width(width);
  json::Writer w;
  w.begin_object()
      .key("cpu").value(read_cpu_model())
      .key("nproc").value(static_cast<std::uint64_t>(nproc()))
      .key("compiler").value(GKS_BENCH_COMPILER)
      .key("flags").value(GKS_BENCH_FLAGS)
      .key("lane_isa").value(k != nullptr ? k->isa : "scalar")
      .key("lane_width").value(static_cast<std::uint64_t>(width))
      .key("best_isa").value(hash::simd::best_kernels().isa)
      .key("source_rev").value(source_rev)
      .end_object();
  return w.str();
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %-20.10g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  json::Writer w;
  w.begin_object()
      .key("correct").value(correct)
      .key("attempted").value(attempted)
      .key("failed").value(failed)
      .key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object()
        .key("value").value(m.value)
        .key("unit").value(m.unit)
        .end_object();
  }
  w.end_object().end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Per-layer probes of the traced run

struct LayerProbe {
  double md5_kps = 0, sha1_kps = 0;
  double index_build_s = 0;
  double gate_per_mkey = 0, fp_per_mkey = 0, useful_ratio = 0;
  double ctor_s = 0, calibrate_s = 0, cold_tail_s = 0, warm_tail_s = 0;
  double warm_kps = 0;
  double lane_width = 0;
};

/// Single-thread lane-kernel rate over whole 26^4-prefix batches of a
/// length-6 key, `seconds` of work.
template <typename Ctx, typename Fn>
double kernel_rate(const Ctx& ctx, bool big_endian, Fn scan, const char* span,
                   double seconds) {
  const keyspace::Charset lower = keyspace::Charset::lower();
  hash::PrefixWord0Iterator it(lower.chars(), kPrefixChars, 6, big_endian);
  const std::uint64_t batch = it.combinations();
  std::uint64_t keys = 0;
  const double t0 = now_s();
  do {
    Span s(span);
    scan(ctx, it, batch);
    keys += batch;
  } while (now_s() - t0 < seconds);
  return static_cast<double>(keys) / (now_s() - t0);
}

/// The index gate geometry the sweeper builds at `count` targets, and
/// how long the public constructor takes (median of three).
std::pair<double, std::string> index_build(std::size_t count,
                                           std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::uint32_t> words(count);
  for (auto& word : words) word = static_cast<std::uint32_t>(rng());
  std::vector<double> times;
  std::string kind;
  for (int i = 0; i < 3; ++i) {
    Span s("index.build");
    const double t0 = now_s();
    const hash::TargetIndex index(words);
    times.push_back(now_s() - t0);
    kind = index.filter_kind();
  }
  return {median(times), kind};
}

LayerProbe probe_layers(const Inputs& in) {
  LayerProbe p;
  {
    const std::string tail = "aa";
    SplitMix64 rng(in.seed);
    const hash::Md5CrackContext md5(
        hash::Md5Digest::from_hex(unfindable_hex(rng, hash::Algorithm::kMd5)),
        tail, 6);
    p.md5_kps = kernel_rate(md5, false, hash::md5_scan_prefixes_lanes,
                            "hash.md5_batch", 0.3);
    const hash::Sha1CrackContext sha1(
        hash::Sha1Digest::from_hex(unfindable_hex(rng, hash::Algorithm::kSha1)),
        tail, 6);
    p.sha1_kps = kernel_rate(sha1, true, hash::sha1_scan_prefixes_lanes,
                             "hash.sha1_batch", 0.3);
  }
  p.index_build_s = index_build(in.w.digests, in.target_seed).first;

  // Sweep layer: construction, calibration, then per-tail cold (context
  // build + scan) against warm (scan only) on the same intervals.
  const double t_ctor = now_s();
  std::unique_ptr<core::MultiSweeper> sweeper;
  {
    Span s("sweep.ctor");
    sweeper = std::make_unique<core::MultiSweeper>(in.request);
  }
  p.ctor_s = now_s() - t_ctor;
  {
    Span s("sweep.calibrate");
    const double t0 = now_s();
    sweeper->calibrate();
    p.calibrate_s = now_s() - t0;
  }
  // The lane width calibration picked for this request.
  p.lane_width =
      obs::Registry::global().snapshot().gauge_or("gks_kernel_lane_width");
  const u128 tail = keyspace::space_size(26, kPrefixChars, kPrefixChars);
  const std::uint64_t tails = (in.space / tail).to_u64();
  std::vector<core::SweepHit> hits;
  const auto scan = [&](u128 begin, u128 size) {
    Span s("sweep.scan");
    hits.clear();
    const double t0 = now_s();
    sweeper->scan(keyspace::Interval(begin, begin + size), hits);
    return now_s() - t0;
  };
  // Index traffic: a window of tails around the first planted key.
  const std::uint64_t window = std::min<std::uint64_t>(
      tails, in.w.digests > 1024 ? 2 : 32);
  const std::uint64_t planted_tail =
      (relative_id(in, in.planted.begin()->second) / tail).to_u64();
  const std::uint64_t first = std::min(planted_tail, tails - window);
  // Cold/warm tails: the ones just past the window (wrapping), so none
  // was touched before.
  std::vector<double> cold, warm;
  for (std::uint64_t k = 0; k < std::min<std::uint64_t>(3, tails - window);
       ++k) {
    const u128 begin = tail * u128((first + window + k) % tails);
    cold.push_back(scan(begin, tail));
    warm.push_back(scan(begin, tail));
  }
  if (cold.empty()) {  // a one-tail space: its only tail is the window
    cold.push_back(scan(u128(0), tail));
    warm.push_back(scan(u128(0), tail));
  }
  p.cold_tail_s = median(cold);
  p.warm_tail_s = median(warm);
  p.warm_kps = tail.to_double() / p.warm_tail_s;

  const core::SweepFilterStats before = sweeper->filter_stats();
  const u128 size = tail * u128(window);
  scan(tail * u128(first), size);
  const core::SweepFilterStats after = sweeper->filter_stats();
  const double mkeys = size.to_double() / 1e6;
  const double gate = static_cast<double>(after.gate_hits - before.gate_hits);
  const double fp =
      static_cast<double>(after.false_positives - before.false_positives);
  p.gate_per_mkey = gate / mkeys;
  p.fp_per_mkey = fp / mkeys;
  p.useful_ratio = gate > 0 ? (gate - fp) / gate : 0;
  return p;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string work_dir = ".";
  std::string trace_out;
  std::string source_rev = "unknown";
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--source-rev") {
      o.source_rev = value();
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  return o;
}

/// The traced run's metrics: layer probes on the workload's request,
/// the jobs and dist layers read off the traced repetitions (or, for a
/// workload without dist traffic, off a reference job pushed through
/// the tier), a lossy-link step, each layer's self time and the
/// tracing overhead.
std::vector<Metric> layer_metrics(
    const Options& opt, const Inputs& in, const std::vector<RepResult>& reps,
    const std::vector<RepResult>& traced_reps,
    const std::function<void(const RepResult&)>& account) {
  Tracer& tracer = Tracer::global();
  tracer.enable(true, opt.seed);
  const LayerProbe lp = probe_layers(in);
  Bench bench(opt.work_dir, true);
  std::vector<RepResult> dist_reps;
  if (in.w.cluster) {
    dist_reps = traced_reps;
  } else {
    dist_reps.push_back(
        bench.rep(make_inputs(dist_reference(false, opt.tiny), opt.seed), 0));
    account(dist_reps.back());
  }
  const RepResult lossy =
      bench.rep(make_inputs(dist_reference(true, opt.tiny), opt.seed), 0);
  account(lossy);
  tracer.enable(false, opt.seed);
  const std::vector<perfbench::SpanRecord> spans = tracer.spans();
  if (!opt.trace_out.empty()) perfbench::write_spans(opt.trace_out, spans);
  std::map<std::string, double> self = perfbench::layer_self_seconds(spans);

  const double threads = nproc();
  std::vector<double> submit, quanta, busy, jbytes, jrecords, yields, tkps;
  for (const RepResult& r : traced_reps) {
    submit.push_back(r.submit_s);
    quanta.push_back(static_cast<double>(r.snap.intervals_issued));
    busy.push_back(r.snap.busy_s / (threads * r.sweep_s));
    jbytes.push_back(static_cast<double>(r.journal_bytes));
    jrecords.push_back(static_cast<double>(r.journal_records));
    yields.push_back(r.sweep_yields);
    tkps.push_back(r.keys_per_s);
  }
  std::vector<double> kps;
  for (const RepResult& r : reps) kps.push_back(r.keys_per_s);

  std::vector<double> leases, per_worker, frames, bytes, block, idle, rtt;
  for (const RepResult& r : dist_reps) {
    // dist.leases* count the big job's leases; frames and bytes per
    // lease divide all link traffic (probe jobs' included) by all leases.
    double big = 0, least = 0;
    for (std::size_t i = 0; i < r.big_leases.size(); ++i) {
      const auto done = static_cast<double>(r.big_leases[i]);
      big += done;
      least = i == 0 ? done : std::min(least, done);
    }
    leases.push_back(big);
    per_worker.push_back(least);
    const double n = std::max(static_cast<double>(r.coord.leases_retired), 1.0);
    frames.push_back(
        static_cast<double>(r.link.frames_sent + r.link.frames_received) / n);
    bytes.push_back(
        static_cast<double>(r.link.bytes_sent + r.link.bytes_received) / n);
    block.push_back(r.link.recv_block_s);
    idle.push_back((r.link.send_block_s + r.link.recv_block_s) /
                   (static_cast<double>(r.workers.size()) * r.sweep_s));
    rtt.insert(rtt.end(), r.link.rtt_s.begin(), r.link.rtt_s.end());
  }
  double reconnects = 0;
  for (const auto& ws : lossy.workers) {
    reconnects += static_cast<double>(ws.reconnects);
  }
  const double quanta_med = median(quanta);

  return {
      {"hash.md5_keys_per_s", lp.md5_kps, "keys/s"},
      {"hash.sha1_keys_per_s", lp.sha1_kps, "keys/s"},
      {"hash.lane_width", lp.lane_width, "lanes"},
      {"index.build_s", lp.index_build_s, "s"},
      {"index.gate_per_mkey", lp.gate_per_mkey, "1/Mkey"},
      {"index.fp_per_mkey", lp.fp_per_mkey, "1/Mkey"},
      {"index.useful_ratio", lp.useful_ratio, "ratio"},
      {"sweep.ctor_s", lp.ctor_s, "s"},
      {"sweep.calibrate_s", lp.calibrate_s, "s"},
      {"sweep.cold_tail_s", lp.cold_tail_s, "s"},
      {"sweep.warm_tail_s", lp.warm_tail_s, "s"},
      {"sweep.context_build_s", lp.cold_tail_s - lp.warm_tail_s, "s"},
      {"sweep.warm_keys_per_s_1t", lp.warm_kps, "keys/s"},
      {"sweep.yields", median(yields), "count"},
      {"jobs.submit_s", median(submit), "s"},
      {"jobs.quanta", quanta_med, "count"},
      {"jobs.keys_per_quantum",
       quanta_med > 0 ? in.space.to_double() / quanta_med : 0, "keys"},
      {"jobs.busy_share", median(busy), "ratio"},
      {"journal.bytes", median(jbytes), "B"},
      {"journal.records", median(jrecords), "count"},
      {"dist.leases", median(leases), "count"},
      {"dist.leases_per_worker", median(per_worker), "count"},
      {"dist.frames_per_lease", median(frames), "frames"},
      {"dist.bytes_per_lease", median(bytes), "B"},
      {"dist.rtt_p50_s", quantile(rtt, 0.5), "s"},
      {"dist.rtt_p90_s", quantile(rtt, 0.9), "s"},
      {"dist.recv_block_s", median(block), "s"},
      {"dist.idle_share", median(idle), "ratio"},
      {"dist.lease_expiries", static_cast<double>(lossy.snap.leases_expired),
       "count"},
      {"dist.reconnects", reconnects, "count"},
      {"fault.dropped", static_cast<double>(lossy.fault_dropped), "count"},
      {"lossy.keys_per_s", lossy.keys_per_s, "keys/s"},
      {"self.hash_s", self["hash"], "s"},
      {"self.index_s", self["index"], "s"},
      {"self.sweep_s", self["sweep"], "s"},
      {"self.jobs_s", self["jobs"], "s"},
      {"self.dist_s", self["dist"], "s"},
      {"self.bench_s", self["bench"], "s"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
      {"trace.keys_per_s", median(tkps), "keys/s"},
      {"trace.overhead", 1.0 - median(tkps) / median(kps), "ratio"},
  };
}

/// Validity: the big job alone must give every worker at least
/// kMinLeasesPerWorker leases (probe jobs' leases do not count).
void check_lease_granularity(const Workload& w, const RepResult& r) {
  const std::uint64_t quanta_floor = kMinLeasesPerWorker * r.big_leases.size();
  if (r.snap.intervals_issued < quanta_floor) {
    throw InvalidWorkload(w.name + ": the big job issued " +
                          std::to_string(r.snap.intervals_issued) +
                          " leases, fewer than " +
                          std::to_string(quanta_floor));
  }
  for (std::size_t i = 0; i < r.big_leases.size(); ++i) {
    if (r.big_leases[i] < kMinLeasesPerWorker) {
      throw InvalidWorkload(
          w.name + ": worker w" + std::to_string(i) + " retired " +
          std::to_string(r.big_leases[i]) + " of the big job's leases, " +
          "fewer than " + std::to_string(kMinLeasesPerWorker));
    }
  }
}

int run(const Options& opt) {
  const Workload w = workload_named(opt.workload, opt.tiny);
  const Inputs in = make_inputs(w, opt.seed);
  const unsigned threads = nproc();

  std::printf("fingerprint %s\n", fingerprint_json(opt.source_rev).c_str());
  {
    json::Writer iw;
    iw.begin_object()
        .key("workload").value(w.name)
        .key("seed").value(in.seed)
        .key("target_seed").value(in.target_seed)
        .key("probe_seed").value(in.probe_seed)
        .key("fault_seed").value(in.fault_seed)
        .key("probe_rate").value(w.probe_rate)
        .key("probe_phase_s").value(in.probe_phase_s)
        .key("space").value(in.space.to_string())
        .key("digests").value(static_cast<std::uint64_t>(w.digests))
        .key("planted").value(static_cast<std::uint64_t>(w.planted))
        .key("first_planted_key").value(in.planted.begin()->second)
        .key("target_crc32").value(static_cast<std::uint64_t>(in.target_crc))
        .key("scan_threads").value(static_cast<std::uint64_t>(threads))
        .key("tiny").value(opt.tiny)
        .end_object();
    std::printf("inputs %s\n", iw.str().c_str());
  }

  // Validity: the audit must exercise the Bloom gate.
  if (w.name == "audit_sha1") {
    const std::string kind = index_build(w.digests, in.target_seed).second;
    if (kind != "bloom") {
      throw InvalidWorkload("audit_sha1: " + std::to_string(w.digests) +
                            " targets leave the gate in " + kind + " mode");
    }
  }

  Tracer& tracer = Tracer::global();
  Bench untraced(opt.work_dir, false);
  Bench traced(opt.work_dir, true);
  WarmRate warm(in);

  // Warm-up: one full repetition (process-lifetime lazy set-up, first
  // calibration, page faults, CPU clock ramp) that is checked but never
  // timed, so the first-run outlier cannot land in a measured run.
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const auto account = [&](const RepResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  };
  int rep_index = 0;
  account(untraced.rep(in, rep_index++));

  std::vector<RepResult> reps, traced_reps;
  std::size_t probe_samples = 0;

  // More set-up samples than full repetitions give: set-up is short
  // next to a sweep, so its median needs extra trials to hold still.
  // They run in batches, one after each repetition and a last one at
  // the end, so they span the same stretch of host conditions as the
  // repetitions; their time does not count against --seconds.
  std::vector<double> setup_trials;
  double trial_s = 0;
  const auto setup_batch = [&](std::size_t count) {
    const double t_batch = now_s();
    for (std::size_t i = 0;
         !opt.trace && i < count &&
         reps.size() + setup_trials.size() < kSetupSamples &&
         trial_s + (now_s() - t_batch) < kSetupTrialBudgetS;
         ++i) {
      setup_trials.push_back(untraced.rep(in, rep_index++, true).setup_s);
    }
    trial_s += now_s() - t_batch;
  };
  const auto more = [&] {
    if (opt.trace) return reps.size() < 2 || traced_reps.size() < 2;
    return reps.size() < 3 ||
           (w.probe_rate > 0 && probe_samples < kMinProbes);
  };
  const double t0 = now_s();
  while ((now_s() - t0 - trial_s < opt.seconds || more()) &&
         now_s() - t0 < 150) {
    // The traced run alternates traced and untraced repetitions; the
    // keys_per_s gap between them is the tracing overhead.
    const bool trace_this = opt.trace && reps.size() > traced_reps.size();
    if (trace_this) tracer.enable(true, opt.seed);
    RepResult r = (trace_this ? traced : untraced).rep(in, rep_index++);
    tracer.enable(false, opt.seed);
    account(r);
    if (w.cluster) check_lease_granularity(w, r);
    r.base_rate = warm.measure();
    std::fprintf(stderr,
                 "[%s] rep %d%s: setup %.6f s, sweep %.3f s, %.1f MKey/s, "
                 "1t %.1f MKey/s, %zu probes, cpu %.2f s\n",
                 w.name.c_str(), rep_index - 1, trace_this ? " (traced)" : "",
                 r.setup_s, r.sweep_s, r.keys_per_s / 1e6, r.base_rate / 1e6,
                 r.probe_latency_s.size(), r.cpu_s);
    if (!trace_this) probe_samples += r.probe_latency_s.size();
    (trace_this ? traced_reps : reps).push_back(std::move(r));
    setup_batch(kSetupBatch);
  }
  setup_batch(kSetupSamples);
  if (!opt.trace) {
    std::fprintf(stderr, "[%s] %zu set-up trials in %.2f s\n", w.name.c_str(),
                 setup_trials.size(), trial_s);
  }

  if (!opt.trace && w.probe_rate > 0 && probe_samples < kMinProbes) {
    throw InvalidWorkload(w.name + ": " + std::to_string(probe_samples) +
                          " probe samples leave fewer than 10 beyond p90");
  }

  std::vector<double> kps, setup, eff, kpc, probes;
  double probe_late = 0;
  for (const RepResult& r : reps) {
    kps.push_back(r.keys_per_s);
    setup.push_back(r.setup_s);
    eff.push_back(r.keys_per_s / (threads * r.base_rate));
    kpc.push_back(in.space.to_double() / r.cpu_s);
    probes.insert(probes.end(), r.probe_latency_s.begin(),
                  r.probe_latency_s.end());
    probe_late = std::max(probe_late, r.probe_late_s);
  }
  setup.insert(setup.end(), setup_trials.begin(), setup_trials.end());
  std::fprintf(stderr,
               "[%s] setup_s over %zu samples: min %.6f, p25 %.6f, median "
               "%.6f, p75 %.6f, max %.6f\n",
               w.name.c_str(), setup.size(), quantile(setup, 0),
               quantile(setup, 0.25), median(setup), quantile(setup, 0.75),
               quantile(setup, 1));

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"keys_per_s", median(kps), "keys/s"},
        {"setup_s", median(setup), "s"},
        {"efficiency", median(eff), "ratio"},
        {"keys_per_cpu_s", median(kpc), "keys/CPU-s"},
        {"probe_p50_s", quantile(probes, 0.5), "s"},
        {"probe_p90_s", quantile(probes, 0.9), "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
    };
  } else {
    metrics = layer_metrics(opt, in, reps, traced_reps, account);
  }
  std::fprintf(stderr,
               "[%s] %zu timed reps, %zu probe samples (generator at most "
               "%.4f s late), failed %llu of %llu operations "
               "(failed_frac %.3g)\n",
               w.name.c_str(), reps.size(), probes.size(), probe_late,
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted),
               static_cast<double>(failed) / static_cast<double>(attempted));
  for (const std::string& f : failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    return 2;
  }
  try {
    return run(opt);
  } catch (const InvalidWorkload& e) {
    std::fprintf(stderr, "INVALID WORKLOAD: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
