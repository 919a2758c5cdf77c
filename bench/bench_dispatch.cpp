// Dispatch-path overhead: keys/s of the distributed tier (Coordinator
// + WorkerDaemon over TCP loopback) against the in-process JobManager
// worker pool, at 1/2/4 workers sweeping the same keyspace. The
// distributed rows pay for JSON framing, one lease round-trip per
// interval, heartbeats and found-report acks; the `vs_local` column is
// that protocol tax, which lease sizing (CoordinatorConfig::max_lease,
// WorkerConfig::lease_target_s) exists to amortize. A ratio near 1.0
// at realistic lease sizes is the result the paper's cluster model
// assumes when it treats dispatch cost as negligible against compute
// (Section III).
//
// The `dist_lossy` rows re-run the distributed sweep with the workers'
// transport wrapped in the seeded FaultInjectingTransport dropping
// --fault-plan of all frames in each direction, at deliberately fine
// lease granularity so the protocol actually has traffic to lose. The
// extra tax there is what the self-healing machinery (recv timeouts,
// capped backoff reconnects, lease expiry re-dispatch) costs under a
// persistently lossy network, not just a clean one.
//
// Options:
//   --len L         key length (single-length lower space, 26^L)  [5]
//   --runs R        sweeps per configuration, best taken           [3]
//   --fault-plan P  frame-loss probability of the lossy rows;
//                   0 skips them                                   [0.01]
//   --fault-seed N  seed of the loss schedule                      [2014]
//   --json          print the versioned recording on stdout
//   --out FILE      write the recording to FILE

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_record.h"
#include "dist/coordinator.h"
#include "dist/fault_transport.h"
#include "dist/tcp_transport.h"
#include "dist/worker_daemon.h"
#include "hash/md5.h"
#include "keyspace/space.h"
#include "obs/metrics.h"
#include "service/job_manager.h"
#include "support/stopwatch.h"
#include "support/table.h"

namespace {

using namespace gks;

/// A target no lower-case key can hash to, so every sweep covers the
/// whole space — both paths do identical work.
service::JobSpec unfindable_job(const std::string& name, unsigned len) {
  service::JobSpec spec;
  spec.name = name;
  spec.request.algorithm = hash::Algorithm::kMd5;
  spec.request.target_hexes = {hash::Md5::digest("0000").to_hex()};
  spec.request.charset = keyspace::Charset::lower();
  spec.request.min_length = len;
  spec.request.max_length = len;
  return spec;
}

double local_sweep_s(unsigned len, std::size_t workers) {
  service::JobServiceConfig cfg;
  cfg.workers = workers;
  service::JobManager manager(cfg);
  Stopwatch timer;
  const auto id = manager.submit(unfindable_job("local", len));
  manager.wait(id);
  return timer.seconds();
}

/// `fault_loss` > 0 wraps the workers' side of the transport in the
/// seeded fault injector dropping that fraction of frames in each
/// direction, and tightens the recovery knobs (short leases, finer
/// lease clamp, 1 s recv timeout, fast capped backoff) so the run
/// measures the healing machinery instead of 10-second defaults.
/// When `delta` is non-null it receives the registry change of this
/// sweep alone (everything runs in-process against the one global
/// registry, so only before/after diffs are attributable to a run):
/// the worker rtt/lease histograms and reconnect/expiry counters that
/// decompose the dist tax.
double dist_sweep_s(unsigned len, std::size_t workers, double fault_loss,
                    std::uint64_t fault_seed,
                    obs::RegistrySnapshot* delta = nullptr) {
  const obs::RegistrySnapshot before = obs::Registry::global().snapshot();
  service::JobServiceConfig cfg;
  cfg.local_scan = false;
  service::JobManager manager(cfg);

  dist::TcpTransport transport;
  dist::CoordinatorConfig ccfg;
  std::unique_ptr<dist::FaultInjectingTransport> faulty;
  if (fault_loss > 0) {
    dist::FaultPlan plan;
    plan.send.drop = fault_loss;
    plan.recv.drop = fault_loss;
    faulty = std::make_unique<dist::FaultInjectingTransport>(transport, plan,
                                                             fault_seed);
    ccfg.lease_s = 1.5;
    ccfg.heartbeat_s = 0.25;
    ccfg.reap_interval_s = 0.1;
    ccfg.max_lease = u128(1) << 18;  // enough round-trips to lose some
  }
  dist::Coordinator coordinator(manager, transport, ccfg);
  coordinator.start("127.0.0.1:0");
  dist::Transport& worker_side =
      faulty ? static_cast<dist::Transport&>(*faulty) : transport;

  std::vector<std::unique_ptr<dist::WorkerDaemon>> daemons;
  std::vector<std::thread> threads;
  Stopwatch timer;
  const auto id = manager.submit(unfindable_job("dist", len));
  for (std::size_t i = 0; i < workers; ++i) {
    dist::WorkerConfig wcfg;
    // Built by append: gcc 12's -Wrestrict misfires on
    // operator+(const char*, string&&) under -O2.
    wcfg.name = "w";
    wcfg.name += std::to_string(i);
    wcfg.threads = 1;
    if (fault_loss > 0) {
      wcfg.recv_timeout_s = 1.0;
      wcfg.reconnect_attempts = 100;
      wcfg.reconnect_backoff_s = 0.05;
      wcfg.reconnect_backoff_max_s = 0.5;
      wcfg.backoff_seed = fault_seed + i + 1;
    }
    daemons.push_back(
        std::make_unique<dist::WorkerDaemon>(worker_side, wcfg));
  }
  // Threads start only once the vector is complete, so no push_back
  // can reallocate it under a running thread.
  for (std::size_t i = 0; i < workers; ++i) {
    threads.emplace_back(
        [&, i] { daemons[i]->run(coordinator.address()); });
  }
  manager.wait(id);
  const double elapsed = timer.seconds();
  for (auto& d : daemons) d->stop();
  for (auto& t : threads) t.join();
  coordinator.stop();
  if (faulty) {
    const dist::FaultStats fs = faulty->stats();
    std::fprintf(stderr,
                 "    [fault seed=%llu] dropped=%llu of %llu frames\n",
                 static_cast<unsigned long long>(faulty->seed()),
                 static_cast<unsigned long long>(fs.dropped),
                 static_cast<unsigned long long>(fs.sent + fs.received +
                                                 fs.dropped));
  }
  if (delta != nullptr) {
    *delta = obs::diff(obs::Registry::global().snapshot(), before);
  }
  return elapsed;
}

struct Row {
  std::string mode;
  std::size_t workers;
  double sweep_s;
  double keys_per_s;
  double vs_local;    // dist elapsed / local elapsed at the same width
  double fault_loss;  // injected frame-loss probability (0 = clean)
  // Protocol decomposition of the dist tax, from the registry diff of
  // this configuration's runs (merged): per-message round-trip and
  // per-lease wall percentiles, plus the healing events under loss.
  // All zero on local rows (no protocol there to time).
  double rtt_p50_s = 0;
  double rtt_p99_s = 0;
  double lease_p50_s = 0;
  double lease_p99_s = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t lease_expiries = 0;
};

/// Folds one dist run's registry delta into the row under construction:
/// histograms merge (quantiles then read the union of all runs),
/// counters add.
void fold_delta(Row& row, const obs::RegistrySnapshot& delta,
                obs::HistogramSnapshot& rtt, obs::HistogramSnapshot& lease) {
  if (const obs::HistogramSnapshot* h =
          delta.histogram("gks_worker_rtt_seconds")) {
    rtt.merge(*h);
  }
  if (const obs::HistogramSnapshot* h =
          delta.histogram("gks_worker_lease_seconds")) {
    lease.merge(*h);
  }
  row.reconnects += delta.counter_or("gks_worker_reconnects_total");
  row.lease_expiries += delta.counter_or("gks_lease_expired_total");
}

void finish_row(Row& row, const obs::HistogramSnapshot& rtt,
                const obs::HistogramSnapshot& lease) {
  if (rtt.count() > 0) {
    row.rtt_p50_s = rtt.quantile(0.50);
    row.rtt_p99_s = rtt.quantile(0.99);
  }
  if (lease.count() > 0) {
    row.lease_p50_s = lease.quantile(0.50);
    row.lease_p99_s = lease.quantile(0.99);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string out_path;
  unsigned len = 5;
  int runs = 3;
  double fault_loss = 0.01;
  std::uint64_t fault_seed = 2014;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = value();
    } else if (std::strcmp(argv[i], "--len") == 0) {
      len = static_cast<unsigned>(std::stoul(value()));
    } else if (std::strcmp(argv[i], "--runs") == 0) {
      runs = std::stoi(value());
    } else if (std::strcmp(argv[i], "--fault-plan") == 0) {
      fault_loss = std::stod(value());
    } else if (std::strcmp(argv[i], "--fault-seed") == 0) {
      fault_seed = std::stoull(value());
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", argv[i]);
      return 2;
    }
  }

  const double space =
      keyspace::space_size(keyspace::Charset::lower().size(), len, len)
          .to_double();
  std::vector<Row> rows;
  for (const std::size_t workers : {std::size_t(1), std::size_t(2),
                                    std::size_t(4)}) {
    double local = 0, dist = 0, lossy = 0;
    Row dist_row{"dist", workers, 0, 0, 0, 0};
    Row lossy_row{"dist_lossy", workers, 0, 0, 0, fault_loss};
    obs::HistogramSnapshot dist_rtt, dist_lease, lossy_rtt, lossy_lease;
    for (int run = 0; run < runs; ++run) {
      const double l = local_sweep_s(len, workers);
      obs::RegistrySnapshot delta;
      const double d = dist_sweep_s(len, workers, 0, 0, &delta);
      fold_delta(dist_row, delta, dist_rtt, dist_lease);
      if (run == 0 || l < local) local = l;
      if (run == 0 || d < dist) dist = d;
      if (fault_loss > 0) {
        const double f = dist_sweep_s(len, workers, fault_loss,
                                      fault_seed + run, &delta);
        fold_delta(lossy_row, delta, lossy_rtt, lossy_lease);
        if (run == 0 || f < lossy) lossy = f;
      }
    }
    rows.push_back({"local", workers, local, space / local, 1.0, 0});
    dist_row.sweep_s = dist;
    dist_row.keys_per_s = space / dist;
    dist_row.vs_local = dist / local;
    finish_row(dist_row, dist_rtt, dist_lease);
    rows.push_back(dist_row);
    std::fprintf(stderr,
                 "  %zu workers: local %.3f s, dist %.3f s (%.2fx, "
                 "rtt p50 %.0f us p99 %.0f us)\n",
                 workers, local, dist, dist / local,
                 dist_row.rtt_p50_s * 1e6, dist_row.rtt_p99_s * 1e6);
    if (fault_loss > 0) {
      lossy_row.sweep_s = lossy;
      lossy_row.keys_per_s = space / lossy;
      lossy_row.vs_local = lossy / local;
      finish_row(lossy_row, lossy_rtt, lossy_lease);
      rows.push_back(lossy_row);
      std::fprintf(stderr,
                   "  %zu workers: dist_lossy %.3f s (%.2fx, rtt p99 "
                   "%.0f us, %llu reconnects, %llu expiries)\n",
                   workers, lossy, lossy / local, lossy_row.rtt_p99_s * 1e6,
                   static_cast<unsigned long long>(lossy_row.reconnects),
                   static_cast<unsigned long long>(lossy_row.lease_expiries));
    }
  }

  TablePrinter table;
  table.header({"mode", "workers", "loss", "sweep (s)", "MKey/s",
                "vs local", "rtt p50", "rtt p99"});
  for (const auto& r : rows) {
    table.row({r.mode, std::to_string(r.workers),
               TablePrinter::num(r.fault_loss, 2),
               TablePrinter::num(r.sweep_s, 3),
               TablePrinter::num(r.keys_per_s / 1e6, 1),
               TablePrinter::num(r.vs_local, 2) + "x",
               r.rtt_p50_s > 0
                   ? TablePrinter::num(r.rtt_p50_s * 1e6, 0) + "us"
                   : "-",
               r.rtt_p99_s > 0
                   ? TablePrinter::num(r.rtt_p99_s * 1e6, 0) + "us"
                   : "-"});
  }
  std::printf("== Dispatch-path overhead (MD5, 26^%u = %.3g keys, "
              "best of %d) ==\n\n%s\n",
              len, space, runs, table.str().c_str());
  std::printf(
      "`local` scans inside the JobManager worker pool; `dist` drives\n"
      "the identical keyspace through gks-coordd-style leases over TCP\n"
      "loopback (JSON protocol, heartbeats, per-interval round-trips).\n"
      "The gap is the dispatch tax the lease-sizing knobs amortize.\n"
      "`dist_lossy` repeats the distributed sweep with a seeded fault\n"
      "injector dropping frames in both directions at finer lease\n"
      "granularity: its extra tax is the cost of recv timeouts, capped\n"
      "backoff reconnects and lease-expiry re-dispatch under loss.\n");

  if (json || !out_path.empty()) {
    bench::Recording rec("dispatch");
    for (const auto& r : rows) {
      rec.begin_entry()
          .key("mode").value(r.mode)
          .key("workers").value(static_cast<std::uint64_t>(r.workers))
          .key("space").value(space)
          .key("sweep_s").value(r.sweep_s)
          .key("keys_per_s").value(r.keys_per_s)
          .key("vs_local").value(r.vs_local)
          .key("fault_loss").value(r.fault_loss)
          .key("rtt_p50_s").value(r.rtt_p50_s)
          .key("rtt_p99_s").value(r.rtt_p99_s)
          .key("lease_p50_s").value(r.lease_p50_s)
          .key("lease_p99_s").value(r.lease_p99_s)
          .key("reconnects").value(r.reconnects)
          .key("lease_expiries").value(r.lease_expiries);
      rec.end_entry();
    }
    if (json) std::printf("%s", rec.render().c_str());
    if (!out_path.empty()) rec.write(out_path);
  }
  return 0;
}
