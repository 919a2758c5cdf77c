#include "service/job_manager.h"

#include <algorithm>
#include <cctype>
#include <exception>
#include <utility>

#include "core/multi_crack.h"
#include "obs/metrics.h"
#include "support/cpu_spread.h"
#include "support/error.h"

namespace gks::service {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Handles resolved once; every update after that is a relaxed atomic.
struct ServiceMetrics {
  obs::Counter& submitted =
      obs::Registry::global().counter("gks_jobs_submitted_total");
  obs::Counter& completed =
      obs::Registry::global().counter("gks_jobs_completed_total");
  obs::Counter& quanta =
      obs::Registry::global().counter("gks_job_quanta_total");
  obs::Histogram& quantum_s =
      obs::Registry::global().histogram("gks_job_quantum_seconds");
  obs::Counter& lease_granted =
      obs::Registry::global().counter("gks_lease_granted_total");
  obs::Counter& lease_retired =
      obs::Registry::global().counter("gks_lease_retired_total");
  obs::Counter& lease_expired =
      obs::Registry::global().counter("gks_lease_expired_total");
};

ServiceMetrics& metrics() {
  static ServiceMetrics* m = new ServiceMetrics;
  return *m;
}

}  // namespace

JobManager::JobManager(JobServiceConfig config) : config_(std::move(config)) {
  GKS_REQUIRE(config_.quantum_slice_s > 0, "quantum slice must be positive");
  GKS_REQUIRE(config_.min_quantum > u128(0), "min quantum must be positive");
  GKS_REQUIRE(config_.min_quantum <= config_.max_quantum,
              "min quantum above max quantum");
  if (!config_.journal_path.empty()) {
    store_.open(config_.journal_path, config_.journal_flush,
                config_.journal_rotate_bytes);
  }

  if (config_.local_scan) {
    std::size_t n = config_.workers;
    if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      workers_.emplace_back([this] {
        // Otherwise every worker starts on the constructing thread's
        // CPU, and stays there where the kernel does not balance.
        spread_current_thread();
        worker_loop();
      });
    }
  }
}

JobManager::~JobManager() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
    // Preempt in-flight scans at their next chunk boundary; untested
    // remainders never get journaled as covered, so non-terminal jobs
    // stay exactly resumable.
    for (auto& [id, job] : jobs_) {
      job->interrupt.store(true, std::memory_order_release);
    }
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

JobManager::JobImpl& JobManager::job_ref(JobId id) {
  const auto it = jobs_.find(id);
  GKS_REQUIRE(it != jobs_.end(), "unknown job id " + std::to_string(id));
  return *it->second;
}

const JobManager::JobImpl& JobManager::job_ref(JobId id) const {
  const auto it = jobs_.find(id);
  GKS_REQUIRE(it != jobs_.end(), "unknown job id " + std::to_string(id));
  return *it->second;
}

bool JobManager::runnable(const JobImpl& job) const {
  // all_found() gates dispatch instead of clearing `pending`: the
  // unscanned keyspace must survive in the queue so a later
  // add_targets can resume the sweep where it left off.
  return !job.pending.empty() && !job.sweeper->all_found() &&
         !job.cancel_requested && job.error.empty() &&
         (job.state == JobState::kQueued || job.state == JobState::kRunning);
}

bool JobManager::work_available() const {
  return scheduler_.pick().has_value();
}

u128 JobManager::quantum_for(const JobImpl& job) const {
  // Per-worker rate: total ids retired over total worker-seconds spent
  // scanning them. Sized so one quantum costs ~quantum_slice_s of wall
  // time, bounding how long a worker runs between scheduler visits.
  const double rate =
      job.busy_s > 0 ? job.scanned.to_double() / job.busy_s : 0;
  if (rate <= 0) return config_.min_quantum;
  const double target = rate * config_.quantum_slice_s;
  if (target <= config_.min_quantum.to_double()) return config_.min_quantum;
  if (target >= config_.max_quantum.to_double()) return config_.max_quantum;
  return u128(static_cast<std::uint64_t>(target));
}

JobId JobManager::submit(JobSpec spec) {
  GKS_REQUIRE(!spec.name.empty(), "job name must not be empty");
  GKS_REQUIRE(spec.weight > 0, "job weight must be positive");

  auto job = std::make_unique<JobImpl>();
  job->spec = spec;
  // Validates the request and parses the targets.
  job->sweeper = std::make_unique<core::MultiSweeper>(spec.request);
  job->pending.push_back(job->sweeper->space_interval());

  std::unique_lock lock(mu_);
  GKS_REQUIRE(!stopping_, "submit on a JobManager that is shutting down");
  for (const auto& [id, other] : jobs_) {
    GKS_REQUIRE(is_terminal(other->state) || other->spec.name != spec.name,
                "a live job named '" + spec.name + "' already exists");
  }
  return insert_job_locked(std::move(job), lock);
}

JobId JobManager::find_or_submit(JobSpec spec) {
  GKS_REQUIRE(!spec.name.empty(), "job name must not be empty");
  GKS_REQUIRE(spec.weight > 0, "job weight must be positive");

  // Built before the lock like submit(); wasted when the name exists,
  // but validation errors must surface either way and the existing-name
  // case is the rare one.
  auto job = std::make_unique<JobImpl>();
  job->spec = spec;
  job->sweeper = std::make_unique<core::MultiSweeper>(spec.request);
  job->pending.push_back(job->sweeper->space_interval());

  std::unique_lock lock(mu_);
  GKS_REQUIRE(!stopping_, "submit on a JobManager that is shutting down");
  std::optional<JobId> existing;
  for (const auto& [id, other] : jobs_) {
    if (other->spec.name == spec.name) existing = id;  // latest wins
  }
  if (existing.has_value()) return *existing;
  return insert_job_locked(std::move(job), lock);
}

JobId JobManager::insert_job_locked(std::unique_ptr<JobImpl> job,
                                    std::unique_lock<std::mutex>& lock) {
  const JobId id = next_id_++;
  job->id = id;
  store_.record_job(job->spec);
  scheduler_.add(id, job->spec.weight, job->spec.priority);
  jobs_.emplace(id, std::move(job));
  metrics().submitted.add(1);
  lock.unlock();
  work_cv_.notify_all();
  return id;
}

std::size_t JobManager::resume_from(const std::string& journal_path,
                                    JobStore::LoadReport* report) {
  std::size_t brought_back = 0;
  for (JobStore::RecoveredJob& rec : JobStore::load(journal_path, report)) {
    if (rec.final_state.has_value()) continue;  // already terminal

    auto job = std::make_unique<JobImpl>();
    job->spec = rec.spec;
    job->sweeper = std::make_unique<core::MultiSweeper>(rec.spec.request);
    // Replay the target-set history in journal order: a found record
    // may reference a digest only attached by an earlier add record,
    // and a remove must not suppress a recovery journaled before it.
    using Event = JobStore::RecoveredJob::TargetEvent;
    for (const Event& ev : rec.events) {
      switch (ev.kind) {
        case Event::Kind::kFound:
          job->targets_found +=
              job->sweeper->mark_found_hex(ev.digest_hex, ev.key).size();
          break;
        case Event::Kind::kAdd: {
          const core::TargetAddOutcome out =
              job->sweeper->add_targets(ev.targets);
          job->targets_found += out.already_found;
          break;
        }
        case Event::Kind::kRemove:
          job->sweeper->remove_targets(ev.targets);
          break;
      }
    }
    job->coverage = std::move(rec.scanned);
    job->scanned = job->coverage.covered();
    const auto gaps = job->coverage.gaps(job->sweeper->space_interval());
    job->pending.assign(gaps.begin(), gaps.end());

    std::unique_lock lock(mu_);
    GKS_REQUIRE(!stopping_, "resume on a JobManager that is shutting down");
    for (const auto& [id, other] : jobs_) {
      GKS_REQUIRE(
          is_terminal(other->state) || other->spec.name != rec.spec.name,
          "a live job named '" + rec.spec.name + "' already exists");
    }
    const JobId id = next_id_++;
    job->id = id;
    // Resuming into a *different* journal: re-record everything so the
    // new journal is self-contained. Resuming into the same file keeps
    // the existing records (load() keeps a job's first spec record).
    if (store_.persistent() && store_.path() != journal_path) {
      store_.record_job(job->spec);
      for (const keyspace::Interval& piece : job->coverage.pieces()) {
        store_.record_interval(job->spec.name, piece);
      }
      for (const Event& ev : rec.events) {
        switch (ev.kind) {
          case Event::Kind::kFound:
            store_.record_found(job->spec.name, ev.digest_hex, ev.key);
            break;
          case Event::Kind::kAdd:
            store_.record_targets_add(job->spec.name, ev.targets);
            break;
          case Event::Kind::kRemove:
            store_.record_targets_remove(job->spec.name, ev.targets);
            break;
        }
      }
    }
    JobImpl& ref = *job;
    jobs_.emplace(id, std::move(job));
    if (ref.pending.empty() || ref.sweeper->all_found()) {
      // Nothing left to dispatch — the crash happened after the last
      // quantum was journaled (or every target is already recovered).
      finish(ref, JobState::kDone);
    } else {
      scheduler_.add(id, ref.spec.weight, ref.spec.priority);
    }
    lock.unlock();
    work_cv_.notify_all();
    ++brought_back;
  }
  return brought_back;
}

void JobManager::cancel(JobId id) {
  std::lock_guard lock(mu_);
  JobImpl& job = job_ref(id);
  if (is_terminal(job.state)) return;
  job.cancel_requested = true;
  job.interrupt.store(true, std::memory_order_release);
  scheduler_.set_runnable(id, false);
  // Remote leases have no interrupt flag to observe — drop them now.
  // A holder that retires one later gets `false` back, the standard
  // stale-lease answer.
  std::vector<std::uint64_t> doomed;
  for (const auto& [lease_id, ls] : leases_) {
    if (ls.job == id) doomed.push_back(lease_id);
  }
  for (const std::uint64_t lease_id : doomed) {
    reclaim_lease_locked(lease_id, /*count_expired=*/false);
  }
  maybe_complete(job);
}

void JobManager::pause(JobId id) {
  std::lock_guard lock(mu_);
  JobImpl& job = job_ref(id);
  if (is_terminal(job.state) || job.state == JobState::kPaused) return;
  job.state = JobState::kPaused;
  job.interrupt.store(true, std::memory_order_release);
  scheduler_.set_runnable(id, false);
}

void JobManager::resume(JobId id) {
  std::lock_guard lock(mu_);
  JobImpl& job = job_ref(id);
  if (job.state != JobState::kPaused) return;
  job.state = job.dispatched_once ? JobState::kRunning : JobState::kQueued;
  job.interrupt.store(false, std::memory_order_release);
  scheduler_.set_runnable(id, runnable(job));
  maybe_complete(job);  // the sweep may have finished before the pause
  work_cv_.notify_all();
}

core::TargetAddOutcome JobManager::add_targets(
    JobId id, const std::vector<std::string>& hexes) {
  std::unique_lock lock(mu_);
  JobImpl& job = job_ref(id);
  GKS_REQUIRE(!is_terminal(job.state),
              "add_targets on terminal job '" + job.spec.name + "'");
  // Validate before journaling so a malformed batch leaves no record;
  // then journal before applying so a crash between the two replays
  // the add rather than losing targets the caller was told about.
  job.sweeper->validate_target_hexes(hexes);
  store_.record_targets_add(job.spec.name, hexes);
  const core::TargetAddOutcome out = job.sweeper->add_targets(hexes);
  // Slots duplicating an already-recovered digest resolve right here.
  job.targets_found += out.already_found;
  if (out.attached > 0) {
    // The outstanding target set grew: bump the generation (lease
    // grants carry it, so coordinators re-send the spec to sessions
    // whose cached sweeper predates this add) and reclaim in-flight
    // leases — their holders are scanning with the old target set, and
    // an interval they retire as covered would never have looked for
    // the new digest. Reclaimed intervals re-dispatch under the new
    // generation; overlap with a late retire is absorbed by the
    // coverage ledger and found-dedup, exactly like lease expiry.
    ++job.target_gen;
    std::vector<std::uint64_t> stale;
    for (const auto& [lease_id, ls] : leases_) {
      if (ls.job == job.id) stale.push_back(lease_id);
    }
    for (const std::uint64_t lease_id : stale) {
      reclaim_lease_locked(lease_id, /*count_expired=*/false);
    }
    // A job idled by all-found has pending keyspace again.
    scheduler_.set_runnable(job.id, runnable(job));
    lock.unlock();
    work_cv_.notify_all();
  }
  return out;
}

std::size_t JobManager::remove_targets(JobId id,
                                       const std::vector<std::string>& hexes) {
  std::lock_guard lock(mu_);
  JobImpl& job = job_ref(id);
  GKS_REQUIRE(!is_terminal(job.state),
              "remove_targets on terminal job '" + job.spec.name + "'");
  job.sweeper->validate_target_hexes(hexes);
  store_.record_targets_remove(job.spec.name, hexes);
  const std::size_t detached = job.sweeper->remove_targets(hexes);
  if (detached > 0) {
    // Workers holding a cached spec should stop scanning for the
    // detached digests; the next lease they are granted carries the
    // new generation and re-sends the spec. (No lease reclaim: keeping
    // scanning a removed digest wastes cycles but breaks nothing.)
    ++job.target_gen;
    if (job.sweeper->all_found()) {
      // The last outstanding digest is gone: stop dispatching and let
      // the job complete once in-flight quanta retire.
      scheduler_.set_runnable(job.id, false);
      maybe_complete(job);
    }
  }
  return detached;
}

std::optional<LeaseGrant> JobManager::lease(const std::string& holder,
                                            const u128& max_ids,
                                            double deadline) {
  GKS_REQUIRE(!holder.empty(), "lease holder must not be empty");
  GKS_REQUIRE(max_ids > u128(0), "lease size must be positive");
  std::lock_guard lock(mu_);
  if (stopping_) return std::nullopt;
  for (;;) {
    const std::optional<JobId> picked = scheduler_.pick();
    if (!picked.has_value()) return std::nullopt;
    JobImpl& job = *jobs_.at(*picked);
    if (job.pending.empty()) {  // defensive: keep the scheduler honest
      scheduler_.set_runnable(job.id, false);
      continue;
    }

    // Identical bookkeeping to a local quantum dispatch: the lease is
    // an in-flight interval, charged to the job's fair share now so
    // concurrent holders don't pile onto the same underserved job.
    const keyspace::Interval front = job.pending.front();
    job.pending.pop_front();
    const u128 take = std::min(max_ids, front.size());
    const keyspace::Interval quantum(front.begin, front.begin + take);
    if (take < front.size()) {
      job.pending.emplace_front(front.begin + take, front.end);
    }
    ++job.in_flight;
    ++job.intervals_issued;
    if (!job.dispatched_once) {
      job.dispatched_once = true;
      job.first_dispatch = std::chrono::steady_clock::now();
    }
    if (job.state == JobState::kQueued) job.state = JobState::kRunning;
    scheduler_.charge(job.id, quantum.size());
    scheduler_.set_runnable(job.id, runnable(job));

    LeaseGrant grant;
    grant.lease_id = next_lease_id_++;
    grant.job = job.id;
    grant.job_name = job.spec.name;
    grant.interval = quantum;
    grant.target_gen = job.target_gen;
    leases_.emplace(grant.lease_id,
                    LeaseState{job.id, quantum, holder, deadline});
    metrics().lease_granted.add(1);
    return grant;
  }
}

bool JobManager::retire_lease(
    std::uint64_t lease_id, const u128& tested,
    const std::vector<std::pair<std::string, std::string>>& found,
    double busy_s, std::size_t* forged) {
  std::unique_lock lock(mu_);
  const auto it = leases_.find(lease_id);
  if (it == leases_.end()) return false;  // expired / revoked / bogus
  const LeaseState ls = it->second;
  leases_.erase(it);
  metrics().lease_retired.add(1);
  JobImpl& job = *jobs_.at(ls.job);
  --job.in_flight;
  ++job.intervals_retired;
  job.busy_s += busy_s;

  // Recoveries journal before the interval that contains them — same
  // crash-ordering argument as the local worker path: losing the found
  // record at worst rescans the interval; the opposite order could
  // mark the key's interval covered while losing the key forever.
  for (const auto& [digest_hex, key] : found) {
    if (apply_found_locked(job, digest_hex, key) == FoundOutcome::kForged &&
        forged != nullptr) {
      ++*forged;
    }
  }
  const u128 n = std::min(tested, ls.interval.size());
  const keyspace::Interval done(ls.interval.begin, ls.interval.begin + n);
  if (!done.empty()) {
    store_.record_interval(job.spec.name, done);
    job.scanned += job.coverage.add(done);
  }
  if (n < ls.interval.size()) {
    job.pending.emplace_front(ls.interval.begin + n, ls.interval.end);
  }
  scheduler_.set_runnable(job.id, runnable(job));
  maybe_complete(job);
  const bool more = work_available();
  lock.unlock();
  if (more) work_cv_.notify_one();
  return true;
}

FoundOutcome JobManager::report_found(std::uint64_t lease_id,
                                      const std::string& digest_hex,
                                      const std::string& key) {
  std::lock_guard lock(mu_);
  const auto it = leases_.find(lease_id);
  if (it == leases_.end()) return FoundOutcome::kNoLease;
  JobImpl& job = *jobs_.at(it->second.job);
  const FoundOutcome outcome = apply_found_locked(job, digest_hex, key);
  // The recovery may have resolved the last outstanding target; stop
  // dispatching (the job completes once in-flight work retires).
  scheduler_.set_runnable(job.id, runnable(job));
  return outcome;
}

std::size_t JobManager::renew_leases(const std::string& holder,
                                     double deadline) {
  std::lock_guard lock(mu_);
  std::size_t renewed = 0;
  for (auto& [lease_id, ls] : leases_) {
    if (ls.holder != holder) continue;
    if (deadline > ls.deadline) ls.deadline = deadline;
    ++renewed;
  }
  return renewed;
}

std::size_t JobManager::expire_leases(
    double now, std::vector<std::string>* expired_holders) {
  std::unique_lock lock(mu_);
  std::vector<std::uint64_t> dead;
  for (const auto& [lease_id, ls] : leases_) {
    if (now > ls.deadline) {
      dead.push_back(lease_id);
      if (expired_holders != nullptr) expired_holders->push_back(ls.holder);
    }
  }
  for (const std::uint64_t lease_id : dead) {
    reclaim_lease_locked(lease_id, /*count_expired=*/true);
  }
  if (!dead.empty()) metrics().lease_expired.add(dead.size());
  const bool more = !dead.empty() && work_available();
  lock.unlock();
  if (more) work_cv_.notify_all();
  return dead.size();
}

std::size_t JobManager::revoke_leases(const std::string& holder) {
  std::unique_lock lock(mu_);
  std::vector<std::uint64_t> dead;
  for (const auto& [lease_id, ls] : leases_) {
    if (ls.holder == holder) dead.push_back(lease_id);
  }
  for (const std::uint64_t lease_id : dead) {
    reclaim_lease_locked(lease_id, /*count_expired=*/false);
  }
  const bool more = !dead.empty() && work_available();
  lock.unlock();
  if (more) work_cv_.notify_all();
  return dead.size();
}

bool JobManager::lease_live(std::uint64_t lease_id) const {
  std::lock_guard lock(mu_);
  return leases_.count(lease_id) != 0;
}

std::size_t JobManager::lease_count() const {
  std::lock_guard lock(mu_);
  return leases_.size();
}

JobSpec JobManager::wire_spec(
    JobId id,
    std::vector<std::pair<std::string, std::string>>* found_so_far) const {
  std::lock_guard lock(mu_);
  const JobImpl& job = job_ref(id);
  JobSpec spec = job.spec;
  // The spec's hex list is frozen at submission; the sweeper's slot
  // view is the live target set (add_targets extends it behind the
  // spec's back).
  spec.request.target_hexes.clear();
  const std::size_t slots = job.sweeper->slot_count();
  spec.request.target_hexes.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    spec.request.target_hexes.push_back(job.sweeper->slot_hex(i));
  }
  if (found_so_far != nullptr) *found_so_far = job.sweeper->found_so_far();
  return spec;
}

void JobManager::reclaim_lease_locked(std::uint64_t lease_id,
                                      bool count_expired) {
  const auto it = leases_.find(lease_id);
  if (it == leases_.end()) return;
  const LeaseState ls = it->second;
  leases_.erase(it);
  JobImpl& job = *jobs_.at(ls.job);
  --job.in_flight;
  if (count_expired) ++job.leases_expired;
  if (!job.cancel_requested && !is_terminal(job.state)) {
    // The holder may have scanned part (or all) of the interval, but
    // nothing was retired, so nothing is covered: re-dispatch the
    // whole thing. Overlap with a late retire is absorbed by the
    // coverage ledger and found dedup.
    job.pending.emplace_front(ls.interval);
  }
  scheduler_.set_runnable(job.id, runnable(job));
  maybe_complete(job);
}

FoundOutcome JobManager::apply_found_locked(JobImpl& job,
                                            const std::string& digest_hex,
                                            const std::string& key) {
  // Verify before believing: recompute the claimed preimage's digest
  // under the job's salt scheme. A mismatch — fabricated key,
  // corrupted frame, malformed hex — must never reach the journal or
  // the found broadcast; the caller turns it into a strike against the
  // holder. (Comparison is on the canonical lower-case rendering, so
  // an honest mixed-case report still verifies.)
  std::string want = digest_hex;
  std::transform(want.begin(), want.end(), want.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (core::salted_digest_hex(job.spec.request.algorithm,
                              job.spec.request.salt, key) != want) {
    return FoundOutcome::kForged;
  }
  std::vector<std::size_t> slots;
  try {
    slots = job.sweeper->mark_found_hex(want, key);
  } catch (const Error&) {
    return FoundOutcome::kForged;  // unreachable: `want` verified above
  }
  // Empty means a duplicate report or a target removed mid-lease —
  // not ours to journal; this is what keeps found accounting
  // exactly-once when two holders race on a re-dispatched interval.
  if (slots.empty()) return FoundOutcome::kDuplicate;
  job.targets_found += slots.size();
  store_.record_found(job.spec.name, job.sweeper->slot_hex(slots.front()),
                      key);
  return FoundOutcome::kApplied;
}

JobSnapshot JobManager::status(JobId id) const {
  std::lock_guard lock(mu_);
  return snapshot_locked(job_ref(id));
}

std::vector<JobSnapshot> JobManager::snapshot_all() const {
  std::lock_guard lock(mu_);
  std::vector<JobSnapshot> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(snapshot_locked(*job));
  return out;
}

std::optional<JobId> JobManager::find_job(std::string_view name) const {
  std::lock_guard lock(mu_);
  std::optional<JobId> found;
  for (const auto& [id, job] : jobs_) {
    if (job->spec.name == name) found = id;  // latest submission wins
  }
  return found;
}

bool JobManager::wait(JobId id, double timeout_s) const {
  std::unique_lock lock(mu_);
  const auto done = [&] { return is_terminal(job_ref(id).state); };
  if (timeout_s < 0) {
    done_cv_.wait(lock, done);
    return true;
  }
  return done_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                           done);
}

void JobManager::wait_all() const {
  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [&] {
    return std::all_of(jobs_.begin(), jobs_.end(), [](const auto& e) {
      return is_terminal(e.second->state);
    });
  });
}

JobSnapshot JobManager::snapshot_locked(const JobImpl& job) const {
  JobSnapshot s;
  s.id = job.id;
  s.name = job.spec.name;
  s.state = job.state;
  s.priority = job.spec.priority;
  s.weight = job.spec.weight;
  s.space = job.sweeper->space_size();
  s.scanned = job.scanned;
  s.intervals_issued = job.intervals_issued;
  s.intervals_retired = job.intervals_retired;
  s.leases_expired = job.leases_expired;
  s.targets_total = job.sweeper->slot_count();
  s.targets_found = job.targets_found;
  if (job.dispatched_once) {
    const auto end = is_terminal(job.state)
                         ? job.finished
                         : std::chrono::steady_clock::now();
    s.elapsed_s = seconds_between(job.first_dispatch, end);
  }
  s.busy_s = job.busy_s;
  s.keys_per_s = s.elapsed_s > 0 ? s.scanned.to_double() / s.elapsed_s : 0;
  if (s.keys_per_s > 0 && !is_terminal(job.state)) {
    const u128 remaining = s.space - s.scanned;
    s.eta_s = remaining.to_double() / s.keys_per_s;
  }
  s.found = job.sweeper->found_so_far();
  const core::SweepFilterStats fstats = job.sweeper->filter_stats();
  s.filter_gate_hits = fstats.gate_hits;
  s.filter_false_positives = fstats.false_positives;
  s.error = job.error;
  return s;
}

void JobManager::finish(JobImpl& job, JobState terminal) {
  job.state = terminal;
  job.finished = std::chrono::steady_clock::now();
  if (terminal == JobState::kDone) metrics().completed.add(1);
  store_.record_state(job.spec.name, terminal);
  scheduler_.remove(job.id);
  done_cv_.notify_all();
}

void JobManager::maybe_complete(JobImpl& job) {
  if (is_terminal(job.state) || job.in_flight > 0) return;
  if (!job.error.empty()) {
    finish(job, JobState::kFailed);
  } else if (job.cancel_requested) {
    finish(job, JobState::kCancelled);
  } else if ((job.pending.empty() || job.sweeper->all_found()) &&
             job.state != JobState::kPaused) {
    finish(job, JobState::kDone);
  }
}

void JobManager::worker_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || work_available(); });
    if (stopping_) return;
    const std::optional<JobId> picked = scheduler_.pick();
    if (!picked.has_value()) continue;
    JobImpl& job = *jobs_.at(*picked);
    if (job.pending.empty()) {  // defensive: keep the scheduler honest
      scheduler_.set_runnable(job.id, false);
      continue;
    }

    // Slice one quantum off the front of the pending keyspace.
    const keyspace::Interval front = job.pending.front();
    job.pending.pop_front();
    const u128 take = std::min(quantum_for(job), front.size());
    const keyspace::Interval quantum(front.begin, front.begin + take);
    if (take < front.size()) {
      job.pending.emplace_front(front.begin + take, front.end);
    }
    ++job.in_flight;
    ++job.intervals_issued;
    if (!job.dispatched_once) {
      job.dispatched_once = true;
      job.first_dispatch = std::chrono::steady_clock::now();
    }
    if (job.state == JobState::kQueued) job.state = JobState::kRunning;
    // Charge at dispatch so concurrent workers don't all pile onto the
    // same min-vtime job while its first quantum is still in flight.
    scheduler_.charge(job.id, quantum.size());
    scheduler_.set_runnable(job.id, runnable(job));

    core::MultiSweeper* const sweeper = job.sweeper.get();
    const std::atomic<bool>* const interrupt = &job.interrupt;
    lock.unlock();

    std::vector<core::SweepHit> hits;
    u128 tested(0);
    std::string error;
    const auto start = std::chrono::steady_clock::now();
    try {
      tested = sweeper->scan(quantum, hits, interrupt);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double wall =
        seconds_between(start, std::chrono::steady_clock::now());
    metrics().quanta.add(1);
    metrics().quantum_s.observe(wall);

    lock.lock();
    --job.in_flight;
    ++job.intervals_retired;
    job.busy_s += wall;
    if (!error.empty()) {
      // The quantum's coverage is unknown — treat it as untested and
      // keep it out of the journal. The error interrupts the job's
      // other in-flight quanta and turns terminal once they retire.
      job.pending.emplace_front(quantum);
      job.error = error;
      job.interrupt.store(true, std::memory_order_release);
    } else {
      // Journal recoveries before the interval that contains them: a
      // crash between the two appends then at worst rescans the
      // interval (the replayed recovery deduplicates the second hit);
      // the opposite order could mark the key's interval covered while
      // losing the key forever.
      for (const core::SweepHit& hit : hits) {
        const auto slots = sweeper->mark_found(hit.unique_index, hit.key);
        // Empty means a duplicate from a stale snapshot or a target
        // removed mid-flight — either way not ours to journal, which
        // is what keeps found accounting exactly-once under mutation.
        if (slots.empty()) continue;
        job.targets_found += slots.size();
        // slot_hex, not spec.request: add_targets extends the hex list
        // behind the spec's back, and the sweeper's accessor is the
        // thread-safe view of it.
        store_.record_found(job.spec.name, sweeper->slot_hex(slots.front()),
                            hit.key);
      }
      const keyspace::Interval done(quantum.begin, quantum.begin + tested);
      if (!done.empty()) {
        store_.record_interval(job.spec.name, done);
        job.scanned += job.coverage.add(done);
      }
      // A short count is an interrupt or a generation handoff (the
      // target set was mutated mid-quantum): re-queue the remainder so
      // it is rescanned against the current target set.
      if (tested < quantum.size()) {
        job.pending.emplace_front(quantum.begin + tested, quantum.end);
      }
    }
    scheduler_.set_runnable(job.id, runnable(job));
    maybe_complete(job);
    if (work_available()) work_cv_.notify_one();
  }
}

}  // namespace gks::service
