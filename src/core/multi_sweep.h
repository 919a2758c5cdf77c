#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/multi_crack.h"
#include "hash/multi_crack.h"
#include "hash/simd/dispatch.h"
#include "keyspace/codec.h"
#include "keyspace/interval.h"
#include "support/thread_pool.h"
#include "support/uint128.h"

namespace gks::core {

/// One hit from a sweep scan: which unique digest matched and the
/// recovered key. `unique_index` is stable for the sweeper's lifetime
/// (indices into the deduplicated digest set, extended append-only by
/// add_targets), so hits from stale snapshots remain meaningful after
/// other targets were recovered or the set was mutated.
struct SweepHit {
  std::size_t unique_index;
  std::string key;
};

/// Aggregate TargetIndex gate traffic across every context the sweeper
/// built (see hash::TargetIndexStats for the two counters' meaning).
struct SweepFilterStats {
  std::uint64_t gate_hits = 0;
  std::uint64_t false_positives = 0;
};

/// What one add_targets() call did.
struct TargetAddOutcome {
  /// Request-slot indices assigned to the added hexes, in call order.
  std::vector<std::size_t> slots;
  /// Unique digests that became outstanding (new, or re-attached after
  /// an earlier remove_targets).
  std::size_t attached = 0;
  /// Added slots whose digest was already recovered — they resolve
  /// immediately and never hit the scan path.
  std::size_t already_found = 0;
};

/// The multi-target sweep engine behind multi_crack(), factored out so
/// long-lived callers — the job service above all — can drive it one
/// bounded interval at a time instead of one synchronous whole-space
/// call. Responsibilities:
///
///  - parse + deduplicate the request's digests once (users sharing a
///    password share a unique digest; see docs/multi_target.md);
///  - scan arbitrary generator-relative intervals against the
///    *outstanding* targets through the calibrated scalar-or-lane
///    kernels, with a cooperative interrupt check between tail-block
///    chunks (the preemption hook the fair-share scheduler relies on);
///  - account recoveries (mark_found) and expose per-slot results;
///  - mutate the target set while sweeps run (add_targets /
///    remove_targets) with generation handoff: mutations publish a new
///    snapshot generation, and in-flight scans yield at their next
///    chunk boundary so the caller re-dispatches the remainder against
///    the current target set. A target added before its covering
///    interval is scanned is therefore never missed.
///
/// Thread model: scan() is const and safe to call concurrently from
/// many workers — each call pins an immutable snapshot of the target
/// set. A snapshot builds its fast-path tables on demand, each exactly
/// once: the first worker to need one builds it while the others wait.
/// SHA1 has one target table per snapshot, shared by every tail
/// (scan() wraps it in a per-chunk view holding the tail's message
/// words); MD5 has one context per (length, tail), because its
/// reversal runs through the tail. Table slot numbers ARE unique-digest
/// indices: recoveries and removals only flip flags and never renumber
/// or rebuild tables, so mark_found costs O(1) even at millions of
/// targets. Once enough targets are dead the sweeper compacts — it
/// clones the built tables minus the dead slots and publishes them as
/// a new generation. Scans still on an old snapshot at worst re-report
/// an already-found (or removed) digest, which mark_found filters.
/// prepare() is the one exception: it prunes MD5 cache entries, so it
/// must not overlap scan() calls (multi_crack alternates prepare/scan
/// phases; the job service never calls it).
class MultiSweeper {
 public:
  /// Validates the request and parses the targets. Does not calibrate:
  /// the first scan (or an explicit calibrate()) does, once.
  explicit MultiSweeper(MultiCrackRequest request);
  ~MultiSweeper();

  MultiSweeper(const MultiSweeper&) = delete;
  MultiSweeper& operator=(const MultiSweeper&) = delete;

  /// The request as submitted plus any hexes appended by add_targets.
  /// Not safe to read concurrently with add_targets — prefer
  /// slot_hex() / slot_count() from other threads.
  const MultiCrackRequest& request() const { return request_; }

  /// Total candidates, and the dense identifier interval [0, size).
  u128 space_size() const { return space_; }
  keyspace::Interval space_interval() const {
    return keyspace::Interval(u128(0), space_);
  }

  /// Deduplicated digest count / digests not yet recovered or removed.
  std::size_t unique_count() const;
  std::size_t outstanding_count() const {
    return outstanding_count_.load(std::memory_order_acquire);
  }
  bool all_found() const { return outstanding_count() == 0; }

  /// Pins the scalar-vs-lane engine choice with a short measured probe
  /// (idempotent, thread-safe; scan() triggers it lazily otherwise).
  /// The probe runs on the current snapshot's table for the first
  /// fast-path tail (the SHA1 table, or that tail's MD5 context), so
  /// calibrating builds that table; its gate traffic is not counted in
  /// filter_stats().
  void calibrate() const;

  /// Scans [interval.begin, interval.end) of generator-relative ids on
  /// the calling thread, appending hits. Returns the number of
  /// candidates actually tested: equal to interval.size() on a full
  /// scan, smaller when `interrupt` became true between chunks OR the
  /// target set was mutated to a new generation mid-scan — either way
  /// the untested remainder is [begin + returned, end), which the
  /// caller re-dispatches later (against the new target set, closing
  /// the added-target window). A null interrupt never yields on
  /// interruption, but generation handoff still applies.
  u128 scan(const keyspace::Interval& interval, std::vector<SweepHit>& hits,
            const std::atomic<bool>* interrupt = nullptr) const;

  /// Prebuilds the fast-path tables `round` touches — the MD5 tails in
  /// parallel on the pool, or the one SHA1 table — and evicts MD5
  /// entries the round no longer needs. Purely a throughput
  /// optimization for phase-structured callers; must not run
  /// concurrently with scan().
  void prepare(const keyspace::Interval& round, ThreadPool& pool);

  /// Marks a unique digest recovered. Returns the request-slot indices
  /// this recovery resolves — empty if it was already recorded
  /// (duplicate hit from a stale snapshot) or the digest was removed,
  /// which is what keeps found accounting exactly-once across
  /// mutations. Thread-safe, O(1) amortized (flag flip; occasional
  /// compaction).
  std::vector<std::size_t> mark_found(std::size_t unique_index,
                                      const std::string& key);

  /// mark_found by digest hex instead of unique index — journal replay
  /// on resume, where only the recorded (digest, key) pair is known.
  /// Returns the resolved request slots; empty when the hex matches no
  /// target or the digest was already recovered. Thread-safe.
  std::vector<std::size_t> mark_found_hex(const std::string& digest_hex,
                                          const std::string& key);

  /// Attaches more target hashes to the live sweep. Duplicates of
  /// existing targets share their unique digest (and resolve instantly
  /// when it was already recovered); digests removed earlier are
  /// re-attached; genuinely new digests extend the unique set and the
  /// published contexts. Throws InvalidArgument on malformed hexes
  /// before any state changes. Thread-safe.
  TargetAddOutcome add_targets(const std::vector<std::string>& hexes);

  /// Detaches target hashes: their digests stop being reported and no
  /// longer count as outstanding (unknown or already-resolved hexes
  /// are ignored). Returns the number of unique digests detached.
  /// Thread-safe.
  std::size_t remove_targets(const std::vector<std::string>& hexes);

  /// Validation of add/remove input without side effects — callers
  /// that journal the mutation first use this to avoid journaling a
  /// doomed record. Throws InvalidArgument on malformed hexes.
  void validate_target_hexes(const std::vector<std::string>& hexes) const;

  /// Monotone epoch of the published target-set snapshot; bumped by
  /// add_targets (always) and by compaction. scan() yields when the
  /// generation moves past the snapshot it pinned.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Aggregate gate traffic so far (all contexts, all generations).
  SweepFilterStats filter_stats() const;

  /// Fast-path tables built from scratch so far — MD5 per-tail
  /// contexts plus SHA1 shared tables, over every snapshot, including
  /// the one calibrate() builds. Clones carried into a new generation
  /// do not count.
  std::uint64_t table_builds() const {
    return table_builds_.load(std::memory_order_relaxed);
  }

  /// Digest hex and recovery state per request slot; used to fill
  /// results incrementally.
  std::size_t slot_count() const;
  /// The digest hex occupying one request slot. Thread-safe (unlike
  /// request()).
  std::string slot_hex(std::size_t slot) const;

  /// Writes per-slot verdicts + cracked count into `out.targets` /
  /// `out.cracked` (other fields untouched). Thread-safe.
  void fill_results(MultiCrackResult& out) const;

  /// The recovered (digest_hex, key) pairs so far, in recovery order.
  /// Thread-safe; returns a copy.
  std::vector<std::pair<std::string, std::string>> found_so_far() const;

 private:
  struct Snapshot;
  struct Parsed;

  hash::TargetIndex::Config index_config() const;
  std::shared_ptr<const Snapshot> snapshot() const;
  /// Full snapshot rebuild (state_mu_ held): every dead unique is
  /// retired from the table indexes, no table is built yet.
  std::shared_ptr<Snapshot> build_snapshot_locked() const;
  /// The snapshot's MD5 context for one (key length, tail), or its
  /// shared SHA1 table, built on first use (single-flight).
  const hash::Md5MultiContext& md5_context(
      const Snapshot& snap,
      const std::pair<std::size_t, std::string>& tail_key) const;
  const std::shared_ptr<const hash::Sha1TargetTable>& sha1_table(
      const Snapshot& snap) const;
  /// Publishes a compacted clone of the current snapshot when enough
  /// dead slots accumulated since the last one (state_mu_ held).
  void maybe_compact_locked();

  MultiCrackRequest request_;
  std::unique_ptr<Parsed> parsed_;
  keyspace::KeyCodec codec_;
  u128 offset_;  ///< global codec id of generator-relative id 0
  u128 space_;

  mutable std::once_flag calibrate_once_;
  mutable const hash::simd::ScanKernels* kernels_ = nullptr;
  mutable hash::TargetIndexStats index_stats_;
  mutable std::atomic<std::uint64_t> table_builds_{0};

  mutable std::mutex state_mu_;  ///< guards found/removed state + snapshot
  std::vector<bool> unique_found_;
  std::vector<bool> unique_removed_;
  std::vector<std::string> unique_keys_;
  std::vector<std::pair<std::string, std::string>> found_log_;
  std::size_t dead_count_ = 0;  ///< found + removed uniques
  std::shared_ptr<const Snapshot> snap_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> outstanding_count_{0};
};

}  // namespace gks::core
