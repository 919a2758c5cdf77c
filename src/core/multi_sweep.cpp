#include "core/multi_sweep.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>

#include "hash/kernel_words.h"
#include "hash/md5.h"
#include "obs/metrics.h"
#include "hash/md5_crack.h"
#include "hash/sha1.h"
#include "keyspace/space.h"
#include "support/error.h"
#include "support/hex.h"
#include "support/stopwatch.h"

namespace gks::core {

/// The request's digests parsed once, deduplicated by digest bytes.
/// Request slots sharing a digest (users sharing a password — common
/// in real audits) are resolved through `request_slots` on recovery.
/// add_targets() extends every vector append-only, so unique indices
/// never shift.
struct MultiSweeper::Parsed {
  std::vector<hash::Md5Digest> md5;    ///< unique digests (MD5 runs)
  std::vector<hash::Sha1Digest> sha1;  ///< unique digests (SHA1 runs)
  /// request_slots[u] = indices into request.target_hexes with digest u.
  std::vector<std::vector<std::size_t>> request_slots;
  /// (digest, unique index), sorted by digest — O(log n) lookup for
  /// journal replay and add/remove dedup at million-target batches.
  std::vector<std::pair<hash::Md5Digest, std::size_t>> md5_by_digest;
  std::vector<std::pair<hash::Sha1Digest, std::size_t>> sha1_by_digest;

  std::size_t unique_count() const { return request_slots.size(); }
};

namespace {

/// A table built at most once, by the first thread that asks for it.
/// Threads asking while that build runs wait for it (std::call_once)
/// instead of building a copy to throw away; a build that throws leaves
/// the slot empty for the next asker.
template <class T>
class SingleFlight {
 public:
  template <class Build>
  const std::shared_ptr<const T>& get(const Build& build) const {
    std::call_once(once_, [&] {
      value_ = build();
      ready_.store(true, std::memory_order_release);
    });
    return value_;
  }

  /// Installs a table derived from a predecessor snapshot's.
  void set(std::shared_ptr<const T> value) const {
    get([&] { return std::move(value); });
  }

  /// The table if it is built, else null. Never builds or waits.
  std::shared_ptr<const T> peek() const {
    return ready_.load(std::memory_order_acquire) ? value_ : nullptr;
  }

 private:
  mutable std::once_flag once_;
  mutable std::shared_ptr<const T> value_;
  mutable std::atomic<bool> ready_{false};
};

/// (key length, fixed tail): the chunks that share one MD5 context.
using TailKey = std::pair<std::size_t, std::string>;

/// A copy of `built` with `change` applied.
template <class T, class Change>
std::shared_ptr<const T> changed_copy(const T& built, const Change& change) {
  auto copy = std::make_shared<T>(built);
  change(*copy);
  return copy;
}

}  // namespace

/// An immutable view of the target set plus the fast-path tables built
/// for it. Scans pin one snapshot for their whole interval. Table slot
/// numbers equal unique-digest indices: the digest vectors keep holes
/// for dead targets, and `retired` lists the slots already detached
/// from the tables' TargetIndexes. Recoveries and removals never touch
/// a published snapshot — they flip sweeper-side flags — so snapshots
/// stay truly immutable and mark_found is O(1).
struct MultiSweeper::Snapshot {
  std::uint64_t generation = 0;
  std::vector<hash::Md5Digest> md5;
  std::vector<hash::Sha1Digest> sha1;
  /// live[u] == 0 skips u on the generic (non-fast-path) scan; the
  /// fast path relies on `retired` instead.
  std::vector<std::uint8_t> live;
  /// Unique indices retired from the table indexes, ascending.
  std::vector<std::uint32_t> retired;

  /// MD5 contexts keyed by (key length, fixed tail): MD5's 15-step
  /// reversal runs through the tail's message words, so every tail
  /// needs its own. `mu` guards the map's shape, not the entries.
  mutable std::mutex mu;
  mutable std::map<TailKey, SingleFlight<hash::Md5MultiContext>> md5_ctx;
  /// The one SHA1 table every tail's view shares: undoing SHA1's
  /// feed-forward needs no message words.
  SingleFlight<hash::Sha1TargetTable> sha1_table;

  /// Hands the tables built so far to `next`, each copied and changed
  /// (compaction retires slots, add_targets appends digests). Tables
  /// not built yet stay unbuilt; `next` builds them on first use.
  template <class Md5Change, class Sha1Change>
  void carry_over(const Snapshot& next, const Md5Change& md5_change,
                  const Sha1Change& sha1_change) const {
    using Built = std::shared_ptr<const hash::Md5MultiContext>;
    std::vector<std::pair<TailKey, Built>> built;
    {
      std::lock_guard lock(mu);
      for (const auto& [key, entry] : md5_ctx) {
        if (auto ctx = entry.peek()) built.emplace_back(key, std::move(ctx));
      }
    }
    for (const auto& [key, ctx] : built) {
      next.md5_ctx[key].set(changed_copy(*ctx, md5_change));
    }
    if (const auto table = sha1_table.peek()) {
      next.sha1_table.set(changed_copy(*table, sha1_change));
    }
  }
};

namespace {

/// How many dead slots must pile up since the last published snapshot
/// before compaction clones the contexts without them. Keeps the
/// amortized mark_found cost flat while bounding the dead weight
/// scanned to at most half a context.
constexpr std::size_t kCompactMin = 256;

/// Parses one algorithm's digests and groups duplicates by sorting —
/// no per-entry node allocations, which matters at audit batch sizes.
template <class DigestT>
void dedup_targets(const std::vector<std::string>& hexes,
                   std::vector<DigestT>& unique,
                   std::vector<std::pair<DigestT, std::size_t>>& by_digest,
                   std::vector<std::vector<std::size_t>>& request_slots) {
  std::vector<std::pair<DigestT, std::size_t>> entries;
  entries.reserve(hexes.size());
  for (std::size_t i = 0; i < hexes.size(); ++i) {
    entries.emplace_back(DigestT::from_hex(hexes[i]), i);
  }
  std::sort(entries.begin(), entries.end());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i == 0 || entries[i].first != entries[i - 1].first) {
      unique.push_back(entries[i].first);
      by_digest.emplace_back(entries[i].first, unique.size() - 1);
      request_slots.emplace_back();
    }
    request_slots.back().push_back(entries[i].second);
  }
}

/// Unique index of `digest` in the sorted (digest, index) lookup, or
/// npos.
template <class DigestT>
std::size_t find_unique(
    const std::vector<std::pair<DigestT, std::size_t>>& by_digest,
    const DigestT& digest) {
  const auto it = std::lower_bound(
      by_digest.begin(), by_digest.end(), digest,
      [](const auto& entry, const DigestT& d) { return entry.first < d; });
  if (it == by_digest.end() || it->first != digest) {
    return static_cast<std::size_t>(-1);
  }
  return it->second;
}

template <class DigestT>
void insert_by_digest(
    std::vector<std::pair<DigestT, std::size_t>>& by_digest,
    const DigestT& digest, std::size_t unique_index) {
  const auto it = std::lower_bound(
      by_digest.begin(), by_digest.end(), digest,
      [](const auto& entry, const DigestT& d) { return entry.first < d; });
  by_digest.insert(it, {digest, unique_index});
}

bool fast_path_applicable(const MultiCrackRequest& request,
                          std::size_t key_len) {
  if (request.algorithm == hash::Algorithm::kSha256) return false;
  switch (request.salt.position) {
    case hash::SaltPosition::kNone: return true;
    case hash::SaltPosition::kPrefix: return false;
    case hash::SaltPosition::kSuffix: return key_len >= 4;
  }
  return false;
}

/// The fixed message bytes after the candidate's first word: key tail
/// plus any suffix salt.
std::string chunk_tail(const MultiCrackRequest& request,
                       const std::string& first_key) {
  std::string tail;
  if (first_key.size() > 4) tail = first_key.substr(4);
  if (request.salt.position == hash::SaltPosition::kSuffix) {
    tail += request.salt.salt;
  }
  return tail;
}

/// Walks `interval` in the tail-block chunks the scan uses, invoking
/// fn(begin_id, count, first_key). All candidates of one chunk share
/// their length and tail characters (prefix-fastest mapping).
template <class Fn>
void for_each_chunk(const MultiCrackRequest& request,
                    const keyspace::KeyCodec& codec, const u128& offset,
                    const keyspace::Interval& interval, Fn&& fn) {
  const std::size_t n = request.charset.size();
  u128 id = interval.begin;
  std::string key;
  while (id < interval.end) {
    codec.decode_into(id + offset, key);
    const std::size_t key_len = key.size();
    const auto prefix_chars =
        static_cast<unsigned>(std::min<std::size_t>(4, key_len));
    const u128 block = keyspace::keys_of_length(n, prefix_chars);
    const u128 first_of_len =
        keyspace::first_id_of_length(n, static_cast<unsigned>(key_len)) -
        offset;
    const u128 within = (id - first_of_len) % block;
    const u128 chunk = std::min(interval.end - id, block - within);
    if (!fn(id, chunk, key)) return;
    id += chunk;
  }
}

/// Builds one fast-path table over the full unique-digest vector (slot
/// == unique index), then detaches the retired slots from its index.
template <class T, class... Args>
std::shared_ptr<const T> build_detached(
    const std::vector<std::uint32_t>& retired, Args&&... args) {
  auto built = std::make_shared<T>(std::forward<Args>(args)...);
  if (!retired.empty()) built->retire_slots(retired);
  return built;
}

/// The calibration probe's place in the keyspace: the first length the
/// fast path covers, its all-first-character key, and that key's tail.
struct CalibrationProbe {
  std::size_t key_len = 0;  ///< 0: the fast path never applies
  std::string tail;
  std::size_t total_len = 0;
};

CalibrationProbe calibration_probe(const MultiCrackRequest& request) {
  CalibrationProbe probe;
  if (!request.lane_scanning) return probe;
  for (std::size_t len = request.min_length; len <= request.max_length;
       ++len) {
    if (fast_path_applicable(request, len)) {
      probe.key_len = len;
      break;
    }
  }
  if (probe.key_len == 0) return probe;
  probe.tail = chunk_tail(
      request, std::string(probe.key_len, request.charset.chars()[0]));
  probe.total_len = probe.key_len + request.salt.extra_length();
  return probe;
}

/// One fast-path scan on `kernels`, or on the scalar engine when null.
void multi_scan(const hash::simd::ScanKernels* kernels,
                const hash::Md5MultiContext& ctx, hash::PrefixWord0Iterator& it,
                std::uint64_t n, std::vector<hash::MultiHit>& out) {
  if (kernels != nullptr) {
    kernels->md5_multi_scan(ctx, it, n, out);
  } else {
    hash::md5_multi_scan_prefixes(ctx, it, n, out);
  }
}

void multi_scan(const hash::simd::ScanKernels* kernels,
                const hash::Sha1MultiContext& ctx,
                hash::PrefixWord0Iterator& it, std::uint64_t n,
                std::vector<hash::MultiHit>& out) {
  if (kernels != nullptr) {
    kernels->sha1_multi_scan(ctx, it, n, out);
  } else {
    hash::sha1_multi_scan_prefixes(ctx, it, n, out);
  }
}

/// Picks the fast-path engine — scalar multi scan or one of the lane
/// widths — by timing each over a short probe of `ctx`, the table of
/// the probe's tail. Returns nullptr for the scalar engine.
template <class Ctx>
const hash::simd::ScanKernels* pick_fastest(const MultiCrackRequest& request,
                                            const CalibrationProbe& probe,
                                            const Ctx& ctx) {
  const auto prefix_chars =
      static_cast<unsigned>(std::min<std::size_t>(4, probe.key_len));
  const bool big_endian = request.algorithm == hash::Algorithm::kSha1;
  const hash::PrefixWord0Iterator start(request.charset.chars(), prefix_chars,
                                        probe.key_len, big_endian);

  constexpr std::uint64_t kWarmup = 1024;
  constexpr std::uint64_t kProbe = 8192;
  std::vector<hash::MultiHit> scratch;
  const auto measure = [&](const hash::simd::ScanKernels* kernels) {
    auto it = start;
    scratch.clear();
    multi_scan(kernels, ctx, it, kWarmup, scratch);
    Stopwatch timer;
    multi_scan(kernels, ctx, it, kProbe, scratch);
    return timer.seconds();
  };

  const hash::simd::ScanKernels* winner = nullptr;
  double best = measure(nullptr);
  for (const auto& k : hash::simd::available_kernels()) {
    const double t = measure(&k);
    if (t < best) {
      best = t;
      winner = &k;
    }
  }
  return winner;
}

}  // namespace

MultiSweeper::MultiSweeper(MultiCrackRequest request)
    : request_(std::move(request)),
      parsed_(std::make_unique<Parsed>()),
      codec_((request_.validate(), request_.charset),
             keyspace::DigitOrder::kPrefixFastest),
      offset_(keyspace::first_id_of_length(request_.charset.size(),
                                           request_.min_length)),
      space_(keyspace::space_size(request_.charset.size(),
                                  request_.min_length, request_.max_length)) {
  if (request_.algorithm == hash::Algorithm::kMd5) {
    dedup_targets(request_.target_hexes, parsed_->md5, parsed_->md5_by_digest,
                  parsed_->request_slots);
  } else {
    dedup_targets(request_.target_hexes, parsed_->sha1,
                  parsed_->sha1_by_digest, parsed_->request_slots);
  }
  unique_found_.assign(parsed_->unique_count(), false);
  unique_removed_.assign(parsed_->unique_count(), false);
  unique_keys_.assign(parsed_->unique_count(), std::string());
  snap_ = build_snapshot_locked();
  outstanding_count_.store(parsed_->unique_count(),
                           std::memory_order_release);
}

MultiSweeper::~MultiSweeper() = default;

std::size_t MultiSweeper::unique_count() const {
  std::lock_guard lock(state_mu_);
  return parsed_->unique_count();
}

std::size_t MultiSweeper::slot_count() const {
  std::lock_guard lock(state_mu_);
  return request_.target_hexes.size();
}

std::string MultiSweeper::slot_hex(std::size_t slot) const {
  std::lock_guard lock(state_mu_);
  GKS_REQUIRE(slot < request_.target_hexes.size(),
              "request slot out of range");
  return request_.target_hexes[slot];
}

hash::TargetIndex::Config MultiSweeper::index_config() const {
  hash::TargetIndex::Config cfg;
  cfg.fpr = request_.filter_fpr;
  cfg.gate = request_.filter_gate;
  cfg.stats = &index_stats_;
  return cfg;
}

std::shared_ptr<MultiSweeper::Snapshot> MultiSweeper::build_snapshot_locked()
    const {
  auto snap = std::make_shared<Snapshot>();
  snap->generation = generation_.load(std::memory_order_relaxed);
  snap->md5 = parsed_->md5;
  snap->sha1 = parsed_->sha1;
  snap->live.assign(parsed_->unique_count(), 1);
  for (std::size_t u = 0; u < parsed_->unique_count(); ++u) {
    if (unique_found_[u] || unique_removed_[u]) {
      snap->live[u] = 0;
      snap->retired.push_back(static_cast<std::uint32_t>(u));
    }
  }
  return snap;
}

std::shared_ptr<const MultiSweeper::Snapshot> MultiSweeper::snapshot() const {
  std::lock_guard lock(state_mu_);
  return snap_;
}

const hash::Md5MultiContext& MultiSweeper::md5_context(
    const Snapshot& snap, const TailKey& tail_key) const {
  const SingleFlight<hash::Md5MultiContext>* entry;
  {
    std::lock_guard lock(snap.mu);
    entry = &snap.md5_ctx[tail_key];
  }
  // Map nodes never move, and only prepare() erases them (never
  // concurrently with scans), so the entry outlives the lock.
  return *entry->get([&] {
    table_builds_.fetch_add(1, std::memory_order_relaxed);
    const auto& [key_len, tail] = tail_key;
    return build_detached<hash::Md5MultiContext>(
        snap.retired, snap.md5, tail, key_len + request_.salt.extra_length(),
        index_config());
  });
}

const std::shared_ptr<const hash::Sha1TargetTable>& MultiSweeper::sha1_table(
    const Snapshot& snap) const {
  return snap.sha1_table.get([&] {
    table_builds_.fetch_add(1, std::memory_order_relaxed);
    return build_detached<hash::Sha1TargetTable>(snap.retired, snap.sha1,
                                                 index_config());
  });
}

void MultiSweeper::calibrate() const {
  std::call_once(calibrate_once_, [this] {
    // The probe scans the table its tail's chunks will scan with, so
    // the table is built here, once, and not again by the first scan.
    // Every scan waits for calibration, so no job traffic runs while
    // the probe's gate passes are taken back out of the stats.
    const CalibrationProbe probe = calibration_probe(request_);
    if (probe.key_len != 0) {
      const SweepFilterStats before = filter_stats();
      const std::shared_ptr<const Snapshot> snap = snapshot();
      if (request_.algorithm == hash::Algorithm::kMd5) {
        kernels_ = pick_fastest(
            request_, probe, md5_context(*snap, {probe.key_len, probe.tail}));
      } else {
        kernels_ = pick_fastest(
            request_, probe,
            hash::Sha1MultiContext::view(sha1_table(*snap), probe.tail,
                                         probe.total_len));
      }
      index_stats_.gate_hits.store(before.gate_hits,
                                   std::memory_order_relaxed);
      index_stats_.false_positives.store(before.false_positives,
                                         std::memory_order_relaxed);
    }
    if (obs::enabled()) {
      obs::Registry::global().counter("gks_kernel_calibrations_total")
          .add(1);
      obs::Registry::global().gauge("gks_kernel_lane_width")
          .set(kernels_ != nullptr ? kernels_->width : 1);
    }
  });
}

u128 MultiSweeper::scan(const keyspace::Interval& interval,
                        std::vector<SweepHit>& hits,
                        const std::atomic<bool>* interrupt) const {
  if (interval.empty()) return u128(0);
  calibrate();
  const std::shared_ptr<const Snapshot> snap = snapshot();
  // With nothing outstanding every candidate trivially fails the
  // condition; report the interval as fully tested so completion
  // accounting (and journaled coverage) stays exact.
  if (all_found()) return interval.size();

  // Telemetry is batched per scan() call: one clock read and four
  // relaxed atomic adds per multi-chunk scan, never per candidate or
  // per chunk — the ≤1% hot-path budget bench_obs enforces.
  const bool observed = obs::enabled();
  Stopwatch scan_timer;

  u128 tested(0);
  for_each_chunk(
      request_, codec_, offset_, interval,
      [&](u128 id, u128 count, const std::string& first_key) {
        if (interrupt != nullptr &&
            interrupt->load(std::memory_order_acquire)) {
          return false;  // cooperative yield: remainder stays untested
        }
        if (generation_.load(std::memory_order_acquire) !=
            snap->generation) {
          // The target set moved on (add_targets or compaction):
          // yield so the caller re-dispatches the remainder against
          // the current generation. This is the handoff that makes a
          // target added before its covering interval is scanned
          // impossible to miss.
          return false;
        }
        const std::size_t key_len = first_key.size();
        if (fast_path_applicable(request_, key_len)) {
          const auto prefix_chars =
              static_cast<unsigned>(std::min<std::size_t>(4, key_len));
          const std::string tail = chunk_tail(request_, first_key);
          const std::size_t total_len =
              key_len + request_.salt.extra_length();

          const bool big_endian =
              request_.algorithm == hash::Algorithm::kSha1;
          hash::PrefixWord0Iterator it(request_.charset.chars(), prefix_chars,
                                       key_len, big_endian);
          std::vector<std::uint32_t> digits(prefix_chars);
          for (unsigned i = 0; i < prefix_chars; ++i) {
            digits[i] = static_cast<std::uint32_t>(
                request_.charset.index_of(first_key[i]));
          }
          it.seek(digits);

          const std::uint64_t n = count.to_u64();
          std::vector<hash::MultiHit> found;
          if (request_.algorithm == hash::Algorithm::kMd5) {
            multi_scan(kernels_, md5_context(*snap, {key_len, tail}), it, n,
                       found);
          } else {
            multi_scan(kernels_,
                       hash::Sha1MultiContext::view(sha1_table(*snap), tail,
                                                    total_len),
                       it, n, found);
          }
          // Context slots ARE unique indices; targets found or removed
          // after this snapshot was published may still surface here
          // and are filtered by mark_found.
          for (const hash::MultiHit& h : found) {
            hits.push_back(
                {h.slot, codec_.decode(id + u128(h.offset) + offset_)});
          }
        } else {
          // Generic path: full digest per candidate, compared to every
          // live unique digest.
          std::string key = first_key;
          u128 togo = count;
          while (togo > u128(0)) {
            const std::string message = request_.salt.apply(key);
            if (request_.algorithm == hash::Algorithm::kMd5) {
              const auto digest = hash::Md5::digest(message);
              for (std::size_t t = 0; t < snap->md5.size(); ++t) {
                if (snap->live[t] != 0 && digest == snap->md5[t]) {
                  hits.push_back({t, key});
                }
              }
            } else {
              const auto digest = hash::Sha1::digest(message);
              for (std::size_t t = 0; t < snap->sha1.size(); ++t) {
                if (snap->live[t] != 0 && digest == snap->sha1[t]) {
                  hits.push_back({t, key});
                }
              }
            }
            codec_.next_inplace(key);
            --togo;
          }
        }
        tested += count;
        return true;
      });
  if (observed) {
    static obs::Counter& keys =
        obs::Registry::global().counter("gks_sweep_keys_total");
    static obs::Counter& scans =
        obs::Registry::global().counter("gks_sweep_scans_total");
    static obs::Counter& yields =
        obs::Registry::global().counter("gks_sweep_yields_total");
    static obs::Histogram& scan_s =
        obs::Registry::global().histogram("gks_sweep_scan_seconds");
    keys.add(tested.to_u64());
    scans.add(1);
    if (tested < interval.size()) yields.add(1);
    scan_s.observe(scan_timer.seconds());
  }
  return tested;
}

void MultiSweeper::prepare(const keyspace::Interval& round,
                           ThreadPool& pool) {
  const std::shared_ptr<const Snapshot> snap = snapshot();
  if (all_found()) return;

  std::set<TailKey> needed;
  for_each_chunk(request_, codec_, offset_, round,
                 [&](u128 /*id*/, u128 /*count*/, const std::string& key) {
                   if (fast_path_applicable(request_, key.size())) {
                     needed.emplace(key.size(),
                                    chunk_tail(request_, key));
                   }
                   return true;
                 });
  if (needed.empty()) return;
  if (request_.algorithm == hash::Algorithm::kSha1) {
    sha1_table(*snap);  // one table serves every tail of the round
    return;
  }

  // Entries the round does not touch are evicted first, keeping memory
  // bounded by one round's tail count when the tail space is genuinely
  // large; a fixed-length sweep cycles through the same tails every
  // round and finds everything already built.
  {
    std::lock_guard lock(snap->mu);
    std::erase_if(snap->md5_ctx,
                  [&](const auto& e) { return needed.count(e.first) == 0; });
  }
  // Distinct tails build concurrently — the reversal and sort behind
  // each context are exactly the work worth fanning out at audit-scale
  // target counts.
  const std::vector<TailKey> tails(needed.begin(), needed.end());
  pool.parallel_for(tails.size(),
                    [&](std::size_t i) { md5_context(*snap, tails[i]); });
}

void MultiSweeper::maybe_compact_locked() {
  const std::size_t already_retired = snap_->retired.size();
  const std::size_t newly_dead = dead_count_ - already_retired;
  const std::size_t in_index = parsed_->unique_count() - already_retired;
  if (newly_dead < kCompactMin || newly_dead * 2 < in_index) return;

  generation_.fetch_add(1, std::memory_order_acq_rel);
  const std::shared_ptr<Snapshot> next = build_snapshot_locked();
  std::vector<std::uint32_t> newly_retired;
  std::set_difference(next->retired.begin(), next->retired.end(),
                      snap_->retired.begin(), snap_->retired.end(),
                      std::back_inserter(newly_retired));

  // Carry the built tables over, minus the newly dead slots — an
  // O(live) clone instead of the full revert+sort rebuild.
  const auto retire = [&](auto& built) { built.retire_slots(newly_retired); };
  snap_->carry_over(*next, retire, retire);
  snap_ = next;
}

std::vector<std::size_t> MultiSweeper::mark_found(std::size_t unique_index,
                                                  const std::string& key) {
  std::lock_guard lock(state_mu_);
  GKS_REQUIRE(unique_index < parsed_->unique_count(),
              "unique digest index out of range");
  // Exactly-once across mutations: duplicates from stale snapshots and
  // hits on targets removed mid-flight both resolve to "not ours".
  if (unique_found_[unique_index] || unique_removed_[unique_index]) {
    return {};
  }
  unique_found_[unique_index] = true;
  unique_keys_[unique_index] = key;
  found_log_.emplace_back(
      request_.target_hexes[parsed_->request_slots[unique_index].front()],
      key);
  ++dead_count_;
  outstanding_count_.fetch_sub(1, std::memory_order_acq_rel);
  maybe_compact_locked();
  return parsed_->request_slots[unique_index];
}

std::vector<std::size_t> MultiSweeper::mark_found_hex(
    const std::string& digest_hex, const std::string& key) {
  std::size_t u = static_cast<std::size_t>(-1);
  {
    std::lock_guard lock(state_mu_);
    if (request_.algorithm == hash::Algorithm::kMd5) {
      u = find_unique(parsed_->md5_by_digest,
                      hash::Md5Digest::from_hex(digest_hex));
    } else {
      u = find_unique(parsed_->sha1_by_digest,
                      hash::Sha1Digest::from_hex(digest_hex));
    }
  }
  if (u == static_cast<std::size_t>(-1)) return {};
  return mark_found(u, key);
}

void MultiSweeper::validate_target_hexes(
    const std::vector<std::string>& hexes) const {
  for (const std::string& hex : hexes) {
    if (request_.algorithm == hash::Algorithm::kMd5) {
      (void)hash::Md5Digest::from_hex(hex);
    } else {
      (void)hash::Sha1Digest::from_hex(hex);
    }
  }
}

TargetAddOutcome MultiSweeper::add_targets(
    const std::vector<std::string>& hexes) {
  TargetAddOutcome out;
  if (hexes.empty()) return out;
  validate_target_hexes(hexes);  // throws before any state changes

  std::lock_guard lock(state_mu_);
  const std::size_t first_new_unique = parsed_->unique_count();
  bool need_full_rebuild = false;
  bool reattached = false;
  for (const std::string& hex : hexes) {
    const std::size_t slot = request_.target_hexes.size();
    std::size_t u;
    if (request_.algorithm == hash::Algorithm::kMd5) {
      const auto digest = hash::Md5Digest::from_hex(hex);
      u = find_unique(parsed_->md5_by_digest, digest);
      if (u == static_cast<std::size_t>(-1)) {
        u = parsed_->unique_count();
        parsed_->md5.push_back(digest);
        insert_by_digest(parsed_->md5_by_digest, digest, u);
        parsed_->request_slots.emplace_back();
      }
    } else {
      const auto digest = hash::Sha1Digest::from_hex(hex);
      u = find_unique(parsed_->sha1_by_digest, digest);
      if (u == static_cast<std::size_t>(-1)) {
        u = parsed_->unique_count();
        parsed_->sha1.push_back(digest);
        insert_by_digest(parsed_->sha1_by_digest, digest, u);
        parsed_->request_slots.emplace_back();
      }
    }
    request_.target_hexes.push_back(hex);
    parsed_->request_slots[u].push_back(slot);
    out.slots.push_back(slot);

    if (u >= first_new_unique) {
      // Genuinely new digest (first occurrence in this batch).
      if (u >= unique_found_.size()) {
        unique_found_.push_back(false);
        unique_removed_.push_back(false);
        unique_keys_.emplace_back();
        outstanding_count_.fetch_add(1, std::memory_order_acq_rel);
        ++out.attached;
      }
    } else if (unique_found_[u]) {
      ++out.already_found;
    } else if (unique_removed_[u]) {
      unique_removed_[u] = false;
      --dead_count_;
      outstanding_count_.fetch_add(1, std::memory_order_acq_rel);
      ++out.attached;
      reattached = true;
      // A re-attached digest that the current snapshot's contexts
      // already retired needs a from-scratch index.
      if (std::binary_search(snap_->retired.begin(), snap_->retired.end(),
                             static_cast<std::uint32_t>(u))) {
        need_full_rebuild = true;
      }
    }
    // else: still outstanding — the new slot shares its fate.
  }

  const std::size_t new_uniques = parsed_->unique_count() - first_new_unique;
  if (new_uniques == 0 && !need_full_rebuild) {
    // Dup-of-outstanding or reattach-before-retirement: every published
    // context still indexes the digest, so the current generation keeps
    // scanning correctly. Found/removed flags already updated.
    (void)reattached;
    return out;
  }

  generation_.fetch_add(1, std::memory_order_acq_rel);
  // build_snapshot_locked reads generation_ — already bumped.
  const std::shared_ptr<Snapshot> next = build_snapshot_locked();
  if (need_full_rebuild) {
    snap_ = next;
    return out;
  }

  // Incremental publish: the built tables are copied and extended with
  // the new digests — the appended slots continue the unique numbering,
  // so no rebuild and no renumbering. They retire exactly what the
  // current snapshot's tables did.
  next->retired = snap_->retired;
  const auto appended = [&](const auto& digests) {
    return std::span(digests).subspan(
        std::min(first_new_unique, digests.size()));
  };
  snap_->carry_over(
      *next,
      [&](hash::Md5MultiContext& c) { c.add_targets(appended(parsed_->md5)); },
      [&](hash::Sha1TargetTable& t) {
        t.add_targets(appended(parsed_->sha1));
      });
  snap_ = next;
  return out;
}

std::size_t MultiSweeper::remove_targets(
    const std::vector<std::string>& hexes) {
  if (hexes.empty()) return 0;
  validate_target_hexes(hexes);

  std::lock_guard lock(state_mu_);
  std::size_t detached = 0;
  for (const std::string& hex : hexes) {
    std::size_t u;
    if (request_.algorithm == hash::Algorithm::kMd5) {
      u = find_unique(parsed_->md5_by_digest,
                      hash::Md5Digest::from_hex(hex));
    } else {
      u = find_unique(parsed_->sha1_by_digest,
                      hash::Sha1Digest::from_hex(hex));
    }
    if (u == static_cast<std::size_t>(-1)) continue;
    if (unique_found_[u] || unique_removed_[u]) continue;
    unique_removed_[u] = true;
    ++dead_count_;
    outstanding_count_.fetch_sub(1, std::memory_order_acq_rel);
    ++detached;
  }
  // Removal needs no generation bump for correctness — mark_found
  // filters hits on removed digests — but dead weight is compacted
  // away once it piles up.
  if (detached > 0) maybe_compact_locked();
  return detached;
}

SweepFilterStats MultiSweeper::filter_stats() const {
  SweepFilterStats s;
  s.gate_hits = index_stats_.gate_hits.load(std::memory_order_relaxed);
  s.false_positives =
      index_stats_.false_positives.load(std::memory_order_relaxed);
  return s;
}

void MultiSweeper::fill_results(MultiCrackResult& out) const {
  std::lock_guard lock(state_mu_);
  out.targets.resize(request_.target_hexes.size());
  out.cracked = 0;
  for (std::size_t i = 0; i < request_.target_hexes.size(); ++i) {
    out.targets[i].digest_hex = request_.target_hexes[i];
  }
  for (std::size_t u = 0; u < parsed_->unique_count(); ++u) {
    if (!unique_found_[u]) continue;
    for (const std::size_t slot : parsed_->request_slots[u]) {
      out.targets[slot].found = true;
      out.targets[slot].key = unique_keys_[u];
      ++out.cracked;
    }
  }
}

std::vector<std::pair<std::string, std::string>> MultiSweeper::found_so_far()
    const {
  std::lock_guard lock(state_mu_);
  return found_log_;
}

}  // namespace gks::core
