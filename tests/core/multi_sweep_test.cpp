// Live-mutation coverage for the sweep engine: targets added while the
// space is being swept, removals detaching digests mid-flight,
// generation handoff between snapshots, compaction at dead-slot
// pile-up, and the exactly-once accounting that survives all of it.

#include "core/multi_sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "hash/md5.h"
#include "hash/sha1.h"
#include "keyspace/codec.h"
#include "keyspace/space.h"
#include "support/error.h"

namespace gks::core {
namespace {

MultiCrackRequest md5_request(const std::vector<std::string>& keys,
                              keyspace::Charset charset, unsigned min_len,
                              unsigned max_len) {
  MultiCrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.charset = std::move(charset);
  request.min_length = min_len;
  request.max_length = max_len;
  for (const auto& k : keys) {
    request.target_hexes.push_back(hash::Md5::digest(k).to_hex());
  }
  return request;
}

/// The key at generator-relative id `rel_id` of the request's space —
/// the same mapping the sweeper scans in, so tests can plant targets
/// at chosen sweep positions.
std::string key_at(const MultiCrackRequest& request, u128 rel_id) {
  const keyspace::KeyCodec codec(request.charset,
                                 keyspace::DigitOrder::kPrefixFastest);
  const u128 offset = keyspace::first_id_of_length(request.charset.size(),
                                                   request.min_length);
  return codec.decode(rel_id + offset);
}

std::string md5_hex(const std::string& key) {
  return hash::Md5::digest(key).to_hex();
}

/// Drives [begin, end) through the sweeper in `step`-sized slices the
/// way the job service does: every scan's untested remainder (yielded
/// on generation handoff) is simply re-dispatched. Returns the number
/// of request slots resolved via mark_found — the exactly-once
/// observable.
std::size_t drive(MultiSweeper& sweeper, u128 begin, u128 end, u128 step) {
  std::size_t resolved = 0;
  std::vector<SweepHit> hits;
  u128 pos = begin;
  while (pos < end) {
    u128 stop = pos + step;
    if (stop > end) stop = end;
    hits.clear();
    pos += sweeper.scan(keyspace::Interval(pos, stop), hits);
    for (const SweepHit& h : hits) {
      resolved += sweeper.mark_found(h.unique_index, h.key).size();
    }
  }
  return resolved;
}

TEST(MultiSweep, TargetAddedBeforeItsCoveringIntervalIsFound) {
  // Space "abcd" x 1..6 = 5460 ids swept in 500-id slices. The second
  // target is attached only once a third of the space is covered; its
  // key lives at three quarters — added before its covering interval,
  // so the sweep must recover it.
  auto request = md5_request({"a"}, keyspace::Charset("abcd"), 1, 6);
  request.target_hexes[0] = md5_hex(key_at(request, u128(10)));
  MultiSweeper sweeper(request);
  const u128 space = sweeper.space_size();
  const std::string late_key = key_at(request, space * u128(3) / u128(4));

  std::size_t resolved = drive(sweeper, u128(0), space / u128(3), u128(500));
  EXPECT_EQ(resolved, 1u);  // the early target
  const std::uint64_t gen_before = sweeper.generation();

  const TargetAddOutcome out = sweeper.add_targets({md5_hex(late_key)});
  EXPECT_EQ(out.attached, 1u);
  EXPECT_EQ(out.already_found, 0u);
  ASSERT_EQ(out.slots.size(), 1u);
  EXPECT_EQ(out.slots[0], 1u);
  EXPECT_GT(sweeper.generation(), gen_before);
  EXPECT_EQ(sweeper.outstanding_count(), 1u);

  resolved += drive(sweeper, space / u128(3), space, u128(500));
  EXPECT_EQ(resolved, 2u);
  EXPECT_TRUE(sweeper.all_found());

  MultiCrackResult result;
  sweeper.fill_results(result);
  ASSERT_EQ(result.targets.size(), 2u);
  EXPECT_TRUE(result.targets[1].found);
  EXPECT_EQ(result.targets[1].key, late_key);
  EXPECT_EQ(sweeper.slot_hex(1), md5_hex(late_key));
}

TEST(MultiSweep, DuplicateOfRecoveredTargetResolvesInstantly) {
  auto request = md5_request({"ba"}, keyspace::Charset("ab"), 1, 2);
  MultiSweeper sweeper(request);
  drive(sweeper, u128(0), sweeper.space_size(), u128(2));
  ASSERT_TRUE(sweeper.all_found());

  // Same digest again: no new outstanding work, flagged already-found,
  // and the new request slot reports the recovered key.
  const TargetAddOutcome out = sweeper.add_targets({md5_hex("ba")});
  EXPECT_EQ(out.attached, 0u);
  EXPECT_EQ(out.already_found, 1u);
  EXPECT_TRUE(sweeper.all_found());

  MultiCrackResult result;
  sweeper.fill_results(result);
  ASSERT_EQ(result.targets.size(), 2u);
  EXPECT_TRUE(result.targets[1].found);
  EXPECT_EQ(result.targets[1].key, "ba");
  EXPECT_EQ(result.cracked, 2u);
}

TEST(MultiSweep, RemoveDetachesAndSuppressesItsHits) {
  auto request = md5_request({"ab", "ba"}, keyspace::Charset("ab"), 2, 2);
  MultiSweeper sweeper(request);
  EXPECT_EQ(sweeper.outstanding_count(), 2u);

  EXPECT_EQ(sweeper.remove_targets({md5_hex("ab")}), 1u);
  EXPECT_EQ(sweeper.outstanding_count(), 1u);
  // Unknown digests and repeat removals are ignored, not errors.
  EXPECT_EQ(sweeper.remove_targets({md5_hex("zz-unknown")}), 0u);
  EXPECT_EQ(sweeper.remove_targets({md5_hex("ab")}), 0u);

  // A stale-snapshot hit on the removed digest resolves to no slots —
  // the removed target can never reach the found log.
  EXPECT_TRUE(sweeper.mark_found_hex(md5_hex("ab"), "ab").empty());

  const std::size_t resolved =
      drive(sweeper, u128(0), sweeper.space_size(), u128(2));
  EXPECT_EQ(resolved, 1u);
  EXPECT_TRUE(sweeper.all_found());

  MultiCrackResult result;
  sweeper.fill_results(result);
  EXPECT_FALSE(result.targets[0].found);
  EXPECT_TRUE(result.targets[1].found);
  EXPECT_TRUE(sweeper.found_so_far().size() == 1 &&
              sweeper.found_so_far()[0].second == "ba");
}

TEST(MultiSweep, ReattachAfterRemoveRecoversOnBothSlots) {
  auto request = md5_request({"ba"}, keyspace::Charset("ab"), 1, 2);
  MultiSweeper sweeper(request);
  ASSERT_EQ(sweeper.remove_targets({md5_hex("ba")}), 1u);
  ASSERT_TRUE(sweeper.all_found());  // nothing outstanding

  const TargetAddOutcome out = sweeper.add_targets({md5_hex("ba")});
  EXPECT_EQ(out.attached, 1u);
  EXPECT_EQ(sweeper.outstanding_count(), 1u);

  const std::size_t resolved =
      drive(sweeper, u128(0), sweeper.space_size(), u128(2));
  // One unique digest, two request slots: the original (re-attached)
  // and the one added back — a single recovery resolves both.
  EXPECT_EQ(resolved, 2u);
  MultiCrackResult result;
  sweeper.fill_results(result);
  ASSERT_EQ(result.targets.size(), 2u);
  EXPECT_TRUE(result.targets[0].found);
  EXPECT_TRUE(result.targets[1].found);
  EXPECT_EQ(result.cracked, 2u);
}

TEST(MultiSweep, CompactionKeepsRemainingTargetsFindable) {
  // 700 targets in the first 700 ids plus one at the very end of a
  // 10^4 space: recovering the bulk crosses the compaction threshold
  // (>= 256 newly dead and a majority of the live index), so the last
  // target must be found by post-compaction contexts.
  const keyspace::Charset charset("abcdefghij");
  MultiCrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.charset = charset;
  request.min_length = 4;
  request.max_length = 4;
  MultiCrackRequest probe = request;
  probe.target_hexes = {md5_hex("aaaa")};
  for (u128 id(0); id < u128(700); ++id) {
    request.target_hexes.push_back(md5_hex(key_at(probe, id)));
  }
  const std::string last_key = key_at(probe, u128(9999));
  request.target_hexes.push_back(md5_hex(last_key));

  MultiSweeper sweeper(request);
  const std::size_t resolved =
      drive(sweeper, u128(0), sweeper.space_size(), u128(1000));
  EXPECT_EQ(resolved, 701u);
  EXPECT_TRUE(sweeper.all_found());
  EXPECT_GT(sweeper.generation(), 0u);  // compaction published a snapshot

  MultiCrackResult result;
  sweeper.fill_results(result);
  EXPECT_TRUE(result.targets.back().found);
  EXPECT_EQ(result.targets.back().key, last_key);
}

TEST(MultiSweep, MarkFoundIsExactlyOnceAcrossPaths) {
  auto request = md5_request({"ab", "ba"}, keyspace::Charset("ab"), 2, 2);
  MultiSweeper sweeper(request);

  // Unique indices are digest-sorted, so the hex path selects targets
  // deterministically; the index path must agree on duplicates.
  EXPECT_EQ(sweeper.mark_found_hex(md5_hex("ab"), "ab").size(), 1u);
  EXPECT_TRUE(sweeper.mark_found_hex(md5_hex("ab"), "ab").empty());
  EXPECT_EQ(sweeper.mark_found_hex(md5_hex("ba"), "ba").size(), 1u);
  EXPECT_TRUE(sweeper.mark_found(0, "ab").empty());  // duplicate hit
  EXPECT_TRUE(sweeper.mark_found(1, "ba").empty());
  EXPECT_TRUE(sweeper.mark_found_hex(md5_hex("nope"), "x").empty());

  EXPECT_TRUE(sweeper.all_found());
  EXPECT_EQ(sweeper.found_so_far().size(), 2u);
}

TEST(MultiSweep, AddValidatesHexesBeforeMutating) {
  auto request = md5_request({"ba"}, keyspace::Charset("ab"), 1, 2);
  MultiSweeper sweeper(request);
  const std::uint64_t gen = sweeper.generation();
  EXPECT_THROW(sweeper.add_targets({md5_hex("ok"), "not-a-digest"}),
               InvalidArgument);
  EXPECT_THROW(sweeper.remove_targets({"xyz"}), InvalidArgument);
  EXPECT_EQ(sweeper.slot_count(), 1u);
  EXPECT_EQ(sweeper.unique_count(), 1u);
  EXPECT_EQ(sweeper.generation(), gen);
}

TEST(MultiSweep, FilterStatsAccumulateOverScans) {
  auto request = md5_request({"dcba"}, keyspace::Charset("abcd"), 4, 4);
  MultiSweeper sweeper(request);
  std::vector<SweepHit> hits;
  sweeper.scan(sweeper.space_interval(), hits);
  ASSERT_EQ(hits.size(), 1u);
  // The real recovery necessarily passed the gate at least once.
  EXPECT_GE(sweeper.filter_stats().gate_hits, 1u);
}

TEST(MultiSweep, ConcurrentAddDuringScanIsNeverMissed) {
  // A worker sweeps the space in slices while the main thread attaches
  // a target planted in the second half. The worker holds at the
  // halfway mark until the add lands, so the covering interval is
  // always scanned after the attach — under any interleaving the key
  // must be recovered, possibly via a generation-yield + re-dispatch.
  auto request = md5_request({"zz"}, keyspace::Charset::lower(), 1, 3);
  MultiSweeper sweeper(request);
  const u128 space = sweeper.space_size();
  const u128 hold_point = space / u128(2);
  const std::string late_key = key_at(request, space - u128(2));

  std::atomic<std::uint64_t> covered{0};
  std::atomic<bool> added{false};
  std::atomic<std::size_t> resolved{0};

  std::thread worker([&] {
    std::vector<SweepHit> hits;
    u128 pos(0);
    while (pos < space) {
      if (pos >= hold_point && !added.load(std::memory_order_acquire)) {
        std::this_thread::yield();
        continue;
      }
      u128 stop = pos + u128(700);
      if (stop > space) stop = space;
      hits.clear();
      pos += sweeper.scan(keyspace::Interval(pos, stop), hits);
      for (const SweepHit& h : hits) {
        resolved.fetch_add(sweeper.mark_found(h.unique_index, h.key).size());
      }
      covered.store(pos.to_u64(), std::memory_order_release);
    }
  });

  while (covered.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  const TargetAddOutcome out = sweeper.add_targets({md5_hex(late_key)});
  EXPECT_EQ(out.attached, 1u);
  added.store(true, std::memory_order_release);
  worker.join();

  EXPECT_EQ(resolved.load(), 2u);
  EXPECT_TRUE(sweeper.all_found());
  MultiCrackResult result;
  sweeper.fill_results(result);
  ASSERT_EQ(result.targets.size(), 2u);
  EXPECT_TRUE(result.targets[0].found);
  EXPECT_EQ(result.targets[0].key, "zz");
  EXPECT_TRUE(result.targets[1].found);
  EXPECT_EQ(result.targets[1].key, late_key);
}

std::string sha1_hex(const std::string& key) {
  return hash::Sha1::digest(key).to_hex();
}

TEST(MultiSweep, Sha1SweepAcrossTailsSurvivesAddRemoveAndCompaction) {
  // Ten 10^4-id tails of a 5-char space share one SHA1 table. The 700
  // targets in the first tail drive compaction once recovered; one key
  // per later tail is planted up front, one is added mid-sweep, one is
  // removed mid-sweep. Every surviving key is recovered exactly once.
  MultiCrackRequest request;
  request.algorithm = hash::Algorithm::kSha1;
  request.charset = keyspace::Charset("abcdefghij");
  request.min_length = 5;
  request.max_length = 5;
  std::vector<std::string> keys;
  for (u128 id(0); id < u128(700); ++id) keys.push_back(key_at(request, id));
  for (std::uint64_t tail = 1; tail < 10; ++tail) {
    keys.push_back(key_at(request, u128(tail * 10000 + tail * 37)));
  }
  for (const auto& k : keys) request.target_hexes.push_back(sha1_hex(k));
  const std::string added_key = key_at(request, u128(8 * 10000 + 4321));
  const std::string removed_key = keys.back();  // last tail's plant

  MultiSweeper sweeper(request);
  std::vector<std::size_t> resolved_per_slot(keys.size() + 1, 0);
  std::vector<SweepHit> hits;
  const u128 space = sweeper.space_size();
  ASSERT_EQ(space, u128(100000));
  bool mutated = false;
  u128 pos(0);
  while (pos < space) {
    if (!mutated && pos >= u128(20000)) {
      // Past compaction (the first tail's 700 are found), before the
      // tails the mutations touch.
      EXPECT_GT(sweeper.generation(), 0u);
      EXPECT_EQ(sweeper.add_targets({sha1_hex(added_key)}).attached, 1u);
      EXPECT_EQ(sweeper.remove_targets({sha1_hex(removed_key)}), 1u);
      mutated = true;
    }
    const u128 stop = std::min(pos + u128(3000), space);
    hits.clear();
    pos += sweeper.scan(keyspace::Interval(pos, stop), hits);
    for (const SweepHit& h : hits) {
      for (const std::size_t slot : sweeper.mark_found(h.unique_index, h.key)) {
        ++resolved_per_slot[slot];
      }
    }
  }

  MultiCrackResult result;
  sweeper.fill_results(result);
  ASSERT_EQ(result.targets.size(), keys.size() + 1);
  for (std::size_t slot = 0; slot < keys.size(); ++slot) {
    const bool removed = keys[slot] == removed_key;
    EXPECT_EQ(resolved_per_slot[slot], removed ? 0u : 1u) << keys[slot];
    EXPECT_EQ(result.targets[slot].found, !removed) << keys[slot];
    if (!removed) {
      EXPECT_EQ(result.targets[slot].key, keys[slot]);
    }
  }
  EXPECT_EQ(resolved_per_slot.back(), 1u);
  EXPECT_EQ(result.targets.back().key, added_key);
  EXPECT_TRUE(sweeper.all_found());
  // The add published another generation on top of the compaction.
  EXPECT_GE(sweeper.generation(), 2u);
}

/// Eight threads scan the same cold tail of a fresh sweeper at once;
/// the snapshot's table for it must be built exactly once, with every
/// thread seeing the same hits.
void expect_single_flight_build(MultiCrackRequest request,
                                std::size_t planted) {
  // Without lane scanning calibrate() has nothing to time and builds no
  // table, so the threads meet at the cold one.
  request.lane_scanning = false;
  MultiSweeper sweeper(request);
  sweeper.calibrate();
  ASSERT_EQ(sweeper.table_builds(), 0u);

  constexpr int kThreads = 8;
  const keyspace::Interval tail(u128(0), u128(10000));
  std::atomic<int> ready{0};
  std::vector<std::vector<SweepHit>> hits(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      EXPECT_EQ(sweeper.scan(tail, hits[t]), tail.size());
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(sweeper.table_builds(), 1u);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(hits[t].size(), planted) << "thread " << t;
  }
}

MultiCrackRequest planted_request(hash::Algorithm algorithm) {
  // 4096 targets make each build take long enough for real overlap.
  MultiCrackRequest request;
  request.algorithm = algorithm;
  request.charset = keyspace::Charset("abcdefghij");
  request.min_length = 5;
  request.max_length = 5;
  for (u128 id(0); id < u128(4096); ++id) {
    const std::string key = key_at(request, id * u128(24));
    request.target_hexes.push_back(algorithm == hash::Algorithm::kMd5
                                       ? md5_hex(key)
                                       : sha1_hex(key));
  }
  return request;
}

TEST(MultiSweep, ColdMd5TailIsBuiltOnceUnderConcurrentScans) {
  // Ids 0, 24, ..., 9984 fall in the first tail: 417 of the targets.
  expect_single_flight_build(planted_request(hash::Algorithm::kMd5), 417);
}

TEST(MultiSweep, ColdSha1TableIsBuiltOnceUnderConcurrentScans) {
  expect_single_flight_build(planted_request(hash::Algorithm::kSha1), 417);
}

TEST(MultiSweep, Sha1TailsShareOneTablePerSnapshot) {
  // A whole-space sweep over ten tails builds the SHA1 table once; MD5
  // builds one context per tail. Calibration builds the table the
  // first tail then scans with, not a private copy.
  auto sha1 = planted_request(hash::Algorithm::kSha1);
  MultiSweeper sha1_sweeper(sha1);
  sha1_sweeper.calibrate();
  EXPECT_EQ(sha1_sweeper.table_builds(), 1u);
  std::vector<SweepHit> hits;
  sha1_sweeper.scan(sha1_sweeper.space_interval(), hits);
  EXPECT_EQ(hits.size(), 4096u);
  EXPECT_EQ(sha1_sweeper.table_builds(), 1u);

  auto md5 = planted_request(hash::Algorithm::kMd5);
  MultiSweeper md5_sweeper(md5);
  md5_sweeper.calibrate();
  EXPECT_EQ(md5_sweeper.table_builds(), 1u);
  hits.clear();
  md5_sweeper.scan(md5_sweeper.space_interval(), hits);
  EXPECT_EQ(hits.size(), 4096u);
  EXPECT_EQ(md5_sweeper.table_builds(), 10u);
}

TEST(MultiSweep, CalibrationTrafficIsNotCountedAsGateTraffic) {
  // The probe scans thousands of candidates through the gate; none of
  // that is the job's traffic.
  auto request = planted_request(hash::Algorithm::kSha1);
  MultiSweeper sweeper(request);
  sweeper.calibrate();
  EXPECT_EQ(sweeper.filter_stats().gate_hits, 0u);
  EXPECT_EQ(sweeper.filter_stats().false_positives, 0u);
}

}  // namespace
}  // namespace gks::core
