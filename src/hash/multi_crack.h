#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "hash/digest.h"
#include "hash/md5_crack.h"  // PrefixWord0Iterator
#include "hash/md5_kernel.h"
#include "hash/sha1_kernel.h"
#include "hash/target_index.h"

namespace gks::hash {

/// One multi-target scan hit: the candidate's offset into the scanned
/// range and the matching target slot (index into the context's target
/// vector). A candidate can produce several hits when the batch holds
/// duplicate digests.
struct MultiHit {
  std::uint64_t offset;
  std::uint32_t slot;

  friend bool operator==(const MultiHit&, const MultiHit&) = default;
};

/// Multi-target MD5 crack context: tests one candidate against many
/// digests with a *single* forward computation.
///
/// The kernel's forward steps depend only on the message, never on the
/// target — targets enter solely through the final comparisons. A
/// candidate costs the usual 45 steps plus one early-exit value; the
/// targets are then consulted through a shared TargetIndex over their
/// reverted t45 words, so the per-candidate cost is O(1) expected
/// *regardless of target count* (one filter load on the common miss,
/// a binary search plus confirm steps on the rare word match). Cracking
/// N digests over the same key space therefore costs essentially the
/// same as cracking one — the engine auditing sessions (Section I) use.
class Md5MultiContext {
 public:
  /// All targets share the fixed tail/total_len (same key-space sweep).
  /// `index_config` selects the front-gate geometry (direct bit array
  /// vs blocked Bloom), its false-positive rate, and the optional
  /// shared stats sink — see TargetIndex::Config.
  Md5MultiContext(std::vector<Md5Digest> targets, std::string_view tail,
                  std::size_t total_len,
                  const TargetIndex::Config& index_config = {});

  /// Live mutation: appends targets (they take slots target_count()..)
  /// or detaches slots from the index. Retired digests keep their slot
  /// numbers — the target vector holds the hole — so hits reported by
  /// concurrent snapshot users never renumber.
  void add_targets(std::span<const Md5Digest> more);
  void retire_slots(std::span<const std::uint32_t> slots);

  /// Tests a candidate word 0; returns the lowest-numbered matching
  /// target, or npos (the overwhelmingly common case). Targets whose
  /// reverted word collides on 32 bits are each confirmed — a word
  /// match never shadows the real target behind it.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t test(std::uint32_t m0) const;

  /// Appends {offset, slot} for *every* target the candidate fully
  /// matches (duplicates included), slots ascending. Used by the scan
  /// drivers, which must report all hits, not just the first.
  void test_hits(std::uint32_t m0, std::uint64_t offset,
                 std::vector<MultiHit>& out) const;

  /// Resolves a filter hit from state a scan engine already computed:
  /// `s45` is the state after step 45 and `t45` the early-exit value for
  /// candidate word `m0`. Appends exactly what test_hits(m0, ...) would,
  /// without redoing the 45 forward steps — lane kernels hold that state
  /// in registers, so a filter false positive costs only the slot lookup
  /// here instead of a full scalar recompute.
  void confirm_hits(std::uint32_t m0, const Md5State<std::uint32_t>& s45,
                    std::uint32_t t45, std::uint64_t offset,
                    std::vector<MultiHit>& out) const;

  std::size_t target_count() const { return reverted_.size(); }
  const std::vector<Md5Digest>& targets() const { return targets_; }

  /// Fixed message words (word 0 is a placeholder) — lane kernels.
  const std::array<std::uint32_t, 16>& message_words() const { return m_; }

  /// Index over the targets' reverted t45 words — lane kernels probe it
  /// per lane and confirm only on filter hits.
  const TargetIndex& index() const { return index_; }

 private:
  bool confirm(const std::array<std::uint32_t, 16>& m,
               const Md5State<std::uint32_t>& s45, std::uint32_t t45,
               const Md5State<std::uint32_t>& reverted) const;
  void revert_from(std::size_t begin);

  std::vector<Md5Digest> targets_;
  std::array<std::uint32_t, 16> m_{};
  std::vector<Md5State<std::uint32_t>> reverted_;
  TargetIndex index_;
};

/// The tail-independent half of SHA1 multi-target cracking: the
/// targets, their feed-forward-reverted states and the TargetIndex over
/// the reverted `e` words. Unlike MD5's 15-step reversal, undoing the
/// feed-forward never touches the message words, so one table serves
/// every tail of a sweep. Contexts share it as shared_ptr<const>; the
/// mutators below are only for a table nobody else holds yet (a fresh
/// copy), which is how Sha1MultiContext::add_targets/retire_slots keep a
/// shared table immutable.
class Sha1TargetTable {
 public:
  explicit Sha1TargetTable(std::vector<Sha1Digest> targets,
                           const TargetIndex::Config& index_config = {});

  /// Same slot-stability contract as Md5MultiContext: appended targets
  /// take slots target_count()..; retired slots keep their holes.
  void add_targets(std::span<const Sha1Digest> more);
  void retire_slots(std::span<const std::uint32_t> slots);

  std::size_t target_count() const { return unfed_.size(); }
  const std::vector<Sha1Digest>& targets() const { return targets_; }
  const Sha1State<std::uint32_t>& unfed(std::uint32_t slot) const {
    return unfed_[slot];
  }
  const TargetIndex& index() const { return index_; }

 private:
  std::vector<Sha1Digest> targets_;
  std::vector<Sha1State<std::uint32_t>> unfed_;
  TargetIndex index_;
};

/// SHA1 counterpart: steps 0..75 run once, the early-exit comparison
/// value is looked up in the index over every target's
/// feed-forward-reverted `e` word. A context is a per-tail view — the
/// 16 fixed message words — over a Sha1TargetTable that may be shared
/// with any number of other tails' contexts.
class Sha1MultiContext {
 public:
  /// Builds a private table over `targets`.
  Sha1MultiContext(std::vector<Sha1Digest> targets, std::string_view tail,
                   std::size_t total_len,
                   const TargetIndex::Config& index_config = {});
  /// A view of an existing table: only the message words are computed,
  /// so creating one per scanned chunk is cheap.
  static Sha1MultiContext view(std::shared_ptr<const Sha1TargetTable> table,
                               std::string_view tail, std::size_t total_len);

  /// Live mutation — same slot-stability contract as Md5MultiContext.
  /// Copy-on-write: the table is copied before it changes, so other
  /// holders of the old table (copies of this context, other tails'
  /// views) keep seeing exactly the targets they had.
  void add_targets(std::span<const Sha1Digest> more);
  void retire_slots(std::span<const std::uint32_t> slots);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t test(std::uint32_t w0) const;

  void test_hits(std::uint32_t w0, std::uint64_t offset,
                 std::vector<MultiHit>& out) const;

  /// Filter-hit resolution from precomputed state: `ring` holds the last
  /// 16 schedule words and a..e the registers, both as of step 76 (after
  /// 76 steps, before step 76's expansion). Appends exactly what
  /// test_hits(w0, ...) would without redoing the 76 steps.
  void confirm_hits(const std::array<std::uint32_t, 16>& ring,
                    std::uint32_t a, std::uint32_t b, std::uint32_t c,
                    std::uint32_t d, std::uint32_t e, std::uint64_t offset,
                    std::vector<MultiHit>& out) const;

  std::size_t target_count() const { return table_->target_count(); }
  const std::vector<Sha1Digest>& targets() const { return table_->targets(); }
  const std::shared_ptr<const Sha1TargetTable>& table() const {
    return table_;
  }

  const std::array<std::uint32_t, 16>& message_words() const { return m_; }
  const TargetIndex& index() const { return table_->index(); }

 private:
  bool confirm(std::array<std::uint32_t, 16> ring, std::uint32_t a,
               std::uint32_t b, std::uint32_t c, std::uint32_t d,
               std::uint32_t e, const Sha1State<std::uint32_t>& unfed) const;

  Sha1MultiContext(std::shared_ptr<const Sha1TargetTable> table,
                   const std::array<std::uint32_t, 16>& message_words);

  std::shared_ptr<const Sha1TargetTable> table_;
  std::array<std::uint32_t, 16> m_{};
};

/// Scans `count` consecutive prefix-major candidates from the
/// iterator's position, appending every hit (offset relative to the
/// scan start, hits offset-ascending). Unlike the single-target
/// scanners these never stop early — a batch sweep wants all hits in
/// the range. The iterator is left past the scanned range. These are
/// the scalar reference engines; the lane-vectorized counterparts live
/// behind hash/simd/dispatch.h and are bit-identical.
void md5_multi_scan_prefixes(const Md5MultiContext& ctx,
                             PrefixWord0Iterator& it, std::uint64_t count,
                             std::vector<MultiHit>& hits);
void sha1_multi_scan_prefixes(const Sha1MultiContext& ctx,
                              PrefixWord0Iterator& it, std::uint64_t count,
                              std::vector<MultiHit>& hits);

}  // namespace gks::hash
