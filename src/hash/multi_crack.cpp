#include "hash/multi_crack.h"

#include <string>

#include "hash/kernel_words.h"
#include "hash/simd/lane_vec.h"
#include "support/error.h"

namespace gks::hash {
namespace {

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 |
         static_cast<std::uint32_t>(p[3]);
}

std::array<std::uint32_t, 16> fixed_md5_words(std::string_view tail,
                                              std::size_t total_len) {
  GKS_REQUIRE(total_len <= 55, "message does not fit a single block");
  if (total_len >= 4) {
    GKS_REQUIRE(tail.size() == total_len - 4,
                "tail must hold exactly the bytes after the first word");
  } else {
    GKS_REQUIRE(tail.empty(), "short keys have no tail");
  }
  std::string message(total_len, '\0');
  for (std::size_t i = 4; i < total_len; ++i) message[i] = tail[i - 4];
  return pack_md5_block(message).words;
}

std::array<std::uint32_t, 16> fixed_sha_words(std::string_view tail,
                                              std::size_t total_len) {
  GKS_REQUIRE(total_len <= 55, "message does not fit a single block");
  if (total_len >= 4) {
    GKS_REQUIRE(tail.size() == total_len - 4,
                "tail must hold exactly the bytes after the first word");
  } else {
    GKS_REQUIRE(tail.empty(), "short keys have no tail");
  }
  std::string message(total_len, '\0');
  for (std::size_t i = 4; i < total_len; ++i) message[i] = tail[i - 4];
  return pack_sha_block(message).words;
}

std::vector<std::uint32_t> md5_index_words(
    const std::vector<Md5State<std::uint32_t>>& reverted) {
  std::vector<std::uint32_t> words;
  words.reserve(reverted.size());
  for (const auto& r : reverted) words.push_back(r.a);
  return words;
}

/// A SHA1 digest minus the feed-forward: the registers after step 79.
Sha1State<std::uint32_t> unfed_state(const Sha1Digest& t) {
  return {load_be32(t.bytes.data()) - kSha1Init[0],
          load_be32(t.bytes.data() + 4) - kSha1Init[1],
          load_be32(t.bytes.data() + 8) - kSha1Init[2],
          load_be32(t.bytes.data() + 12) - kSha1Init[3],
          load_be32(t.bytes.data() + 16) - kSha1Init[4]};
}

std::vector<std::uint32_t> sha1_index_words(
    const std::vector<Sha1State<std::uint32_t>>& unfed) {
  std::vector<std::uint32_t> words;
  words.reserve(unfed.size());
  for (const auto& u : unfed) words.push_back(u.e);
  return words;
}

}  // namespace

Md5MultiContext::Md5MultiContext(std::vector<Md5Digest> targets,
                                 std::string_view tail, std::size_t total_len,
                                 const TargetIndex::Config& index_config)
    : targets_(std::move(targets)), m_(fixed_md5_words(tail, total_len)) {
  GKS_REQUIRE(!targets_.empty(), "need at least one target digest");
  revert_from(0);
  index_ = TargetIndex(md5_index_words(reverted_), index_config);
}

void Md5MultiContext::revert_from(std::size_t begin) {
  reverted_.resize(targets_.size());
  // Every target shares the fixed message words, so the 15-step
  // reversals never diverge — revert four digests in lockstep per
  // vector pass. This is the dominant cost of building a large batch's
  // per-tail context.
  using V = simd::LaneVec<4>;
  std::array<V, 16> mv;
  for (std::size_t w = 0; w < 16; ++w) mv[w] = V(m_[w]);
  std::size_t i = begin;
  for (; i + 4 <= targets_.size(); i += 4) {
    Md5State<V> s{};
    for (std::size_t l = 0; l < 4; ++l) {
      const std::uint8_t* p = targets_[i + l].bytes.data();
      simd::lane_set(s.a, l, load_le32(p) - kMd5Init[0]);
      simd::lane_set(s.b, l, load_le32(p + 4) - kMd5Init[1]);
      simd::lane_set(s.c, l, load_le32(p + 8) - kMd5Init[2]);
      simd::lane_set(s.d, l, load_le32(p + 12) - kMd5Init[3]);
    }
    md5_reverse_steps(s, mv, 49);
    for (std::size_t l = 0; l < 4; ++l) {
      reverted_[i + l] = {simd::lane_get(s.a, l), simd::lane_get(s.b, l),
                          simd::lane_get(s.c, l), simd::lane_get(s.d, l)};
    }
  }
  for (; i < targets_.size(); ++i) {
    const std::uint8_t* p = targets_[i].bytes.data();
    Md5State<std::uint32_t> s{load_le32(p) - kMd5Init[0],
                              load_le32(p + 4) - kMd5Init[1],
                              load_le32(p + 8) - kMd5Init[2],
                              load_le32(p + 12) - kMd5Init[3]};
    md5_reverse_steps(s, m_, 49);
    reverted_[i] = s;
  }
}

void Md5MultiContext::add_targets(std::span<const Md5Digest> more) {
  if (more.empty()) return;
  const std::size_t begin = targets_.size();
  targets_.insert(targets_.end(), more.begin(), more.end());
  revert_from(begin);
  std::vector<std::uint32_t> words;
  words.reserve(more.size());
  for (std::size_t i = begin; i < reverted_.size(); ++i) {
    words.push_back(reverted_[i].a);
  }
  index_.add(words, static_cast<std::uint32_t>(begin));
}

void Md5MultiContext::retire_slots(std::span<const std::uint32_t> slots) {
  // Only the index forgets the slots; targets_/reverted_ keep the
  // holes so surviving slot numbers stay stable.
  index_.remove(slots);
}

bool Md5MultiContext::confirm(const std::array<std::uint32_t, 16>& m,
                              const Md5State<std::uint32_t>& s45,
                              std::uint32_t t45,
                              const Md5State<std::uint32_t>& r) const {
  const auto step = [&m](unsigned i, std::uint32_t va, std::uint32_t vb,
                         std::uint32_t vc, std::uint32_t vd) {
    return vb + rotl(va + md5_round_fn(i, vb, vc, vd) + m[md5_msg_index(i)] +
                         kMd5K[i],
                     kMd5S[i]);
  };
  // Finish steps 46..48 and verify the remaining three registers (the
  // index already established r.a == t45).
  const std::uint32_t a = s45.d, b = t45, c = s45.b, d = s45.c;
  const std::uint32_t t46 = step(46, a, b, c, d);
  if (t46 != r.d) return false;
  const std::uint32_t t47 = step(47, d, t46, b, c);
  if (t47 != r.c) return false;
  const std::uint32_t t48 = step(48, c, t47, t46, b);
  return t48 == r.b;
}

std::size_t Md5MultiContext::test(std::uint32_t m0) const {
  std::array<std::uint32_t, 16> m = m_;
  m[0] = m0;

  Md5State<std::uint32_t> s{kMd5Init[0], kMd5Init[1], kMd5Init[2],
                            kMd5Init[3]};
  md5_forward_steps(s, m, 45);

  // One early-exit value, one filter load — target count never enters.
  const std::uint32_t t45 =
      s.b + rotl(s.a + md5_round_fn(45, s.b, s.c, s.d) +
                     m[md5_msg_index(45)] + kMd5K[45],
                 kMd5S[45]);
  if (!index_.may_match(t45)) return npos;

  // Rare path: every target whose reverted word matches is confirmed —
  // 32-bit collisions between targets must not shadow the real one.
  const auto slots = index_.matches(t45);
  for (const std::uint32_t slot : slots) {
    if (confirm(m, s, t45, reverted_[slot])) return slot;
  }
  if (!slots.empty()) index_.note_false_positive();
  return npos;
}

void Md5MultiContext::test_hits(std::uint32_t m0, std::uint64_t offset,
                                std::vector<MultiHit>& out) const {
  std::array<std::uint32_t, 16> m = m_;
  m[0] = m0;

  Md5State<std::uint32_t> s{kMd5Init[0], kMd5Init[1], kMd5Init[2],
                            kMd5Init[3]};
  md5_forward_steps(s, m, 45);
  const std::uint32_t t45 =
      s.b + rotl(s.a + md5_round_fn(45, s.b, s.c, s.d) +
                     m[md5_msg_index(45)] + kMd5K[45],
                 kMd5S[45]);
  if (!index_.may_match(t45)) return;
  confirm_hits(m0, s, t45, offset, out);
}

void Md5MultiContext::confirm_hits(std::uint32_t m0,
                                   const Md5State<std::uint32_t>& s45,
                                   std::uint32_t t45, std::uint64_t offset,
                                   std::vector<MultiHit>& out) const {
  // The usual filter false positive resolves right here: no target owns
  // the word, so the slot lookup is the entire cost.
  const auto slots = index_.matches(t45);
  if (slots.empty()) return;
  std::array<std::uint32_t, 16> m = m_;
  m[0] = m0;
  const std::size_t before = out.size();
  for (const std::uint32_t slot : slots) {
    if (confirm(m, s45, t45, reverted_[slot])) out.push_back({offset, slot});
  }
  if (out.size() == before) index_.note_false_positive();
}

Sha1TargetTable::Sha1TargetTable(std::vector<Sha1Digest> targets,
                                 const TargetIndex::Config& index_config)
    : targets_(std::move(targets)) {
  GKS_REQUIRE(!targets_.empty(), "need at least one target digest");
  unfed_.reserve(targets_.size());
  for (const Sha1Digest& t : targets_) unfed_.push_back(unfed_state(t));
  index_ = TargetIndex(sha1_index_words(unfed_), index_config);
}

void Sha1TargetTable::add_targets(std::span<const Sha1Digest> more) {
  if (more.empty()) return;
  const std::size_t begin = targets_.size();
  targets_.insert(targets_.end(), more.begin(), more.end());
  std::vector<std::uint32_t> words;
  words.reserve(more.size());
  for (const Sha1Digest& t : more) {
    unfed_.push_back(unfed_state(t));
    words.push_back(unfed_.back().e);
  }
  index_.add(words, static_cast<std::uint32_t>(begin));
}

void Sha1TargetTable::retire_slots(std::span<const std::uint32_t> slots) {
  index_.remove(slots);
}

Sha1MultiContext::Sha1MultiContext(std::vector<Sha1Digest> targets,
                                   std::string_view tail,
                                   std::size_t total_len,
                                   const TargetIndex::Config& index_config)
    : Sha1MultiContext(std::make_shared<const Sha1TargetTable>(
                           std::move(targets), index_config),
                       fixed_sha_words(tail, total_len)) {}

Sha1MultiContext::Sha1MultiContext(
    std::shared_ptr<const Sha1TargetTable> table,
    const std::array<std::uint32_t, 16>& message_words)
    : table_(std::move(table)), m_(message_words) {
  GKS_REQUIRE(table_ != nullptr, "need a target table");
}

Sha1MultiContext Sha1MultiContext::view(
    std::shared_ptr<const Sha1TargetTable> table, std::string_view tail,
    std::size_t total_len) {
  return Sha1MultiContext(std::move(table), fixed_sha_words(tail, total_len));
}

void Sha1MultiContext::add_targets(std::span<const Sha1Digest> more) {
  if (more.empty()) return;
  auto next = std::make_shared<Sha1TargetTable>(*table_);
  next->add_targets(more);
  table_ = std::move(next);
}

void Sha1MultiContext::retire_slots(std::span<const std::uint32_t> slots) {
  if (slots.empty()) return;
  auto next = std::make_shared<Sha1TargetTable>(*table_);
  next->retire_slots(slots);
  table_ = std::move(next);
}

bool Sha1MultiContext::confirm(std::array<std::uint32_t, 16> ring,
                               std::uint32_t a, std::uint32_t b,
                               std::uint32_t c, std::uint32_t d,
                               std::uint32_t e,
                               const Sha1State<std::uint32_t>& u) const {
  // Steps 76..79 on private copies of the ring and registers, so one
  // confirm cannot corrupt the state another colliding target needs.
  const auto advance = [&](unsigned t, std::uint32_t wt) {
    const std::uint32_t f = sha1_round_fn(t, b, c, d);
    const std::uint32_t temp = rotl(a, 5) + f + e + wt + kSha1K[t / 20];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = temp;
  };
  advance(76, sha1_expand(ring, 76));
  if (rotl(a, 30) != u.d) return false;
  advance(77, sha1_expand(ring, 77));
  if (rotl(a, 30) != u.c) return false;
  advance(78, sha1_expand(ring, 78));
  if (a != u.b) return false;
  advance(79, sha1_expand(ring, 79));
  return a == u.a;
}

std::size_t Sha1MultiContext::test(std::uint32_t w0) const {
  std::array<std::uint32_t, 16> ring = m_;
  ring[0] = w0;

  std::uint32_t a = kSha1Init[0], b = kSha1Init[1], c = kSha1Init[2],
                d = kSha1Init[3], e = kSha1Init[4];
  const auto advance = [&](unsigned t, std::uint32_t wt) {
    const std::uint32_t f = sha1_round_fn(t, b, c, d);
    const std::uint32_t temp = rotl(a, 5) + f + e + wt + kSha1K[t / 20];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = temp;
  };
  for (unsigned t = 0; t < 16; ++t) advance(t, ring[t]);
  for (unsigned t = 16; t < 76; ++t) advance(t, sha1_expand(ring, t));

  const std::uint32_t check = rotl(a, 30);
  const TargetIndex& index = table_->index();
  if (!index.may_match(check)) return npos;
  const auto slots = index.matches(check);
  for (const std::uint32_t slot : slots) {
    if (confirm(ring, a, b, c, d, e, table_->unfed(slot))) return slot;
  }
  if (!slots.empty()) index.note_false_positive();
  return npos;
}

void Sha1MultiContext::test_hits(std::uint32_t w0, std::uint64_t offset,
                                 std::vector<MultiHit>& out) const {
  std::array<std::uint32_t, 16> ring = m_;
  ring[0] = w0;

  std::uint32_t a = kSha1Init[0], b = kSha1Init[1], c = kSha1Init[2],
                d = kSha1Init[3], e = kSha1Init[4];
  const auto advance = [&](unsigned t, std::uint32_t wt) {
    const std::uint32_t f = sha1_round_fn(t, b, c, d);
    const std::uint32_t temp = rotl(a, 5) + f + e + wt + kSha1K[t / 20];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = temp;
  };
  for (unsigned t = 0; t < 16; ++t) advance(t, ring[t]);
  for (unsigned t = 16; t < 76; ++t) advance(t, sha1_expand(ring, t));

  if (!table_->index().may_match(rotl(a, 30))) return;
  confirm_hits(ring, a, b, c, d, e, offset, out);
}

void Sha1MultiContext::confirm_hits(const std::array<std::uint32_t, 16>& ring,
                                    std::uint32_t a, std::uint32_t b,
                                    std::uint32_t c, std::uint32_t d,
                                    std::uint32_t e, std::uint64_t offset,
                                    std::vector<MultiHit>& out) const {
  const TargetIndex& index = table_->index();
  const auto slots = index.matches(rotl(a, 30));
  if (slots.empty()) return;
  const std::size_t before = out.size();
  for (const std::uint32_t slot : slots) {
    if (confirm(ring, a, b, c, d, e, table_->unfed(slot))) {
      out.push_back({offset, slot});
    }
  }
  if (out.size() == before) index.note_false_positive();
}

void md5_multi_scan_prefixes(const Md5MultiContext& ctx,
                             PrefixWord0Iterator& it, std::uint64_t count,
                             std::vector<MultiHit>& hits) {
  for (std::uint64_t i = 0; i < count; ++i) {
    ctx.test_hits(it.word0(), i, hits);
    it.advance();
  }
}

void sha1_multi_scan_prefixes(const Sha1MultiContext& ctx,
                              PrefixWord0Iterator& it, std::uint64_t count,
                              std::vector<MultiHit>& hits) {
  for (std::uint64_t i = 0; i < count; ++i) {
    ctx.test_hits(it.word0(), i, hits);
    it.advance();
  }
}

}  // namespace gks::hash
