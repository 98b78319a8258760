#include "fcm/fcm_tree.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "common/bitutil.h"
#include "common/contracts.h"

namespace fcm::core {

FcmTree::FcmTree(const FcmConfig& config, common::SeededHash hash)
    : config_(config), hash_(hash) {
  config_.validate();
  const std::size_t levels = config_.stage_count();
  stages_.reserve(levels);
  counting_max_.resize(levels);
  marker_.resize(levels);
  for (std::size_t l = 1; l <= levels; ++l) {
    const std::size_t width = config_.width(l);
    switch (config_.stage_bytes(l)) {
      case 1:
        stages_.emplace_back(std::vector<std::uint8_t>(width, 0));
        break;
      case 2:
        stages_.emplace_back(std::vector<std::uint16_t>(width, 0));
        break;
      default:
        stages_.emplace_back(std::vector<std::uint32_t>(width, 0));
        break;
    }
    counting_max_[l - 1] =
        common::checked_narrow<std::uint32_t>(config_.counting_max(l));
    marker_[l - 1] = counting_max_[l - 1] + 1;
  }
}

std::uint64_t FcmTree::add_at(std::size_t index, std::uint64_t count) {
  std::uint64_t estimate = 0;
  std::uint64_t carry = count;
  const std::size_t levels = stages_.size();

  for (std::size_t l = 0; l < levels; ++l) {
    const std::uint64_t cap = counting_max_[l];
    const std::uint64_t mark = marker_[l];
    // True once the carry settles in this level's node.
    const bool settled = std::visit(
        [&](auto& nodes) {
          using T = typename std::decay_t<decltype(nodes)>::value_type;
          T& node = nodes[index];
          if (node == mark) {
            // Already overflowed: everything carries forward (Algorithm 1
            // skips the increment and recurses).
            estimate += cap;
            return false;
          }
          const std::uint64_t room = cap - node;
          if (carry <= room) {
            node = common::checked_narrow<T>(node + carry);
            estimate += node;
            return true;
          }
          // The increments fill the node and trip the overflow marker; the
          // remainder (including the tripping increment) carries forward.
          carry -= room;
          node = common::checked_narrow<T>(mark);
          estimate += cap;
          ++promotions_;  // observability: a fresh overflow promotion
          return false;
        },
        stages_[l]);
    if (settled || l + 1 == levels) {
      // The final stage has no parent; counts beyond its range are lost
      // (unreachable with 32-bit roots in practice).
      return estimate;
    }
    index /= config_.k;
  }
  return estimate;
}

namespace {

// Requests the level-1 counter line of every index in `idx` for writing;
// the stride is the stage's element width.
template <typename T>
void prefetch_level1(const std::vector<T>& level1,
                     std::span<const std::uint32_t> idx) noexcept {
  const T* const base = level1.data();
  for (const std::uint32_t i : idx) FCM_PREFETCH_WRITE(base + i);
}

}  // namespace

void FcmTree::index_block(std::span<const flow::FlowKey> keys,
                          std::span<std::uint32_t> idx) const noexcept {
  // One tight inline loop of hashes + fast-range reductions (32-bit in and
  // out, so the compiler can pack it — see SeededHash::index_batch) ...
  hash_.index_batch(keys, config_.leaf_count, idx);
  // ... then request every level-1 counter line of the block up front, so
  // the misses overlap each other and whatever work runs before the apply.
  std::visit([&](const auto& level1) { prefetch_level1(level1, idx); },
             stages_[0]);
}

void FcmTree::index_block_hashes(std::span<const flow::FlowKey> keys,
                                 std::span<std::uint32_t> idx,
                                 std::span<std::uint32_t> raw) const noexcept {
  hash_.index_hash_batch(keys, config_.leaf_count, idx, raw);
  std::visit([&](const auto& level1) { prefetch_level1(level1, idx); },
             stages_[0]);
}

void FcmTree::apply_block(std::span<const std::uint32_t> idx,
                          std::span<std::uint64_t> min_estimates) {
  std::visit(
      [&](auto& level1) {
        apply_block_scalar(std::span(level1), idx, min_estimates);
      },
      stages_[0]);
}

template <typename T>
void FcmTree::apply_block_scalar(std::span<T> level1_nodes,
                                 std::span<const std::uint32_t> idx,
                                 std::span<std::uint64_t> min_estimates) {
  T* const level1 = level1_nodes.data();
  // The counting max fits T: it is one below the marker, which does.
  const T cap = common::checked_narrow<T>(counting_max_[0]);
  const std::size_t n = idx.size();
  // Apply in key order. Carries must not be reordered (a node's trip into
  // overflow is observed by later duplicates in the block), so only the
  // per-key *work* is specialized, never the sequence.
  if (min_estimates.empty()) {
    // No estimate consumer (heavy-hitter tracking off): the fast path is a
    // bare increment with no value materialization or min bookkeeping.
    for (std::size_t i = 0; i < n; ++i) {
      T& node = level1[idx[i]];
      if (node < cap) {
        // Fast path: below the counting max, so a single increment neither
        // saturates nor carries — the overwhelming common case (level 1
        // holds most nodes and most of them never overflow).
        ++node;
      } else {
        // Node at the counting max (this increment trips it) or already
        // overflowed: take the scalar carry walk unchanged.
        add_at(idx[i], 1);
      }
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    T& node = level1[idx[i]];
    std::uint64_t estimate;
    if (node < cap) {
      estimate = ++node;
    } else {
      estimate = add_at(idx[i], 1);
    }
    std::uint64_t& slot = min_estimates[i];
    slot = std::min(slot, estimate);
  }
}

void FcmTree::add_batch(std::span<const flow::FlowKey> keys,
                        std::span<std::uint64_t> min_estimates) {
  const std::size_t total = keys.size();
  if (total == 0) return;

  // Software pipeline with double-buffered index blocks (DESIGN.md §9):
  // block b+1 is hashed and its level-1 lines prefetched BEFORE block b is
  // applied, so every prefetch has one full block of work (~kBatchBlock
  // hashes + applies) to land — a just-prefetched line is never demanded on
  // the very next instruction. Hashing block b+1 touches only the key span
  // and the stack, so it cannot disturb block b's carries.
  std::uint32_t idx_a[common::kBatchBlock];
  std::uint32_t idx_b[common::kBatchBlock];
  std::uint32_t* cur = idx_a;
  std::uint32_t* next = idx_b;
  const auto stage = [&](std::size_t base, std::uint32_t* out) {
    const std::size_t n = std::min(common::kBatchBlock, total - base);
    index_block(keys.subspan(base, n), std::span<std::uint32_t>(out, n));
    return n;
  };

  std::size_t n = stage(0, cur);
  for (std::size_t base = 0; base < total;) {
    const std::size_t next_base = base + n;
    std::size_t next_n = 0;
    if (next_base < total) next_n = stage(next_base, next);
    apply_block(std::span<const std::uint32_t>(cur, n),
                min_estimates.empty() ? min_estimates
                                      : min_estimates.subspan(base, n));
    std::swap(cur, next);
    base = next_base;
    n = next_n;
  }
}

std::uint64_t FcmTree::query_at(std::size_t index) const noexcept {
  std::uint64_t estimate = 0;
  const std::size_t levels = stages_.size();
  for (std::size_t l = 0; l < levels; ++l) {
    const std::uint32_t node = node_value(l, index);
    if (node != marker_[l]) {
      return estimate + node;
    }
    estimate += counting_max_[l];
    if (l + 1 == levels) return estimate;  // root overflowed: best effort
    index /= config_.k;
  }
  return estimate;
}

namespace {

// Lanes the merge's fast path and the invariant sweep check at once: a run.
// When k divides it a run holds whole parent blocks; a fixed count lets the
// compiler vectorize the check.
constexpr std::size_t kRunLanes = 64;

// The exact per-node merge rule (see FcmTree::merge) over the parent blocks
// of k siblings in [begin, end). `in` holds the excess the level below
// promoted into each node (none at level 1: kPromoted == false); `out`
// accumulates each block's excess at its parent (nullptr at the root, where
// the serial tree drops it too). Returns the nodes that trip into overflow
// only here, in the merge.
template <bool kPromoted, typename T>
std::uint64_t merge_exact(std::span<T> a, std::span<const T> b,
                          const std::uint64_t* in, std::uint64_t* out,
                          std::size_t k, std::uint32_t cap, std::size_t begin,
                          std::size_t end) {
  const std::uint32_t mark = cap + 1;
  std::uint64_t fresh = 0;
  for (std::size_t base = begin; base < end; base += k) {
    // Below the root every level is exactly k * (parent count) wide; the
    // root's width need not be a multiple of k.
    const std::size_t stop = std::min(base + k, end);
    std::uint64_t excess = 0;
    for (std::size_t i = base; i < stop; ++i) {
      const bool shard_overflowed = (a[i] == mark) || (b[i] == mark);
      // Local arrivals visible at this level: what each shard counted here
      // (capped; their excess is in their next level) plus what the merged
      // children promoted.
      std::uint64_t sum = std::min<std::uint64_t>(a[i], cap) +
                          std::min<std::uint64_t>(b[i], cap);
      if constexpr (kPromoted) sum += in[i];
      // A shard overflow implies its capped value == cap, hence sum >= cap;
      // the serial tree overflowed here iff a shard did or the sum alone
      // exceeds the counting range.
      if (shard_overflowed || sum > cap) {
        FCM_ASSERT(sum >= cap,
                   "FcmTree::merge: overflowed node with sum below capacity");
        excess += sum - cap;
        a[i] = common::checked_narrow<T>(mark);
        // Observability: a node neither input had tripped overflows only
        // now, in the merge — count the fresh promotion (trips either input
        // already performed arrive via the promotions_ sum).
        if (!shard_overflowed) ++fresh;
      } else {
        a[i] = common::checked_narrow<T>(sum);
      }
    }
    if (out != nullptr) out[base / k] += excess;
  }
  return fresh;
}

// The fast path over lanes [base, base + kRunLanes): when every lane
// satisfies in + a + b <= cap, no node can overflow or promote, so the
// lanes are summed with no branch and true is returned; otherwise nothing
// is written. The lanes are copied to locals first: they cannot alias `a`,
// so the check and the sum vectorize without run-time overlap tests, at
// T's own width.
template <bool kPromoted, typename T>
bool add_if_clean(std::span<T> a, std::span<const T> b,
                  const std::uint64_t* in, std::size_t base,
                  std::uint32_t cap) noexcept {
  // The counting max is one below the marker, which fits T.
  const T tcap = common::checked_narrow<T>(cap);
  T la[kRunLanes];
  T lb[kRunLanes];
  T sum[kRunLanes];
  for (std::size_t j = 0; j < kRunLanes; ++j) {
    la[j] = a[base + j];
    lb[j] = b[base + j];
  }
  // Each sum is taken modulo 2^(8 sizeof(T)): it is exact iff it did not
  // wrap (sum >= a), and an exact sum <= cap also rules out an overflow
  // marker in either operand, since the marker exceeds cap.
  // The flag accumulates in T as well: a wider (or bool) accumulator would
  // widen every lane of the loop.
  T dirty = 0;
  for (std::size_t j = 0; j < kRunLanes; ++j) {
    sum[j] = la[j] + lb[j];
    dirty |= (sum[j] < la[j]) | (sum[j] > tcap);
  }
  if (dirty != 0) return false;
  if constexpr (kPromoted) {
    // Most runs receive no promotions; those that do are checked and summed
    // lane by lane in 64 bits.
    std::uint64_t any_in = 0;
    for (std::size_t j = 0; j < kRunLanes; ++j) any_in |= in[base + j];
    if (any_in != 0) {
      for (std::size_t j = 0; j < kRunLanes; ++j) {
        if (in[base + j] > std::uint64_t{tcap} - sum[j]) return false;
      }
      for (std::size_t j = 0; j < kRunLanes; ++j) {
        a[base + j] = common::checked_narrow<T>(in[base + j] + sum[j]);
      }
      return true;
    }
  }
  for (std::size_t j = 0; j < kRunLanes; ++j) a[base + j] = sum[j];
  return true;
}

// One level of FcmTree::merge. When k divides kRunLanes the level is
// walked in runs of kRunLanes / k whole parent blocks: a clean run takes
// the fast path, any other run the exact rule block by block. The tail
// (and every block when k does not divide kRunLanes) takes the exact rule.
template <bool kPromoted, typename T>
std::uint64_t merge_level(std::span<T> a, std::span<const T> b,
                          const std::uint64_t* in, std::uint64_t* out,
                          std::size_t k, std::uint32_t cap) {
  const std::size_t fast_end =
      kRunLanes % k == 0 ? a.size() - a.size() % kRunLanes : 0;
  std::uint64_t fresh = 0;
  for (std::size_t base = 0; base < fast_end; base += kRunLanes) {
    if (!add_if_clean<kPromoted>(a, b, in, base, cap)) {
      fresh += merge_exact<kPromoted>(a, b, in, out, k, cap, base,
                                      base + kRunLanes);
    }
  }
  return fresh +
         merge_exact<kPromoted>(a, b, in, out, k, cap, fast_end, a.size());
}

}  // namespace

void FcmTree::merge(const FcmTree& other) {
  FCM_REQUIRE(config_ == other.config_,
              "FcmTree::merge: mismatched configs (geometry or seed differ)");
  FCM_REQUIRE(hash_.seed() == other.hash_.seed(),
              "FcmTree::merge: trees use different leaf hash functions");
  const std::size_t levels = stages_.size();
  // Excess promoted into the current level (`promoted`, empty at level 1)
  // and into the next one (`next`): each holds one slot per node of a
  // non-leaf level, so no buffer is ever leaf-sized.
  std::vector<std::uint64_t> promoted;
  std::vector<std::uint64_t> next;
  // Fold the other tree's promotion history into ours (monotone telemetry;
  // merge-induced fresh trips are counted per level below).
  promotions_ += other.promotions_;
  for (std::size_t l = 0; l < levels; ++l) {
    const bool has_parent = l + 1 < levels;
    next.assign(has_parent ? config_.width(l + 2) : 0, 0);
    std::uint64_t* const out = has_parent ? next.data() : nullptr;
    // Equal configs give both trees the same element type at every level.
    std::visit(
        [&](auto& nodes) {
          using Nodes = std::decay_t<decltype(nodes)>;
          const std::span a(nodes);
          const std::span b(std::as_const(std::get<Nodes>(other.stages_[l])));
          promotions_ +=
              l == 0 ? merge_level<false>(a, b, nullptr, out, config_.k,
                                          counting_max_[l])
                     : merge_level<true>(a, b, promoted.data(), out,
                                         config_.k, counting_max_[l]);
        },
        stages_[l]);
    promoted.swap(next);
  }
  FCM_CHECKED_ONLY(check_invariants());
}

std::uint64_t FcmTree::node_count(std::size_t stage_1based,
                                  std::size_t index) const noexcept {
  const std::uint32_t v = node_value(stage_1based - 1, index);
  return std::min<std::uint64_t>(v, counting_max_[stage_1based - 1]);
}

bool FcmTree::node_overflowed(std::size_t stage_1based,
                              std::size_t index) const noexcept {
  return node_value(stage_1based - 1, index) == marker_[stage_1based - 1];
}

namespace {

// Zero-valued nodes of one stage. A run's tally (at most kRunLanes) fits
// T, so the compare-and-add loop stays at the element width; std::count's
// 64-bit tally would widen every lane.
template <typename T>
std::size_t count_zeros(std::span<const T> nodes) noexcept {
  std::size_t zeros = 0;
  const std::size_t runs_end = nodes.size() - nodes.size() % kRunLanes;
  for (std::size_t base = 0; base < runs_end; base += kRunLanes) {
    T run = 0;
    for (std::size_t j = 0; j < kRunLanes; ++j) run += nodes[base + j] == 0;
    zeros += run;
  }
  for (std::size_t i = runs_end; i < nodes.size(); ++i) zeros += nodes[i] == 0;
  return zeros;
}

}  // namespace

std::size_t FcmTree::empty_leaf_count() const noexcept {
  return std::visit(
      [](const auto& level1) { return count_zeros(std::span(level1)); },
      stages_[0]);
}

std::uint64_t FcmTree::total_count() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t l = 0; l < stages_.size(); ++l) {
    const std::uint64_t cap = counting_max_[l];
    std::visit(
        [&](const auto& nodes) {
          for (const auto v : nodes) total += std::min<std::uint64_t>(v, cap);
        },
        stages_[l]);
  }
  return total;
}

namespace {

// check_invariants' per-block test of parent blocks [first, last) of one
// level, whose children sit at 1-based stage `stage`: every child fits its
// bit width (stores at most the marker), and each parent holds a count iff
// one of its k children is at the marker (Figure 3: the tripping increment
// always lands in the parent, and a non-leaf node only receives counts via
// child overflow).
template <typename C, typename P>
void assert_blocks(std::span<const C> children, std::span<const P> parents,
                   std::size_t k, std::uint32_t mark, std::size_t stage,
                   std::size_t first, std::size_t last) {
  for (std::size_t p = first; p < last; ++p) {
    bool overflowed_child = false;
    std::uint32_t widest = 0;
    for (std::size_t c = p * k; c < (p + 1) * k; ++c) {
      overflowed_child |= children[c] == mark;
      widest = std::max<std::uint32_t>(widest, children[c]);
    }
    FCM_ASSERT(widest <= mark,
               "FcmTree: node value exceeds its bit width at stage " +
                   std::to_string(stage) + " under parent " +
                   std::to_string(p));
    FCM_ASSERT(!overflowed_child || parents[p] > 0,
               "FcmTree: overflowed node at stage " + std::to_string(stage) +
                   " under parent " + std::to_string(p) +
                   " but its parent holds no count");
    FCM_ASSERT(overflowed_child || parents[p] == 0,
               "FcmTree: stage " + std::to_string(stage + 1) + " node " +
                   std::to_string(p) + " holds a count but no child overflowed");
  }
}

// assert_blocks over a whole level, a run of kRunLanes children at a time
// when k divides it: a run with no child at the marker and no parent
// holding a count passes once its children fit the marker, which is all
// ones (2^b - 1), so their bitwise OR fits it too. Other runs, and the
// tail, take the per-block test.
template <typename C, typename P>
void assert_level(std::span<const C> children, std::span<const P> parents,
                  std::size_t k, std::uint32_t mark, std::size_t stage) {
  const std::size_t run_parents = kRunLanes % k == 0 ? kRunLanes / k : 0;
  const std::size_t runs = run_parents != 0 ? parents.size() / run_parents : 0;
  // The marker fits the children's type; the accumulators stay at the
  // element widths so the run loops do not widen their lanes.
  const C cmark = common::checked_narrow<C>(mark);
  for (std::size_t r = 0; r < runs; ++r) {
    const std::size_t base = r * kRunLanes;
    C any_bits = 0;
    C at_marker = 0;
    for (std::size_t j = 0; j < kRunLanes; ++j) {
      any_bits |= children[base + j];
      at_marker |= children[base + j] == cmark;
    }
    P parent_bits = 0;
    for (std::size_t p = r * run_parents; p < (r + 1) * run_parents; ++p) {
      parent_bits |= parents[p];
    }
    if (any_bits > cmark || (at_marker | parent_bits) != 0) {
      assert_blocks(children, parents, k, mark, stage, r * run_parents,
                    (r + 1) * run_parents);
    }
  }
  assert_blocks(children, parents, k, mark, stage, runs * run_parents,
                parents.size());
}

}  // namespace

void FcmTree::check_invariants() const {
  const std::size_t levels = config_.stage_count();
  FCM_ASSERT(stages_.size() == levels,
             "FcmTree: stage vector count diverged from config");
  FCM_ASSERT(counting_max_.size() == levels && marker_.size() == levels,
             "FcmTree: cached per-stage limits diverged from config");
  for (std::size_t l = 0; l < levels; ++l) {
    FCM_ASSERT(stage(l + 1).size() == config_.width(l + 1),
               "FcmTree: stage " + std::to_string(l + 1) +
                   " width diverged from config");
    FCM_ASSERT(marker_[l] == counting_max_[l] + 1,
               "FcmTree: marker/counting-max mismatch at stage " +
                   std::to_string(l + 1));
  }
  // One pass per level over its parent blocks of k children; the root has
  // no parent and is checked for its bit width alone.
  for (std::size_t l = 0; l + 1 < levels; ++l) {
    std::visit(
        [&](const auto& children, const auto& parents) {
          assert_level(std::span(children), std::span(parents), config_.k,
                       marker_[l], l + 1);
        },
        stages_[l], stages_[l + 1]);
  }
  const auto root = stage(levels);
  for (std::size_t i = 0; i < root.size(); ++i) {
    FCM_ASSERT(root[i] <= marker_.back(),
               "FcmTree: node value exceeds its bit width at stage " +
                   std::to_string(levels) + " index " + std::to_string(i));
  }
}

void FcmTree::clear() noexcept {
  for (StageArray& nodes : stages_) {
    std::visit(
        [](auto& v) {
          using T = typename std::decay_t<decltype(v)>::value_type;
          std::fill(v.begin(), v.end(), T{0});
        },
        nodes);
  }
  promotions_ = 0;
}

}  // namespace fcm::core
