// A single k-ary FCM tree (paper §3.1–3.2).
//
// Stage l holds width(l) nodes of b_l bits, stored at the register width
// FcmConfig::stage_bytes(l) (1, 2 or 4 bytes per node). A node stores values
// 0..2^b_l - 2 directly; the all-ones value 2^b_l - 1 means "count saturated
// at 2^b_l - 2 and increments have been carried to the parent" (Figure 3).
// Update feeds increments forward (Algorithm 1); count-query sums capped
// values along the path until the first non-overflowed node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "fcm/fcm_config.h"
#include "flow/flow_key.h"

namespace fcm::agg {
class WireCodec;  // wire-format (de)serializer, the single state-access friend
}

namespace fcm::core {

class FcmTree {
 public:
  // `config` describes geometry; `hash` selects this tree's leaf index.
  FcmTree(const FcmConfig& config, common::SeededHash hash);

  // Adds `count` to the flow (Algorithm 1 generalized to bulk increments;
  // count = 1 is the per-packet update). Returns the post-update estimate
  // for the flow, mirroring the data plane's write-and-return sALU.
  std::uint64_t add(flow::FlowKey key, std::uint64_t count = 1) {
    return add_at(leaf_index(key), count);
  }

  // Leaf-index forms of add/query, for callers that already hold the leaf
  // index (the batched kernel, and FcmSketch::update_conservative's
  // read-then-write pass, which must not hash twice). `index` must come from
  // leaf_index()/index_batch() on this tree's hash.
  std::uint64_t add_at(std::size_t index, std::uint64_t count);
  std::uint64_t query_at(std::size_t index) const noexcept;

  // Batched per-packet update (DESIGN.md §9): hashes `keys` block by block
  // (common::kBatchBlock) through SeededHash::index_batch, issues software
  // prefetches on the level-1 counter lines one block ahead, then applies
  // the updates in key order. The common no-overflow case (node below the
  // counting max) is a single branch-light level-1 increment; nodes at the
  // counting max or already overflowed fall back to the scalar carry walk
  // (add_at), so the resulting tree state, promotion counter, and per-key
  // estimates are bit-exact against per-key add() in the same order —
  // duplicates within a batch included (tests/test_batch_equivalence.cpp).
  //
  // For each key i, min_estimates[i] is lowered to min(min_estimates[i],
  // post-update estimate): FcmSketch::add_batch runs all trees over one
  // block and reads off the min-query without a second pass. An EMPTY
  // min_estimates span means "no estimate consumer" (heavy-hitter tracking
  // off) and skips the bookkeeping entirely; otherwise it must cover
  // keys.size() entries.
  void add_batch(std::span<const flow::FlowKey> keys,
                 std::span<std::uint64_t> min_estimates);

  // The two halves of the batched kernel, exposed so FcmSketch can pipeline
  // ACROSS trees: hash+prefetch one block for every tree, then apply every
  // tree's block — the key block is read from L1 once instead of each tree
  // re-streaming the whole key span, and the outstanding prefetches of all
  // trees overlap. keys/idx must be at most kBatchBlock entries.
  //
  // index_block hashes `keys` into level-1 indices and issues a write
  // prefetch for each touched counter line; apply_block applies +1 updates
  // in key order (same fast/slow path split as add_batch) and, when
  // `min_estimates` is non-empty, lowers min_estimates[i] toward the
  // post-update estimate of keys[i].
  void index_block(std::span<const flow::FlowKey> keys,
                   std::span<std::uint32_t> idx) const noexcept;
  void apply_block(std::span<const std::uint32_t> idx,
                   std::span<std::uint64_t> min_estimates);

  // index_block that additionally writes the raw (pre-reduction) bob hashes
  // into `raw` (raw.size() >= keys.size()). The single-pass sweep (DESIGN.md
  // §14) feeds them to the cardinality sidecars, which share this tree's
  // hash function, instead of hashing the block a second time.
  void index_block_hashes(std::span<const flow::FlowKey> keys,
                          std::span<std::uint32_t> idx,
                          std::span<std::uint32_t> raw) const noexcept;

  // Count-query (paper §3.2): sum along the overflow path.
  std::uint64_t query(flow::FlowKey key) const noexcept {
    return query_at(leaf_index(key));
  }

  // Merges `other` into this tree: counter-sum with overflow promotion to
  // the next tree level. FCM trees are linear in the per-leaf arrival totals,
  // so the merged state is *bit-exact* the state a single tree would hold
  // after absorbing both input streams (see DESIGN.md §7 for the argument):
  // per node, bottom-up,
  //     S = promoted + Σ_shard min(v_shard, θ_l)
  // stores S when no shard overflowed and S <= θ_l; otherwise the node is
  // marked overflowed and max(0, S - θ_l) is promoted to its parent (the
  // excess each shard already forwarded lives in that shard's next level and
  // is picked up by the Σ there). Requires identical config and leaf hash;
  // violations raise ContractViolation via FCM_REQUIRE. Commutative and
  // associative; merging a cleared tree is an identity.
  void merge(const FcmTree& other);

  // Leaf index this tree assigns to `key`.
  std::size_t leaf_index(flow::FlowKey key) const noexcept {
    return hash_.index(key, config_.leaf_count);
  }

  // Raw stored node values at stage l (1-based): 2^b-1 entries are overflow
  // markers. Used by the control-plane conversion algorithm. A read-only,
  // random-access view that reads each node as a uint32_t whatever the
  // stage's register width; it reads the tree's own array, so it is valid
  // while the tree is alive and its geometry unchanged.
  auto stage(std::size_t stage_1based) const noexcept {
    const std::size_t level = stage_1based - 1;
    const std::size_t width =
        std::visit([](const auto& v) { return v.size(); }, stages_[level]);
    return std::views::iota(std::size_t{0}, width) |
           std::views::transform([this, level](std::size_t i) {
             return node_value(level, i);
           });
  }

  // The count a node contributes locally: min(value, 2^b - 2).
  std::uint64_t node_count(std::size_t stage_1based, std::size_t index) const noexcept;
  bool node_overflowed(std::size_t stage_1based, std::size_t index) const noexcept;

  // Number of zero-valued leaf nodes (w_1^0), for linear counting.
  std::size_t empty_leaf_count() const noexcept;

  // Total count absorbed by the tree (sum of capped node counts). Preserved
  // exactly by the virtual-counter conversion; used as an invariant check.
  std::uint64_t total_count() const noexcept;

  // Observability: how many nodes this tree has tripped into the overflow
  // state (a counter saturating and carrying to its parent — Figure 3's
  // promotion event) since construction / clear(). Monotone; merge() folds
  // the other tree's history in plus any trips the merge itself causes.
  // Scraped into the obs::MetricsRegistry by the layers above (the tree
  // itself stays free of atomics so the single-shard hot path is untouched).
  std::uint64_t overflow_promotion_count() const noexcept {
    return promotions_;
  }

  const FcmConfig& config() const noexcept { return config_; }

  // Deep structural invariants (§3.1/Figure 3 semantics); throws/aborts per
  // the contract level on violation:
  //   - geometry: stage vector shapes match the config;
  //   - bit-width saturation: every stored node value <= overflow marker;
  //   - overflow-flag ↔ parent consistency: an overflowed node's parent
  //     holds a positive count (the carry landed), and a non-leaf node with
  //     a positive count has at least one overflowed child.
  // One pass per level over its parent blocks of k children, cheap enough
  // for test sweeps and once per wire decode; CHECKED builds call it from
  // hot paths via FCM_CHECKED_ONLY.
  void check_invariants() const;

  // The hash function selecting this tree's leaf (needed to compile the
  // tree onto the PISA pipeline with identical indexing).
  common::SeededHash hash() const noexcept { return hash_; }

  void clear() noexcept;

 private:
  friend class ::fcm::agg::WireCodec;

  // One stage's nodes at its register width (FcmConfig::stage_bytes). Every
  // loop over a stage is instantiated per element type and dispatched once
  // per stage, never per node.
  using StageArray =
      std::variant<std::vector<std::uint8_t>, std::vector<std::uint16_t>,
                   std::vector<std::uint32_t>>;

  // Stored value of node `index` at 0-based level `level`, as a uint32_t.
  std::uint32_t node_value(std::size_t level,
                           std::size_t index) const noexcept {
    return std::visit(
        [index](const auto& nodes) -> std::uint32_t { return nodes[index]; },
        stages_[level]);
  }

  // Scalar body of apply_block over a level 1 of element type T.
  template <typename T>
  void apply_block_scalar(std::span<T> level1,
                          std::span<const std::uint32_t> idx,
                          std::span<std::uint64_t> min_estimates);

  // AVX2 body of apply_block (kernel tier kAvx2, 4-byte level 1 only):
  // groups of 8 run through common::simd::avx2_apply_saturating; any group
  // with an at-cap lane or intra-group duplicate index is re-applied by the
  // scalar loop in exact key order, so carries and promotions stay
  // bit-identical.
  void apply_block_avx2(std::span<const std::uint32_t> idx,
                        std::span<std::uint64_t> min_estimates);

  FcmConfig config_;
  common::SeededHash hash_;
  std::vector<StageArray> stages_;
  // Per-stage cached limits, so the hot path avoids recomputing shifts.
  std::vector<std::uint32_t> counting_max_;
  std::vector<std::uint32_t> marker_;
  // Overflow-promotion events (see overflow_promotion_count()).
  std::uint64_t promotions_ = 0;
};

}  // namespace fcm::core
