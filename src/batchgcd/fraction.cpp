#include "batchgcd/fraction.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "mp/newton_div.hpp"
#include "mp/ntt.hpp"

namespace bulkgcd::batchgcd {

using mp::ntt_detail::u64;

TreeInt entry_fraction(const TreeInt& node, const TreeInt& a, const TreeInt& b, std::size_t p) {
  assert(!node.is_zero() && p > node.size());
  // Every division is by N, on one divisor: one reciprocal and one set of
  // held transforms. r = ((a mod N)·b) mod N, then ⌊r·β^p / N⌋ < β^p.
  // Each division's buffers are gone before the next one's are made (peak
  // memory).
  const mp::NewtonDivisor<u64> divisor(node.data(), node.size());
  const auto mod = [&](const TreeInt& x, u64* r) {
    return divisor.divrem(nullptr, r, x.data(), x.size()).sizes.remainder;
  };
  std::vector<u64> dividend(p + node.size(), u64{0});
  u64* const r = dividend.data() + p;
  const std::size_t an = mod(a, r);
  const std::size_t rn = mod(TreeInt::from_limbs(std::span<const u64>(r, an)) * b, r);
  std::vector<u64> q(p + rn + 1 > node.size() ? p + rn - node.size() + 1 : 1, u64{0});
  std::vector<u64> rest(node.size());
  divisor.divrem(q.data(), rest.data(), dividend.data(), p + rn);
  return TreeInt::from_limbs(std::move(q));
}

std::pair<TreeInt, TreeInt> scaled_step(const TreeInt& t, std::size_t p,
                                        const TreeInt& left, std::size_t p_left,
                                        const TreeInt& right, std::size_t p_right) {
  assert(p >= p_left + 2 * right.size() && p >= p_right + 2 * left.size());
  if (t.is_zero()) return {};
  // The squares come first: their transform buffers are freed before t's
  // transforms are held (peak memory).
  const TreeInt left_sq = left * left;
  const TreeInt right_sq = right * right;
  // With Y = T·D (D the square) and L ≥ p, Y modulo β^L − 1 is Y's low L
  // words plus ⌊Y / β^L⌋ < D ≤ β^{p − p_c} wrapped onto them: below the
  // words kept, up to a carry into the lowest. So words [p − p_c, p) are
  // ⌊Y / β^{p − p_c}⌋ mod β^{p_c}, frac(t·D) at p_c words.
  const mp::ntt_detail::HeldTransform held(t.data(), t.size(), std::bit_width(p - 1));
  const mp::ntt_detail::TransformBuffer scratch(held.scratch_words());
  const auto child = [&](const TreeInt& square, std::size_t pc) {
    const u64* const z = held.multiply_cyclic(square.data(), square.size(), scratch.data());
    return TreeInt::from_limbs(std::span<const u64>(z + (p - pc), pc));
  };
  TreeInt first = child(right_sq, p_left);
  return {std::move(first), child(left_sq, p_right)};
}

std::optional<TreeInt> fraction_residue(const TreeInt& t, std::size_t p, const TreeInt& node,
                                        std::uint64_t ulps) {
  assert(t.size() <= p);
  // T·N / β^p lies within ulps·N / β^p of s: its low p words F are at most
  // ulps·N (s below it), or at least β^p − ulps·N (s just above).
  const TreeInt x = t * node;
  const auto words = x.limbs();
  const TreeInt low = TreeInt::from_limbs(words.first(std::min(p, words.size())));
  const TreeInt bound = node * TreeInt(ulps);
  TreeInt s = x >> (64 * p);
  if (bound < low) {
    if ((low + bound).size() <= p) return std::nullopt;  // F + ulps·N < β^p
    s += TreeInt(1);
  }
  if (s == node) return TreeInt();  // t just below 1: s = 0
  return s;
}

std::size_t lowest_fraction_level(std::span<const TreeInt> leaves) {
  // The leaves' words under each node, level by level up to the root's
  // children, and each level's largest.
  std::vector<std::size_t> words, most;
  for (const TreeInt& leaf : leaves) words.push_back(leaf.size());
  while (words.size() > 2) {
    std::vector<std::size_t> above((words.size() + 1) / 2);
    for (std::size_t i = 0; i < words.size(); ++i) above[i / 2] += words[i];
    words = std::move(above);
    most.push_back(*std::max_element(words.begin(), words.end()));
  }
  // most[k] is level k + 1's, and the root's children (level most.size())
  // are not a fraction level.
  std::size_t lowest = most.size();
  while (lowest > 1 && most[lowest - 2] >= kScaledStepMinWords) --lowest;
  return lowest == most.size() ? 0 : lowest;
}

std::vector<std::vector<std::size_t>> fraction_precision(
    std::span<const std::vector<TreeInt>> tree, std::size_t lowest) {
  std::vector<std::vector<std::size_t>> precision(tree.size());
  for (const TreeInt& node : tree[lowest]) precision[lowest].push_back(node.size() + 1);
  for (std::size_t level = lowest + 1; level < tree.size(); ++level) {
    const auto& children = tree[level - 1];
    const auto& below = precision[level - 1];
    auto& here = precision[level];
    here.resize(tree[level].size());
    for (std::size_t v = 0; v < here.size(); ++v) {
      const std::size_t c = 2 * v;
      here[v] = c + 1 == children.size()
                    ? below[c]  // promoted: the child is this node
                    : std::max(below[c] + 2 * children[c + 1].size(),
                               below[c + 1] + 2 * children[c].size());
    }
  }
  return precision;
}

}  // namespace bulkgcd::batchgcd
