// The batch tree's scaled descent (D. J. Bernstein, "Scaled remainder
// trees", 2004): the descent carries each node's fraction
//   t_v = frac(P / N_v²) = ((P / N_v) mod N_v) / N_v
// instead of its cofactor residue. A child c of v with sibling d gets
//   t_c = frac(t_v · N_d²),
// as P / N_c² = (P / N_v²) · N_d². So below the entry each step is one
// product whose middle words are kept, where a residue step divides twice.
//
// A fraction is held to p words as the integer T = ⌊t·β^p⌋ (β = 2^64), off
// by a few units of its last word (docs/BATCHGCD.md "The scaled step,
// precision and error bound"). Each
// node's p comes from the shape of the tree below it (fraction_precision),
// so the step's integer part and the words it drops fit in the product's
// low words, and one cyclic product at a length L ≥ p leaves the child's
// words in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "batchgcd/batch_journal.hpp"

namespace bulkgcd::batchgcd {

/// The descent carries fractions in the levels whose largest node spans
/// leaves of at least this many words, and takes Knuth D cofactor steps out
/// of the levels below. A scaled step out of a parent of 2n words costs about
/// M(4n) for both children, a cofactor step about n² word operations per
/// child, so Knuth D wins on small nodes. bench_microkernels medians on a
/// 4-vCPU AVX-512 Xeon (one parent into two children of n
/// words, u64): BM_ScaledStep 48, 140 and 274 µs at n = 64, 128 and 256,
/// against two BM_CofactorStepKnuthD at 39, 127 and 460 µs. So the step
/// into children of 256 words is scaled, and into 128 words Knuth D.
inline constexpr std::size_t kScaledStepMinWords = 512;

/// The lowest fraction level of the tree over `leaves`: the lowest level
/// ℓ ≥ 1 below the root's two children whose largest node, and so every
/// level above it, spans leaves of at least kScaledStepMinWords words in
/// all. (The leaves' words bound a node's from above, and are known before
/// any product is.) 0 when no level qualifies: the tree has no fractions.
std::size_t lowest_fraction_level(std::span<const TreeInt> leaves);

/// The entry: T = ⌊C·β^p / N⌋ mod β^p for a node N and its cofactor
/// C = P / N = a·b, the fraction frac(C / N) = frac(P / N²) to p words,
/// below one unit of its last word. r = ((a mod N)·b) mod N, then
/// ⌊r·β^p / N⌋, all on one mp::NewtonDivisor (one reciprocal, one set of
/// held transforms).
TreeInt entry_fraction(const TreeInt& node, const TreeInt& a, const TreeInt& b, std::size_t p);

/// One scaled step of a parent with fraction `t` at p words and children
/// `left` and `right`: returns their fractions at p_left and p_right
/// words, frac(t·right²) and frac(t·left²). Each child's words come from
/// one product modulo β^L − 1 against t's transform, held once for both,
/// at the shortest L = 2^k ≥ p. Requires p ≥ p_left + 2·|right| and
/// p ≥ p_right + 2·|left| (|x| = words of x); then each child is off by at
/// most two units of its last word more than t was of its own.
std::pair<TreeInt, TreeInt> scaled_step(const TreeInt& t, std::size_t p,
                                        const TreeInt& left, std::size_t p_left,
                                        const TreeInt& right, std::size_t p_right);

/// The exact residue s = (P / N) mod N = round(t·N) mod N of a node N from
/// its fraction T at p words, off by at most `ulps` units of its last word:
/// t·N is then within ulps·N units of β^{−p} of the integer s. Returns
/// nothing when T·N is not that close to a multiple of β^p: T was not
/// produced by this descent, and no residue is vouched for.
std::optional<TreeInt> fraction_residue(const TreeInt& t, std::size_t p, const TreeInt& node,
                                        std::uint64_t ulps);

/// The error bound of a fraction `steps` scaled steps below the entry, in
/// units of its last word: one for the entry's floor, two per step.
constexpr std::uint64_t fraction_ulps(std::size_t steps) { return 1 + 2 * std::uint64_t(steps); }

/// Words of precision of every node from level `lowest` up, for the product
/// tree levels `tree` (level 0 = the leaves, no root): a node of level
/// `lowest`, where the fractions are rounded to residues, gets |N| + 1 (one
/// guard word over the node); above, a parent gets the most either child
/// needs, p_c + 2·|N_d|, and a promoted node its child's p. Levels below
/// `lowest` are left empty. For nodes of 2^k·n words over leaves of n, each
/// level's p is 2·|N| − |N_lowest| + 1, so a power-of-two node's step runs
/// at L = 2·|N|.
std::vector<std::vector<std::size_t>> fraction_precision(
    std::span<const std::vector<TreeInt>> tree, std::size_t lowest);

}  // namespace bulkgcd::batchgcd
