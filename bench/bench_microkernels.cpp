// google-benchmark microbenchmarks for the primitives the paper's inner loop
// is built from: the fused update kernel, approx(), multiword division,
// multiplication, and one full GCD per algorithm. These are the numbers a
// performance investigation starts from.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "batchgcd/fraction.hpp"
#include "gcd/algorithms.hpp"
#include "gcd/lehmer.hpp"
#include "gcd/approx.hpp"
#include "gcd/kernels.hpp"
#include "mp/karatsuba.hpp"
#include "mp/newton_div.hpp"
#include "mp/ntt.hpp"
#include "mp/span_ops.hpp"
#include "rsa/modmath.hpp"
#include "rsa/montgomery.hpp"
#include "rsa/prime.hpp"

namespace {

using namespace bulkgcd;
using mp::BigInt;

/// Deterministic odd value of exactly `bits` bits.
BigInt make_odd(std::uint64_t seed, std::size_t bits) {
  Xoshiro256 rng(seed);
  std::vector<std::uint32_t> limbs((bits + 31) / 32);
  for (auto& limb : limbs) limb = std::uint32_t(rng());
  limbs.back() |= 0x80000000u >> ((32 - bits % 32) % 32);
  limbs.front() |= 1u;
  std::vector<std::uint32_t> masked = limbs;
  return BigInt::from_limbs(masked);
}

void BM_FusedSubmulStrip(benchmark::State& state) {
  const std::size_t bits = std::size_t(state.range(0));
  const BigInt y = make_odd(1, bits);
  const BigInt x = make_odd(2, bits + 30);
  std::vector<std::uint32_t> buf(x.size() + 2);
  gcd::NullTracer tracer;
  for (auto _ : state) {
    std::copy(x.limbs().begin(), x.limbs().end(), buf.begin());
    const std::size_t n = gcd::fused_submul_strip(
        buf.data(), x.size(), y.data(), y.size(), std::uint32_t(12345), tracer);
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * std::int64_t(x.size()));
}
BENCHMARK(BM_FusedSubmulStrip)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_Approx(benchmark::State& state) {
  const BigInt x = make_odd(3, std::size_t(state.range(0)));
  const BigInt y = make_odd(4, std::size_t(state.range(0)) - 17);
  for (auto _ : state) {
    const auto a = gcd::approx(x.data(), x.size(), y.data(), y.size());
    benchmark::DoNotOptimize(a.alpha);
  }
}
BENCHMARK(BM_Approx)->Arg(1024)->Arg(4096);

/// make_odd's value on Limb-wide limbs: a u32 and a u64 row at the same
/// bit size time the same arithmetic at half the limb count.
template <typename Limb>
mp::BigIntT<Limb> make_odd_t(std::uint64_t seed, std::size_t bits) {
  return mp::repack<Limb>(make_odd(seed, bits));
}

// The multiply and divide rows run at both limb widths the library uses: u32
// (mp::BigInt, the paper's d = 32) and u64 (the batch tree's TreeInt). Args
// are bits, so a u64 row has half the limbs of the u32 row beside it; the
// ladder thresholds count limbs, so a crossover at T limbs shows at 32·T bits
// on u32 and 64·T bits on u64.

template <typename Limb>
void BM_DivRemKnuthD(benchmark::State& state) {
  const std::size_t bits = std::size_t(state.range(0));
  const auto a = make_odd_t<Limb>(5, bits);
  const auto b = make_odd_t<Limb>(6, bits / 2);
  std::vector<Limb> q(a.size()), r(b.size());
  for (auto _ : state) {
    const auto sizes =
        mp::divrem(q.data(), r.data(), a.data(), a.size(), b.data(), b.size());
    benchmark::DoNotOptimize(sizes.remainder);
  }
}
// Both division rungs on the 2n/n-limb shape of a batch-GCD descent step.
// The large rows' divisors straddle kNewtonDivThreshold: 512, 1024 and 2048
// limbs at u32, 256 to 2048 limbs at u64.
BENCHMARK_TEMPLATE(BM_DivRemKnuthD, std::uint32_t)
    ->Arg(1024)->Arg(4096)->Arg(32768)->Arg(65536)->Arg(131072);
BENCHMARK_TEMPLATE(BM_DivRemKnuthD, std::uint64_t)
    ->Arg(1024)->Arg(4096)->Arg(32768)->Arg(65536)->Arg(98304)->Arg(131072)
    ->Arg(196608)->Arg(262144);

template <typename Limb>
void BM_DivRemNewton(benchmark::State& state) {
  const std::size_t bits = std::size_t(state.range(0));
  const auto a = make_odd_t<Limb>(5, bits);
  const auto b = make_odd_t<Limb>(6, bits / 2);
  std::vector<Limb> q(a.size()), r(b.size());
  for (auto _ : state) {
    const auto sizes = mp::divrem_newton(q.data(), r.data(), a.data(), a.size(),
                                         b.data(), b.size());
    benchmark::DoNotOptimize(sizes.sizes.remainder);
  }
}
BENCHMARK_TEMPLATE(BM_DivRemNewton, std::uint32_t)
    ->Arg(32768)->Arg(65536)->Arg(131072);
BENCHMARK_TEMPLATE(BM_DivRemNewton, std::uint64_t)
    ->Arg(32768)->Arg(65536)->Arg(98304)->Arg(131072)->Arg(196608)
    ->Arg(262144);

template <typename Limb>
void BM_MulSchoolbook(benchmark::State& state) {
  const std::size_t bits = std::size_t(state.range(0));
  const auto a = make_odd_t<Limb>(7, bits);
  const auto b = make_odd_t<Limb>(8, bits);
  std::vector<Limb> out(a.size() + b.size());
  for (auto _ : state) {
    const std::size_t n =
        mp::mul_schoolbook(out.data(), a.data(), a.size(), b.data(), b.size());
    benchmark::DoNotOptimize(n);
  }
}
// Schoolbook against Karatsuba around kKaratsubaThreshold (16 to 48 limbs
// at 64 bits, 16 to 96 at 32 bits), plus the old 8192-bit rows.
BENCHMARK_TEMPLATE(BM_MulSchoolbook, std::uint32_t)
    ->Arg(512)->Arg(768)->Arg(1024)->Arg(1280)->Arg(1536)->Arg(2048)
    ->Arg(2560)->Arg(3072)->Arg(8192);
BENCHMARK_TEMPLATE(BM_MulSchoolbook, std::uint64_t)
    ->Arg(1024)->Arg(1536)->Arg(2048)->Arg(3072)->Arg(8192);

template <typename Limb>
void BM_MulKaratsuba(benchmark::State& state) {
  const std::size_t bits = std::size_t(state.range(0));
  const auto a = make_odd_t<Limb>(9, bits);
  const auto b = make_odd_t<Limb>(10, bits);
  for (auto _ : state) {
    const auto out = mp::mul_karatsuba(a.data(), a.size(), b.data(), b.size());
    benchmark::DoNotOptimize(out.size());
  }
}
// Also the Karatsuba side of the kNttThreshold crossover (128 to 1024 words).
BENCHMARK_TEMPLATE(BM_MulKaratsuba, std::uint32_t)
    ->Arg(512)->Arg(768)->Arg(1024)->Arg(1280)->Arg(1536)->Arg(2048)
    ->Arg(2560)->Arg(3072)->Arg(4096)->Arg(6144)->Arg(8192)->Arg(12288)
    ->Arg(16384)->Arg(24576)->Arg(32768)->Arg(49152)->Arg(65536);
BENCHMARK_TEMPLATE(BM_MulKaratsuba, std::uint64_t)
    ->Arg(1024)->Arg(1536)->Arg(2048)->Arg(3072)->Arg(4096)->Arg(6144)
    ->Arg(8192)->Arg(12288)->Arg(16384)->Arg(24576)->Arg(32768)->Arg(49152)
    ->Arg(65536);

template <typename Limb>
void BM_MulNtt(benchmark::State& state) {
  const std::size_t bits = std::size_t(state.range(0));
  const auto a = make_odd_t<Limb>(9, bits);
  const auto b = make_odd_t<Limb>(10, bits);
  for (auto _ : state) {
    const auto out = mp::mul_ntt(a.data(), a.size(), b.data(), b.size());
    benchmark::DoNotOptimize(out.size());
  }
}
// The transform against Karatsuba around kNttThreshold (128 to 1024 words),
// and up to the 32768-limb u64 root of a 2048-key 1024-bit tree.
BENCHMARK_TEMPLATE(BM_MulNtt, std::uint32_t)
    ->Arg(8192)->Arg(16384)->Arg(24576)->Arg(32768)->Arg(49152)->Arg(65536);
BENCHMARK_TEMPLATE(BM_MulNtt, std::uint64_t)
    ->Arg(8192)->Arg(16384)->Arg(24576)->Arg(32768)->Arg(49152)->Arg(65536)
    ->Arg(131072)->Arg(262144)->Arg(524288)->Arg(2097152);

// The batch tree's division on one held divisor (NewtonDivisor: its
// reciprocal and both forward transforms built once, outside the loop):
// one 2n/n remainder, against BM_MulNtt's n × n product at the same bits.
template <typename Limb>
void BM_NewtonDivisorRem(benchmark::State& state) {
  const std::size_t bits = std::size_t(state.range(0));
  const auto a = make_odd_t<Limb>(5, 2 * bits - 1);
  const auto b = make_odd_t<Limb>(6, bits);
  const mp::NewtonDivisor<Limb> divisor(b.data(), b.size());
  std::vector<Limb> r(b.size());
  for (auto _ : state) {
    const auto sizes = divisor.divrem(nullptr, r.data(), a.data(), a.size());
    benchmark::DoNotOptimize(sizes.sizes.remainder);
  }
}
BENCHMARK_TEMPLATE(BM_NewtonDivisorRem, std::uint64_t)
    ->Arg(65536)->Arg(131072)->Arg(262144)->Arg(524288);

// One cofactor step of the batch tree's descent below its exit size:
// (s mod N_c)·N_d mod N_c by two Knuth D divisions around the product, as
// batchgcd.cpp's cofactor_step runs it.
template <typename Limb>
void BM_CofactorStepKnuthD(benchmark::State& state) {
  const std::size_t bits = std::size_t(state.range(0));
  const auto s = make_odd_t<Limb>(5, 2 * bits - 1);
  const auto node = make_odd_t<Limb>(6, bits);
  const auto sibling = make_odd_t<Limb>(7, bits);
  for (auto _ : state) {
    std::vector<Limb> q(s.size()), r(node.size());
    r.resize(mp::divrem(q.data(), r.data(), s.data(), s.size(), node.data(),
                        node.size()).remainder);
    const auto d = mp::mul_dispatch(r.data(), r.size(), sibling.data(), sibling.size());
    r.resize(node.size());
    const auto sizes = mp::divrem(q.data(), r.data(), d.data(), d.size(),
                                  node.data(), node.size());
    benchmark::DoNotOptimize(sizes.remainder);
  }
}
BENCHMARK_TEMPLATE(BM_CofactorStepKnuthD, std::uint64_t)
    ->Arg(4096)->Arg(8192)->Arg(16384)->Arg(24576)->Arg(32768);

// One scaled step of the batch tree's descent (batchgcd/fraction.hpp): a
// parent's fraction into both its children of `bits` each — the two
// squares, the parent's transform held once, one cyclic product per child.
// So a row prices two children: compare it with twice
// BM_CofactorStepKnuthD at the same size. The precisions are those of a
// tree of power-of-two nodes whose exit nodes are 256 words (a child of n
// words gets p = max(n + 1, 2n − 255), its parent p + 2n), so from 512-word
// children on the step runs at L = 4n.
template <typename Limb>
void BM_ScaledStep(benchmark::State& state) {
  static_assert(sizeof(Limb) == 8, "the tree computes on 64-bit words");
  const std::size_t bits = std::size_t(state.range(0));
  const std::size_t n = bits / 64;
  const std::size_t p_child = n + 1 + (n > 256 ? n - 256 : 0), p_parent = p_child + 2 * n;
  const auto t = make_odd_t<Limb>(5, 64 * p_parent);
  const auto left = make_odd_t<Limb>(6, bits);
  const auto right = make_odd_t<Limb>(7, bits);
  for (auto _ : state) {
    const auto children = batchgcd::scaled_step(t, p_parent, left, p_child, right, p_child);
    benchmark::DoNotOptimize(children.first.size());
  }
}
BENCHMARK_TEMPLATE(BM_ScaledStep, std::uint64_t)
    ->Arg(4096)->Arg(8192)->Arg(16384)->Arg(65536)->Arg(131072)->Arg(262144)
    ->Arg(524288)->Arg(1048576);

// The scaled descent's entry for one node of `bits` two levels below the
// root: frac(C / N) to p = 2n − 255 words, for its cofactor C = uncle ·
// sibling (2n and n words), on one Newton divisor.
template <typename Limb>
void BM_ScaledEntry(benchmark::State& state) {
  static_assert(sizeof(Limb) == 8, "the tree computes on 64-bit words");
  const std::size_t bits = std::size_t(state.range(0));
  const auto node = make_odd_t<Limb>(6, bits);
  const auto uncle = make_odd_t<Limb>(7, 2 * bits);
  const auto sibling = make_odd_t<Limb>(8, bits);
  for (auto _ : state) {
    const auto t = batchgcd::entry_fraction(node, uncle, sibling, 2 * (bits / 64) - 255);
    benchmark::DoNotOptimize(t.size());
  }
}
BENCHMARK_TEMPLATE(BM_ScaledEntry, std::uint64_t)
    ->Arg(65536)->Arg(131072)->Arg(262144)->Arg(524288)->Arg(1048576);

void BM_GcdVariant(benchmark::State& state) {
  const auto variant = gcd::Variant(state.range(0));
  const std::size_t bits = std::size_t(state.range(1));
  // Products of primes, as in the paper's workload.
  Xoshiro256 rng(42);
  const BigInt n1 = rsa::random_prime(rng, bits / 2) * rsa::random_prime(rng, bits / 2);
  const BigInt n2 = rsa::random_prime(rng, bits / 2) * rsa::random_prime(rng, bits / 2);
  gcd::GcdEngine<std::uint32_t> engine(n1.size());
  for (auto _ : state) {
    const auto run =
        engine.run(variant, n1.limbs(), n2.limbs(), bits / 2);
    benchmark::DoNotOptimize(run.early_coprime);
  }
  state.SetLabel(std::string(to_string(variant)) + "/" + std::to_string(bits) +
                 "bit/early");
}
BENCHMARK(BM_GcdVariant)
    ->Args({std::int64_t(gcd::Variant::kBinary), 1024})
    ->Args({std::int64_t(gcd::Variant::kFastBinary), 1024})
    ->Args({std::int64_t(gcd::Variant::kApproximate), 1024})
    ->Args({std::int64_t(gcd::Variant::kOriginal), 1024})
    ->Args({std::int64_t(gcd::Variant::kFast), 1024});

void BM_GcdLehmer(benchmark::State& state) {
  const std::size_t bits = std::size_t(state.range(0));
  Xoshiro256 rng(43);
  const BigInt n1 = rsa::random_prime(rng, bits / 2) * rsa::random_prime(rng, bits / 2);
  const BigInt n2 = rsa::random_prime(rng, bits / 2) * rsa::random_prime(rng, bits / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcd::gcd_lehmer(n1, n2));
  }
}
BENCHMARK(BM_GcdLehmer)->Arg(1024)->Arg(4096);

void BM_MontgomeryMul(benchmark::State& state) {
  const std::size_t bits = std::size_t(state.range(0));
  const BigInt n = make_odd(11, bits);
  const rsa::MontgomeryContext ctx(n);
  const BigInt a = ctx.to_mont(make_odd(12, bits - 2));
  const BigInt b = ctx.to_mont(make_odd(13, bits - 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.mul(a, b));
  }
}
BENCHMARK(BM_MontgomeryMul)->Arg(512)->Arg(2048);

void BM_ModPowMontgomeryVsPlain(benchmark::State& state) {
  const bool montgomery = state.range(0) != 0;
  const std::size_t bits = 512;
  const BigInt n = make_odd(14, bits);
  const BigInt base = make_odd(15, bits - 1);
  const BigInt exp = make_odd(16, bits);
  const rsa::MontgomeryContext ctx(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(montgomery ? ctx.pow(base, exp)
                                        : rsa::modpow(base, exp, n));
  }
  state.SetLabel(montgomery ? "montgomery/512bit" : "divmod/512bit");
}
BENCHMARK(BM_ModPowMontgomeryVsPlain)->Arg(1)->Arg(0);

}  // namespace

BENCHMARK_MAIN();
