// Direct unit tests for the bulk memory layouts and the UMM address mapping
// (these are otherwise only exercised indirectly through the engines).
#include "bulk/layout.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "bulk/staged_corpus.hpp"
#include "mp/bigint.hpp"
#include "umm/umm.hpp"

namespace bulkgcd {
namespace {

TEST(ColumnMatrixTest, LaneElementsAreStridedByLaneCount) {
  bulk::ColumnMatrix<std::uint32_t> mat(4, 3);
  EXPECT_EQ(mat.lanes(), 4u);
  EXPECT_EQ(mat.limbs(), 3u);
  EXPECT_EQ(mat.bytes(), 4u * 3u * sizeof(std::uint32_t));
  // Write through lane views, check the column-major physical layout via
  // neighbouring lanes: element i of lane t and lane t+1 are adjacent.
  for (std::size_t t = 0; t < 4; ++t) {
    auto lane = mat.lane(t);
    for (std::size_t i = 0; i < 3; ++i) lane[i] = std::uint32_t(10 * t + i);
  }
  auto lane0 = mat.lane(0);
  auto lane1 = mat.lane(1);
  EXPECT_EQ(&lane1[0], &lane0[0] + 1);   // same limb, next lane: adjacent
  EXPECT_EQ(&lane0[1], &lane0[0] + 4);   // next limb: a full row away
  EXPECT_EQ(lane1[2], 12u);
}

TEST(RowMatrixTest, LaneElementsAreContiguous) {
  bulk::RowMatrix<std::uint32_t> mat(4, 3);
  for (std::size_t t = 0; t < 4; ++t) {
    auto lane = mat.lane(t);
    for (std::size_t i = 0; i < 3; ++i) lane[i] = std::uint32_t(10 * t + i);
  }
  auto lane2 = mat.lane(2);
  EXPECT_EQ(&lane2[1], &lane2[0] + 1);   // next limb: adjacent
  EXPECT_EQ(lane2[1], 21u);
}

TEST(LayoutTest, FillLaneZeroPadsTheTail) {
  bulk::ColumnMatrix<std::uint32_t> mat(2, 5);
  const std::uint32_t src[2] = {7, 9};
  mat.fill_lane(0, src, 2);
  auto lane = mat.lane(0);
  EXPECT_EQ(lane[0], 7u);
  EXPECT_EQ(lane[1], 9u);
  EXPECT_EQ(lane[2], 0u);
  EXPECT_EQ(lane[4], 0u);
  // Refilling with shorter data clears the previous contents.
  const std::uint32_t shorter[1] = {3};
  mat.fill_lane(0, shorter, 1);
  EXPECT_EQ(lane[0], 3u);
  EXPECT_EQ(lane[1], 0u);
}

TEST(MapAddressTest, ColumnWiseInterleavesThreads) {
  // Column-wise: logical i of thread t -> i*p + t.
  EXPECT_EQ(umm::map_address(umm::Layout::kColumnWise, 0, 0, 8, 16), 0u);
  EXPECT_EQ(umm::map_address(umm::Layout::kColumnWise, 0, 5, 8, 16), 5u);
  EXPECT_EQ(umm::map_address(umm::Layout::kColumnWise, 3, 2, 8, 16), 26u);
  // Adjacent threads at the same logical address are adjacent globally.
  const auto a = umm::map_address(umm::Layout::kColumnWise, 7, 3, 8, 16);
  const auto b = umm::map_address(umm::Layout::kColumnWise, 7, 4, 8, 16);
  EXPECT_EQ(b, a + 1);
}

TEST(MapAddressTest, RowWiseSeparatesThreadsBySpan) {
  // Row-wise: logical i of thread t -> t*span + i.
  EXPECT_EQ(umm::map_address(umm::Layout::kRowWise, 3, 2, 8, 16), 35u);
  const auto a = umm::map_address(umm::Layout::kRowWise, 7, 3, 8, 16);
  const auto b = umm::map_address(umm::Layout::kRowWise, 7, 4, 8, 16);
  EXPECT_EQ(b, a + 16);  // a whole span apart: different address groups
  // span == 0 is the identity mapping used for hand-built traces.
  EXPECT_EQ(umm::map_address(umm::Layout::kRowWise, 42, 3, 8, 0), 42u);
}

TEST(LayoutTest, ToStringNames) {
  EXPECT_STREQ(to_string(umm::Layout::kColumnWise), "column-wise");
  EXPECT_STREQ(to_string(umm::Layout::kRowWise), "row-wise");
}

TEST(StridedTest, IndexScalesByStride) {
  std::uint32_t buf[12] = {};
  for (std::uint32_t i = 0; i < 12; ++i) buf[i] = i;
  // stride 4 starting at offset 1 picks 1, 5, 9 — a lane of a 4-lane
  // column-major matrix.
  bulk::Strided<std::uint32_t> acc{buf + 1, 4};
  EXPECT_EQ(acc[0], 1u);
  EXPECT_EQ(acc[1], 5u);
  EXPECT_EQ(acc[2], 9u);
  acc[1] = 77;
  EXPECT_EQ(buf[5], 77u);
  bulk::ConstStrided<std::uint32_t> cacc{buf + 1, 4};
  EXPECT_EQ(cacc[1], 77u);
  EXPECT_EQ(&cacc[2], buf + 9);
  // stride 1 degenerates to a plain contiguous view (RowMatrix lanes).
  bulk::ConstStrided<std::uint32_t> flat{buf, 1};
  EXPECT_EQ(&flat[3], buf + 3);
}

TEST(CorpusPanelsTest, GeometryAndTailLanes) {
  // 7 moduli in groups of 3: 3 groups, last one 1-lane ragged.
  std::vector<mp::BigInt> moduli;
  for (std::uint32_t i = 0; i < 7; ++i) {
    moduli.push_back(mp::BigInt((std::uint64_t(i + 1) << 33) | 1u));
  }
  const std::size_t pad = moduli[6].size() + bulk::kBatchPadLimbs;
  bulk::CorpusPanels<std::uint32_t> panels(moduli, 3, pad);
  EXPECT_EQ(panels.corpus_size(), 7u);
  EXPECT_EQ(panels.group_count(), 3u);
  EXPECT_EQ(panels.lanes(), 3u);
  EXPECT_EQ(panels.padded_limbs(), pad);
  // Column-major panel: limb i of member t at panel[i*r + t].
  const auto p0 = panels.panel(0);
  ASSERT_EQ(p0.size(), 3u * pad);
  EXPECT_EQ(p0[0], moduli[0].limbs()[0]);
  EXPECT_EQ(p0[1], moduli[1].limbs()[0]);
  EXPECT_EQ(p0[3 + 2], moduli[2].limbs()[1]);  // limb 1, lane 2
  // rows = max member size + 1 (the β write row).
  EXPECT_EQ(panels.rows(0), moduli[2].size() + 1);
  // Tail group: lanes past the corpus end carry size 0 and zero limbs.
  const auto tail_sizes = panels.sizes(2);
  EXPECT_EQ(tail_sizes[0], moduli[6].size());
  EXPECT_EQ(tail_sizes[1], 0u);
  EXPECT_EQ(tail_sizes[2], 0u);
  const auto p2 = panels.panel(2);
  EXPECT_EQ(p2[1], 0u);  // limb 0 of dead lane 1
  // Bit lengths live with the corpus, not the panels.
  const bulk::StagedCorpus staged(moduli, 3);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(staged.bits(i), moduli[i].bit_length());
  }
}

TEST(CorpusPanelsTest, RejectsModuliThatOverrunThePadRow) {
  // padded_limbs must leave kBatchPadLimbs rows above the longest modulus —
  // one short and construction must throw rather than stage a panel the
  // batch would overrun.
  std::vector<mp::BigInt> moduli{mp::BigInt(1) << 95};  // 4 limbs
  EXPECT_THROW(
      (bulk::CorpusPanels<std::uint32_t>(
          moduli, 2, moduli[0].size() + bulk::kBatchPadLimbs - 1)),
      std::length_error);
  // Exactly enough is accepted.
  EXPECT_NO_THROW((bulk::CorpusPanels<std::uint32_t>(
      moduli, 2, moduli[0].size() + bulk::kBatchPadLimbs)));
}

}  // namespace
}  // namespace bulkgcd
