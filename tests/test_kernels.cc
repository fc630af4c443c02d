/**
 * @file
 * Tests for the trace-emitting device kernels: functional correctness
 * against the reference implementations, phase structure, and FP-op
 * accounting.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "kernels/address_map.hh"
#include "kernels/conv.hh"
#include "kernels/gemm.hh"
#include "kernels/inner_spgemm.hh"
#include "kernels/spmspm.hh"
#include "kernels/spmspv.hh"
#include "sim/transmuter.hh"
#include "sparse/generators.hh"
#include "sparse/reference.hh"

using namespace sadapt;

namespace {

constexpr SystemShape shape{2, 8};

} // namespace

TEST(SpMSpMKernel, ProductMatchesReference)
{
    Rng rng(1);
    CsrMatrix am = makeUniformRandom(64, 400, rng);
    CsrMatrix bm = makeUniformRandom(64, 400, rng);
    CscMatrix a(am);
    auto build = buildSpMSpM(a, bm, shape, MemType::Cache);
    CsrMatrix want = referenceSpGemm(a, bm);
    ASSERT_EQ(build.product.nnz(), want.nnz());
    for (std::uint32_t r = 0; r < 64; ++r)
        for (std::uint32_t c : want.rowCols(r))
            EXPECT_NEAR(build.product.at(r, c), want.at(r, c), 1e-12);
}

TEST(SpMSpMKernel, SpmVariantSameProduct)
{
    Rng rng(2);
    CsrMatrix am = makeRmat(64, 300, rng);
    CscMatrix a(am);
    CsrMatrix bt = am.transposed();
    auto cache = buildSpMSpM(a, bt, shape, MemType::Cache);
    auto spm = buildSpMSpM(a, bt, shape, MemType::Spm);
    EXPECT_EQ(cache.product, spm.product);
}

TEST(SpMSpMKernel, HasMultiplyAndMergePhases)
{
    Rng rng(3);
    CscMatrix a(makeUniformRandom(32, 100, rng));
    CsrMatrix b = makeUniformRandom(32, 100, rng);
    auto build = buildSpMSpM(a, b, shape, MemType::Cache);
    ASSERT_EQ(build.trace.phaseNames().size(), 2u);
    EXPECT_EQ(build.trace.phaseNames()[0], "multiply");
    EXPECT_EQ(build.trace.phaseNames()[1], "merge");
    EXPECT_GT(build.multiplyFlops, 0.0);
    EXPECT_GT(build.mergeFlops, 0.0);
}

TEST(SpMSpMKernel, FlopAccountingMatchesTrace)
{
    Rng rng(4);
    CscMatrix a(makeUniformRandom(48, 200, rng));
    CsrMatrix b = makeUniformRandom(48, 200, rng);
    auto build = buildSpMSpM(a, b, shape, MemType::Cache);
    EXPECT_DOUBLE_EQ(build.trace.totalFlops(),
                     build.multiplyFlops + build.mergeFlops);
}

TEST(SpMSpMKernel, WorkSpreadAcrossGpes)
{
    Rng rng(5);
    CscMatrix a(makeUniformRandom(64, 500, rng));
    CsrMatrix b = makeUniformRandom(64, 500, rng);
    auto build = buildSpMSpM(a, b, shape, MemType::Cache);
    for (std::uint32_t g = 0; g < shape.numGpes(); ++g)
        EXPECT_GT(build.trace.gpeStream(g).size, 0u);
    // LCPs dispatch work.
    EXPECT_GT(build.trace.lcpStream(0).size, 0u);
    EXPECT_GT(build.trace.lcpStream(1).size, 0u);
}

TEST(SpMSpMKernel, RunsOnSimulator)
{
    Rng rng(6);
    CscMatrix a(makeRmat(64, 300, rng));
    CsrMatrix b = makeRmat(64, 300, rng);
    auto build = buildSpMSpM(a, b, shape, MemType::Cache);
    RunParams rp;
    rp.shape = shape;
    rp.epochFpOps = 100;
    Transmuter sim(rp);
    auto res = sim.run(build.trace, baselineConfig());
    EXPECT_GT(res.epochs.size(), 1u);
    EXPECT_NEAR(res.totalFlops(), build.trace.totalFlops(), 1e-9);
    // Multiply epochs precede merge epochs.
    EXPECT_EQ(res.epochs.front().phase, 0);
    EXPECT_EQ(res.epochs.back().phase, 1);
}

TEST(SpMSpVKernel, ResultMatchesReference)
{
    Rng rng(7);
    CscMatrix a(makeUniformRandom(128, 800, rng));
    SparseVector x = SparseVector::random(128, 0.5, rng);
    auto build = buildSpMSpV(a, x, shape, MemType::Cache);
    SparseVector want = referenceSpMSpV(a, x);
    // Summation order differs (dispatch order vs column order), so
    // values may differ in the last ULPs.
    ASSERT_EQ(build.result.nnz(), want.nnz());
    for (std::size_t i = 0; i < want.nnz(); ++i) {
        EXPECT_EQ(build.result.entries()[i].index,
                  want.entries()[i].index);
        EXPECT_NEAR(build.result.entries()[i].value,
                    want.entries()[i].value, 1e-12);
    }
}

TEST(SpMSpVKernel, SpmVariantSameResult)
{
    Rng rng(8);
    CscMatrix a(makeRmat(128, 600, rng));
    SparseVector x = SparseVector::random(128, 0.3, rng);
    auto cache = buildSpMSpV(a, x, shape, MemType::Cache);
    auto spm = buildSpMSpV(a, x, shape, MemType::Spm);
    EXPECT_EQ(cache.result, spm.result);
}

TEST(SpMSpVKernel, EmptyVectorYieldsEmptyResult)
{
    Rng rng(9);
    CscMatrix a(makeUniformRandom(64, 200, rng));
    SparseVector x(64);
    auto build = buildSpMSpV(a, x, shape, MemType::Cache);
    EXPECT_EQ(build.result.nnz(), 0u);
    // The gather pass still scans the accumulator.
    EXPECT_GT(build.trace.totalOps(), 0u);
}

TEST(SpMSpVKernel, FlopAccountingMatchesTrace)
{
    Rng rng(10);
    CscMatrix a(makeUniformRandom(96, 500, rng));
    SparseVector x = SparseVector::random(96, 0.4, rng);
    auto build = buildSpMSpV(a, x, shape, MemType::Cache);
    EXPECT_DOUBLE_EQ(build.trace.totalFlops(), build.flops);
}

TEST(SpMSpVKernel, RunsOnSimulator)
{
    Rng rng(11);
    CscMatrix a(makeRmat(256, 2000, rng));
    SparseVector x = SparseVector::random(256, 0.5, rng);
    auto build = buildSpMSpV(a, x, shape, MemType::Cache);
    RunParams rp;
    rp.shape = shape;
    rp.epochFpOps = 500;
    Transmuter sim(rp);
    auto res = sim.run(build.trace, baselineConfig());
    EXPECT_GE(res.epochs.size(), 1u);
    EXPECT_NEAR(res.totalFlops(), build.flops, 1e-9);
}

TEST(GemmKernel, MatchesReference)
{
    Rng rng(12);
    const std::uint32_t m = 24, k = 16, n = 20;
    std::vector<double> a(m * k), b(k * n);
    for (auto &v : a)
        v = rng.uniform();
    for (auto &v : b)
        v = rng.uniform();
    auto build = buildGemm(a, b, m, k, n, shape);
    auto want = referenceGemm(a, b, m, k, n);
    ASSERT_EQ(build.product.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_NEAR(build.product[i], want[i], 1e-12);
    EXPECT_DOUBLE_EQ(build.trace.totalFlops(), build.flops);
}

TEST(ConvKernel, MatchesReference)
{
    Rng rng(13);
    const std::uint32_t h = 20, w = 24, f = 3;
    std::vector<double> img(h * w), flt(f * f);
    for (auto &v : img)
        v = rng.uniform();
    for (auto &v : flt)
        v = rng.uniform();
    auto build = buildConv2d(img, h, w, flt, f, shape);
    auto want = referenceConv2d(img, h, w, flt, f);
    ASSERT_EQ(build.output.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_NEAR(build.output[i], want[i], 1e-12);
    EXPECT_DOUBLE_EQ(build.trace.totalFlops(), build.flops);
}

TEST(AddressMap, DisjointLineAlignedRegions)
{
    AddressMap m;
    const Addr a = m.alloc("a", 100);
    const Addr b = m.alloc("b", 100);
    EXPECT_EQ(a % lineSize, 0u);
    EXPECT_EQ(b % lineSize, 0u);
    EXPECT_GE(b, a + 100);
    EXPECT_EQ(m.base("a"), a);
    EXPECT_GE(m.footprint(), b + 100);
}

TEST(AddressMapDeathTest, DuplicateNamePanics)
{
    AddressMap m;
    m.alloc("x", 8);
    EXPECT_DEATH(m.alloc("x", 8), "duplicate region");
}

TEST(InnerSpGemm, MatchesOuterProductResult)
{
    Rng rng(20);
    CsrMatrix a = makeUniformRandom(48, 300, rng);
    CsrMatrix bt = a.transposed();
    auto op = buildSpMSpM(CscMatrix(a), bt, shape, MemType::Cache);
    auto ip = buildInnerSpGemm(a, CscMatrix(bt), shape,
                               MemType::Cache);
    ASSERT_EQ(ip.product.nnz(), op.product.nnz());
    for (std::uint32_t r = 0; r < 48; ++r)
        for (std::uint32_t c : op.product.rowCols(r))
            EXPECT_NEAR(ip.product.at(r, c), op.product.at(r, c),
                        1e-12);
}

TEST(InnerSpGemm, MatchesReferenceOnRectangular)
{
    Rng rng(21);
    CsrMatrix a = makeUniformRandom(40, 250, rng);
    CsrMatrix b = makeUniformRandom(40, 250, rng);
    auto ip = buildInnerSpGemm(a, CscMatrix(b), shape,
                               MemType::Cache);
    CsrMatrix want = referenceSpGemm(CscMatrix(a), b);
    ASSERT_EQ(ip.product.nnz(), want.nnz());
    for (std::uint32_t r = 0; r < 40; ++r)
        for (std::uint32_t c : want.rowCols(r))
            EXPECT_NEAR(ip.product.at(r, c), want.at(r, c), 1e-12);
}

TEST(InnerSpGemm, SpmVariantSameProduct)
{
    Rng rng(22);
    CsrMatrix a = makeRmat(64, 400, rng);
    CscMatrix bt(a.transposed());
    auto cache = buildInnerSpGemm(a, bt, shape, MemType::Cache);
    auto spm = buildInnerSpGemm(a, bt, shape, MemType::Spm);
    EXPECT_EQ(cache.product, spm.product);
}

TEST(InnerSpGemm, FlopAccountingMatchesTrace)
{
    Rng rng(23);
    CsrMatrix a = makeUniformRandom(32, 150, rng);
    auto ip = buildInnerSpGemm(a, CscMatrix(a.transposed()), shape,
                               MemType::Cache);
    EXPECT_DOUBLE_EQ(ip.trace.totalFlops(), ip.multiplyFlops);
    EXPECT_EQ(ip.trace.phaseNames().size(), 1u);
}
