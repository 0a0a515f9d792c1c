#include <gtest/gtest.h>

#include <sstream>

#include "estimate/area_estimator.hh"

namespace dhdl::est {
namespace {

TEST(PersistTest, CalibrationRoundTripPreservesEstimates)
{
    const AreaEstimator& orig = calibratedEstimator();
    std::stringstream ss;
    orig.save(ss);
    AreaEstimator back(orig.device(), ss);

    for (uint64_t s : {11ull, 222ull, 3333ull}) {
        auto ts = fpga::randomTemplateList(orig.device(), s);
        auto a = orig.estimateList(ts);
        auto b = back.estimateList(ts);
        EXPECT_DOUBLE_EQ(a.alms, b.alms);
        EXPECT_DOUBLE_EQ(a.brams, b.brams);
        EXPECT_DOUBLE_EQ(a.dsps, b.dsps);
        EXPECT_DOUBLE_EQ(a.routeLuts, b.routeLuts);
        EXPECT_DOUBLE_EQ(a.dupRegs, b.dupRegs);
    }
}

TEST(PersistTest, ResaveIsByteIdentical)
{
    const AreaEstimator& orig = calibratedEstimator();
    std::stringstream first;
    orig.save(first);
    AreaEstimator back(orig.device(), first);
    std::stringstream second;
    back.save(second);
    EXPECT_EQ(first.str(), second.str());
}

TEST(PersistTest, AreaModelRoundTrip)
{
    const AreaModel& m = calibratedEstimator().model();
    std::stringstream ss;
    m.save(ss);
    AreaModel back = AreaModel::load(ss);
    EXPECT_EQ(back.numClasses(), m.numClasses());

    TemplateInst t;
    t.tkind = TemplateKind::PrimOp;
    t.op = Op::Mul;
    t.isFloat = true;
    t.bits = 32;
    t.lanes = 5;
    auto a = m.cost(t);
    auto b = back.cost(t);
    EXPECT_DOUBLE_EQ(a.totalLuts(), b.totalLuts());
    EXPECT_DOUBLE_EQ(a.dsps, b.dsps);
}

TEST(PersistTest, CorruptHeaderIsFatal)
{
    std::stringstream ss("nonsense v9\n");
    EXPECT_THROW(AreaEstimator(fpga::Device::maia(), ss), FatalError);
}

TEST(PersistTest, TruncatedCalibrationIsFatal)
{
    const AreaEstimator& orig = calibratedEstimator();
    std::stringstream ss;
    orig.save(ss);
    std::string full = ss.str();
    std::stringstream cut(full.substr(0, full.size() / 2));
    EXPECT_THROW(AreaEstimator(orig.device(), cut), FatalError);
}

} // namespace
} // namespace dhdl::est
