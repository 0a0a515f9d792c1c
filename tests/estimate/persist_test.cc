#include <gtest/gtest.h>

#include <algorithm>
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

/** Where `a` and `b` first differ, for a readable failure. */
std::string
firstDifference(const std::string& a, const std::string& b)
{
    const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(),
                                        b.end());
    const size_t at = size_t(ia - a.begin());
    const size_t line = size_t(std::count(a.begin(), ia, '\n')) + 1;
    return "first difference at byte " + std::to_string(at) +
           " (line " + std::to_string(line) + "); sizes " +
           std::to_string(a.size()) + " and " + std::to_string(b.size());
}

std::string
freshCalibration(uint64_t seed)
{
    std::ostringstream os;
    AreaEstimator(defaultToolchain(), 200, seed).save(os);
    return os.str();
}

// The committed calibration is what a fresh calibration renders, byte
// for byte. When a model change breaks this, regenerate the file in
// the same change with `dhdlc calibrate --out src/estimate`.
TEST(CalibrationTest, EmbeddedMatchesFreshCalibration)
{
    const std::string fresh = freshCalibration(0xA11CE);
    const std::string embedded(embeddedCalibration());
    EXPECT_TRUE(fresh == embedded)
        << "src/estimate/dhdl_calibration.txt is stale: "
        << firstDifference(fresh, embedded)
        << "; regenerate it with `dhdlc calibrate --out src/estimate`";
}

// The comparison above can fail: another training seed renders other
// bytes.
TEST(CalibrationTest, OtherSeedDiffersFromEmbedded)
{
    EXPECT_TRUE(freshCalibration(0xA11CE ^ 1) != embeddedCalibration());
}

// calibratedEstimator() is the embedded calibration, not a retrain.
TEST(CalibrationTest, CalibratedEstimatorSavesEmbeddedBytes)
{
    std::ostringstream os;
    calibratedEstimator().save(os);
    EXPECT_TRUE(os.str() == embeddedCalibration())
        << firstDifference(os.str(), std::string(embeddedCalibration()));
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
