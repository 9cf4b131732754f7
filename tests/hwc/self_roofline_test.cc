/** @file Tests for the measured self-roofline. Everything shrinks to
 *  smoke scale (a few milliseconds of probing) — the point is the
 *  report's shape, not the numbers: the wall-clock ceilings must come
 *  back positive, the hot loops must be timed, and both exports (JSON
 *  and terminal) must carry the ceilings and the per-loop times. */

#include <sstream>

#include <gtest/gtest.h>

#include "hwc/self_roofline.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace hwc {
namespace {

SelfRooflineOptions
smokeOptions()
{
    SelfRooflineOptions opts;
    opts.probe.streamElems = 1u << 14;
    opts.probe.minSeconds = 0.002;
    opts.probe.passes = 1;
    opts.loopMinSeconds = 0.002;
    return opts;
}

TEST(SelfRooflineTest, CeilingsAndHotLoopsAlwaysMeasure)
{
    SelfRooflineReport report = measureSelfRoofline(smokeOptions());
    EXPECT_GT(report.machine.streamBytesPerSec, 0.0);
    EXPECT_GT(report.machine.peakOpsPerSec, 0.0);
    ASSERT_EQ(report.points.size(), 2u);
    EXPECT_EQ(report.points[0].name, "optimize-r-grid");
    EXPECT_EQ(report.points[1].name, "sweep-slice");
    for (const RooflinePoint &p : report.points) {
        EXPECT_GE(p.iterations, 1u);
        EXPECT_GT(p.seconds, 0.0);
        EXPECT_DOUBLE_EQ(p.nsPerIter(),
                         p.seconds * 1e9 /
                             static_cast<double>(p.iterations));
    }
}

TEST(SelfRooflineTest, JsonExportIsWellFormedAndTagged)
{
    SelfRooflineReport report = measureSelfRoofline(smokeOptions());
    std::ostringstream out;
    writeSelfRooflineJson(report, out);
    std::string error;
    auto doc = JsonValue::parse(out.str(), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(doc->find("schema")->asString(), "hcm-self-roofline/v2");
    EXPECT_EQ(doc->find("counters"), nullptr);
    const JsonValue *machine = doc->find("machine");
    ASSERT_TRUE(machine && machine->isObject());
    EXPECT_GT(machine->find("stream_bytes_per_sec")->asNumber(), 0.0);
    EXPECT_GT(machine->find("peak_flops_per_sec")->asNumber(), 0.0);
    const JsonValue *points = doc->find("points");
    ASSERT_TRUE(points && points->isArray());
    ASSERT_EQ(points->size(), 2u);
    for (const JsonValue &p : points->items()) {
        EXPECT_GE(p.find("iterations")->asNumber(), 1.0);
        EXPECT_GT(p.find("seconds")->asNumber(), 0.0);
        EXPECT_GT(p.find("ns_per_iter")->asNumber(), 0.0);
    }
}

TEST(SelfRooflineTest, RenderShowsCeilingsAndHotLoopTimes)
{
    SelfRooflineReport report = measureSelfRoofline(smokeOptions());
    std::string text = renderSelfRoofline(report);
    EXPECT_NE(text.find("stream bandwidth"), std::string::npos);
    EXPECT_NE(text.find("peak compute"), std::string::npos);
    EXPECT_NE(text.find("Hot loops"), std::string::npos);
    EXPECT_NE(text.find("ns/iter"), std::string::npos);
    EXPECT_NE(text.find("optimize-r-grid"), std::string::npos);
    EXPECT_NE(text.find("sweep-slice"), std::string::npos);
}

} // namespace
} // namespace hwc
} // namespace hcm
