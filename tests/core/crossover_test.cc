/** @file Tests for the crossover (required-parallelism) analysis. */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/crossover.hh"
#include "core/multi_amdahl.hh"
#include "support/scalar_oracles.hh"
#include "util/math.hh"

namespace hcm {
namespace core {
namespace {

const itrs::NodeParams &node22 = itrs::nodeParams(22.0);

Organization
het(double mu, double phi)
{
    Organization o;
    o.kind = OrgKind::Heterogeneous;
    o.name = "test-ucore";
    o.ucore = UCoreParams{mu, phi};
    return o;
}

TEST(CrossoverTest, RatioBasics)
{
    Budget b{64.0, 12.0, 80.0};
    Organization fast = het(10.0, 0.8);
    // At f = 0: both reduce to sqrt(r) with the same serial bounds.
    EXPECT_NEAR(speedupRatio(fast, asymmetricCmp(), 0.0, b), 1.0, 1e-9);
    // At high f the U-core dominates.
    EXPECT_GT(speedupRatio(fast, asymmetricCmp(), 0.99, b), 3.0);
}

TEST(CrossoverTest, RatioHandlesInfeasibility)
{
    Budget tiny{64.0, 0.5, 80.0}; // serial bounds kill everyone
    EXPECT_DOUBLE_EQ(
        speedupRatio(het(4.0, 1.0), asymmetricCmp(), 0.9, tiny), 0.0);
}

TEST(CrossoverTest, FractionBracketsTheTarget)
{
    Budget b{64.0, 12.0, 80.0};
    Organization o = het(10.0, 0.8);
    auto f_star = crossoverFraction(o, asymmetricCmp(), 1.5, b);
    ASSERT_TRUE(f_star);
    EXPECT_GT(*f_star, 0.0);
    EXPECT_LT(*f_star, 1.0);
    // Just below: under target; just above: over.
    EXPECT_LT(speedupRatio(o, asymmetricCmp(), *f_star - 0.01, b), 1.5);
    EXPECT_GE(speedupRatio(o, asymmetricCmp(), *f_star + 0.01, b), 1.5);
}

TEST(CrossoverTest, UnreachableTargetIsNullopt)
{
    Budget b{64.0, 12.0, 80.0};
    // A U-core barely better than a BCE can't ever 10x the CMP.
    EXPECT_FALSE(crossoverFraction(het(1.1, 1.0), asymmetricCmp(), 10.0,
                                   b));
}

TEST(CrossoverTest, TrivialTargetReturnsLowBound)
{
    Budget b{64.0, 12.0, 80.0};
    auto f_star = crossoverFraction(het(10.0, 0.8), asymmetricCmp(),
                                    0.5, b);
    ASSERT_TRUE(f_star);
    EXPECT_DOUBLE_EQ(*f_star, 0.0);
}

TEST(CrossoverTest, PaperConclusionOneQuantified)
{
    // "Pronounced differences emerge when f >= 0.90": a 1.5x edge over
    // the best CMP requires high parallelism for every fabric with
    // data, on every workload.
    for (const wl::Workload &w :
         {wl::Workload::fft(1024), wl::Workload::blackScholes(),
          wl::Workload::mmm()}) {
        for (dev::DeviceId id : {dev::DeviceId::Gtx285,
                                 dev::DeviceId::Asic}) {
            auto f_star = requiredParallelism(id, w, 1.5, node22);
            ASSERT_TRUE(f_star) << w.name();
            EXPECT_GT(*f_star, 0.5)
                << dev::deviceName(id) << " " << w.name();
            EXPECT_LT(*f_star, 0.99)
                << dev::deviceName(id) << " " << w.name();
        }
    }
}

TEST(CrossoverTest, BetterFabricsNeedLessParallelism)
{
    auto w = wl::Workload::mmm();
    auto f_asic = requiredParallelism(dev::DeviceId::Asic, w, 2.0,
                                      node22);
    auto f_gpu = requiredParallelism(dev::DeviceId::Gtx480, w, 2.0,
                                     node22);
    ASSERT_TRUE(f_asic && f_gpu);
    EXPECT_LT(*f_asic, *f_gpu);
}

TEST(CrossoverTest, SegmentScenarioBisectsTheEffectiveModel)
{
    // Under a segment profile the answer is the bisection on the
    // effective organizations at fScale * f, computed here by hand with
    // the scalar oracle; it is not the single-f answer.
    const Scenario &scenario = scenarioByName("multi-amdahl");
    const wl::Workload w = wl::Workload::fft(1024);
    const double target = 1.5;
    Budget budget = makeBudget(node22, w, scenario);
    OptimizerOptions opts;
    opts.alpha = scenario.alpha;
    EffectiveOrg cmps[] = {
        effectiveOrganization(symmetricCmp(), scenario.segments),
        effectiveOrganization(asymmetricCmp(), scenario.segments)};
    int moved = 0;
    for (dev::DeviceId id : {dev::DeviceId::Lx760, dev::DeviceId::Gtx285,
                             dev::DeviceId::Gtx480, dev::DeviceId::Asic}) {
        EffectiveOrg het_eff = effectiveOrganization(
            *heterogeneous(id, w), scenario.segments);
        auto gap = [&](double f) {
            DesignPoint c = optimizeScalar(
                het_eff.org, het_eff.fScale * f, budget, opts);
            if (!c.feasible)
                return -target;
            double best_cmp = 0.0;
            for (const EffectiveOrg &cmp : cmps) {
                DesignPoint dp = optimizeScalar(
                    cmp.org, cmp.fScale * f, budget, opts);
                if (dp.feasible)
                    best_cmp = std::max(best_cmp, dp.speedup);
            }
            if (best_cmp <= 0.0)
                return target;
            return c.speedup / best_cmp - target;
        };
        std::optional<double> want;
        if (gap(0.9999) >= 0.0)
            want = gap(0.0) >= 0.0 ? 0.0 : bisect(gap, 0.0, 0.9999, 1e-5);

        auto got = requiredParallelism(id, w, target, node22, scenario);
        EXPECT_EQ(got, want) << dev::deviceName(id);
        if (got != requiredParallelism(id, w, target, node22))
            ++moved;
    }
    EXPECT_GT(moved, 0) << "the segment profile changed no answer";
}

TEST(CrossoverTest, MissingCalibrationIsNullopt)
{
    EXPECT_FALSE(requiredParallelism(dev::DeviceId::R5870,
                                     wl::Workload::blackScholes(), 1.5,
                                     node22));
}

} // namespace
} // namespace core
} // namespace hcm
