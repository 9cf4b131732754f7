/** @file Tests for the parallel design-space sweep engine. */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "obs/metrics.hh"
#include "sweep/export.hh"
#include "sweep/sweep.hh"

namespace hcm {
namespace sweep {
namespace {

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.workloads = {wl::Workload::mmm(), wl::Workload::fft(1024)};
    spec.fractions = {0.5, 0.99};
    spec.scenarios = {core::baselineScenario(),
                      core::scenarioByName("power-10w")};
    return spec;
}

std::string
toCsv(const SweepResult &result)
{
    std::ostringstream out;
    writeSweepCsv(out, result);
    return out.str();
}

TEST(SweepTest, CountsUnitsAsWorkloadOrgCrossProduct)
{
    SweepSpec spec = smallSpec();
    std::size_t orgs = 0;
    for (const wl::Workload &w : spec.workloads)
        orgs += core::paperOrganizations(w, spec.calib).size();
    EXPECT_EQ(countUnits(spec),
              orgs * spec.fractions.size() * spec.scenarios.size());
    SweepResult result = runSweep(spec, {});
    EXPECT_EQ(result.rows.size(), countUnits(spec));
    EXPECT_EQ(result.units, result.rows.size());
}

TEST(SweepTest, SerialAndParallelOutputAreByteIdentical)
{
    SweepSpec spec = smallSpec();
    SweepOptions serial;
    serial.jobs = 1;
    SweepOptions parallel;
    parallel.jobs = 8;
    SweepResult a = runSweep(spec, serial);
    SweepResult b = runSweep(spec, parallel);
    EXPECT_EQ(a.jobs, 1u);
    EXPECT_EQ(b.jobs, 8u);
    EXPECT_EQ(toCsv(a), toCsv(b));
}

TEST(SweepTest, RowsComeBackInCanonicalOrder)
{
    SweepSpec spec = smallSpec();
    SweepOptions opts;
    opts.jobs = 4;
    SweepResult result = runSweep(spec, opts);
    // Workload-major: every MMM row precedes every FFT row, fractions
    // ascend within a workload, scenarios cycle within a fraction.
    // Workloads contribute different row counts (their paper
    // organization sets differ), so compute the boundary.
    std::size_t first_block =
        core::paperOrganizations(spec.workloads[0], spec.calib).size() *
        spec.fractions.size() * spec.scenarios.size();
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
        const SweepRow &row = result.rows[i];
        EXPECT_EQ(row.workload, i < first_block
                                    ? spec.workloads[0].name()
                                    : spec.workloads[1].name());
        EXPECT_EQ(row.cells.size(), itrs::nodeTable().size());
    }
    EXPECT_DOUBLE_EQ(result.rows.front().f, 0.5);
    EXPECT_EQ(result.rows.front().scenario, "baseline");
}

TEST(SweepTest, MatchesSerialProjectionReference)
{
    const core::Scenario &scenario = core::baselineScenario();
    SweepSpec spec;
    spec.workloads = {wl::Workload::mmm()};
    spec.fractions = {0.99};
    spec.scenarios = {scenario};
    SweepOptions opts;
    opts.jobs = 4;
    SweepResult swept = runSweep(spec, opts);
    SweepResult reference =
        projectionReference(wl::Workload::mmm(), 0.99, scenario);
    EXPECT_EQ(toCsv(swept), toCsv(reference));
}

TEST(SweepTest, ProgressIsMonotoneAndComplete)
{
    SweepSpec spec = smallSpec();
    for (std::size_t jobs : {1u, 3u, 4u}) {
        SCOPED_TRACE(jobs);
        SweepOptions opts;
        opts.jobs = jobs;
        std::size_t calls = 0, last_done = 0, last_total = 0;
        opts.progress = [&](std::size_t done, std::size_t total) {
            ++calls;
            EXPECT_EQ(done, last_done + 1); // serialized, strictly +1
            last_done = done;
            last_total = total;
        };
        SweepResult result = runSweep(spec, opts);
        EXPECT_EQ(calls, result.units);
        EXPECT_EQ(last_done, result.units);
        EXPECT_EQ(last_total, result.units);
    }
}

TEST(SweepTest, CountsUnitsInMetricsRegistry)
{
    // The counter and the gauge move once per block of units; whatever
    // the blocking and whether or not the per-unit progress lock is
    // taken, every unit is counted once and the gauge returns to 0.
    obs::Counter &counter =
        obs::globalRegistry().counter("hcm_sweep_units_total");
    obs::Gauge &active =
        obs::globalRegistry().gauge("hcm_sweep_active_units");
    for (std::size_t jobs : {1u, 3u, 8u}) {
        for (bool with_progress : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "jobs " << jobs << " progress "
                         << with_progress);
            SweepOptions opts;
            opts.jobs = jobs;
            if (with_progress)
                opts.progress = [](std::size_t, std::size_t) {};
            std::uint64_t before = counter.value();
            SweepResult result = runSweep(smallSpec(), opts);
            EXPECT_EQ(result.jobs, jobs);
            EXPECT_EQ(counter.value() - before, result.units);
            EXPECT_EQ(active.value(), 0);
        }
    }
}

TEST(SweepTest, EmptyDimensionThrows)
{
    SweepSpec no_workloads = smallSpec();
    no_workloads.workloads.clear();
    EXPECT_THROW(runSweep(no_workloads, {}), std::invalid_argument);
    SweepSpec no_fractions = smallSpec();
    no_fractions.fractions.clear();
    EXPECT_THROW(runSweep(no_fractions, {}), std::invalid_argument);
    SweepSpec no_scenarios = smallSpec();
    no_scenarios.scenarios.clear();
    EXPECT_THROW(runSweep(no_scenarios, {}), std::invalid_argument);
    SweepSpec bad_fraction = smallSpec();
    bad_fraction.fractions = {1.5};
    EXPECT_THROW(runSweep(bad_fraction, {}), std::invalid_argument);
}

TEST(SweepTest, SharedBudgetsMatchPerRowDerivation)
{
    SweepSpec spec = smallSpec();
    SweepResult result = runSweep(spec, {});
    for (const SweepRow &row : result.rows) {
        // Recompute the budget independently; the shared table must
        // agree exactly for every cell.
        const core::Scenario &scenario =
            core::scenarioByName(row.scenario);
        const wl::Workload &w =
            row.workload == spec.workloads[0].name() ? spec.workloads[0]
                                                     : spec.workloads[1];
        for (const SweepCell &cell : row.cells) {
            core::Budget expected =
                core::makeBudget(cell.node, w, scenario, spec.calib);
            EXPECT_DOUBLE_EQ(cell.budget.area, expected.area);
            EXPECT_DOUBLE_EQ(cell.budget.power, expected.power);
            EXPECT_DOUBLE_EQ(cell.budget.bandwidth, expected.bandwidth);
        }
    }
}

} // namespace
} // namespace sweep
} // namespace hcm
