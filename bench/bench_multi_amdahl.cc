/** @file Microbenchmarks of the extension model families: the
 *  Multi-Amdahl effective-organization transform (paid once per
 *  scenario-aware BatchEvaluator::assign), the Lagrange share
 *  solver, and the optimizer/batch hot paths under a finite thermal
 *  budget — the fourth bound the kernels now fold into their min. */

#include <vector>

#include <benchmark/benchmark.h>

#include "core/multi_amdahl.hh"
#include "core/optimizer_batch.hh"
#include "core/projection.hh"

namespace {

using namespace hcm;

/** The same ASIC-at-22nm triple the other optimizer benches use, under
 *  the extension scenarios, so ratios line up across suites. */
struct Fixture
{
    wl::Workload w = wl::Workload::fft(1024);
    core::Organization org = *core::heterogeneous(dev::DeviceId::Asic, w);
    core::Scenario multi = core::scenarioByName("multi-amdahl");
    core::Scenario thermal = core::scenarioByName("thermal-85c");
    core::Budget thermalBudget =
        core::makeBudget(itrs::nodeParams(22.0), w, thermal);
    core::OptimizerOptions opts;
};

void
BM_EffectiveOrganization(benchmark::State &state)
{
    Fixture fx;
    for (auto _ : state) {
        core::EffectiveOrg eff =
            core::effectiveOrganization(fx.org, fx.multi.segments);
        benchmark::DoNotOptimize(eff);
    }
}
BENCHMARK(BM_EffectiveOrganization);

void
BM_SegmentShares(benchmark::State &state)
{
    Fixture fx;
    for (auto _ : state) {
        std::vector<double> shares =
            core::segmentShares(fx.multi.segments, fx.org.ucore.mu);
        benchmark::DoNotOptimize(shares.data());
    }
}
BENCHMARK(BM_SegmentShares);

void
BM_OptimizeThermalBounded(benchmark::State &state)
{
    // optimize() with all four bounds live: the thermal budget is
    // finite, so no branch short-circuits the fourth min operand.
    Fixture fx;
    for (auto _ : state) {
        core::DesignPoint dp =
            core::optimize(fx.org, 0.99, fx.thermalBudget, fx.opts);
        benchmark::DoNotOptimize(dp);
    }
}
BENCHMARK(BM_OptimizeThermalBounded);

void
BM_BatchBestThermalBounded(benchmark::State &state)
{
    // Steady-state sweep cost per fraction under a finite thermal
    // budget — the direct peer of bench_optimizer_batch's
    // BM_BatchBestReused three-bound numbers.
    Fixture fx;
    core::BatchEvaluator evaluator(fx.org, fx.thermalBudget, fx.opts);
    const double fractions[] = {0.5,   0.9,   0.95,  0.975, 0.99,
                                0.995, 0.999, 0.75,  0.25,  0.999};
    for (auto _ : state) {
        for (double f : fractions) {
            core::DesignPoint dp = evaluator.best(f);
            benchmark::DoNotOptimize(dp);
        }
    }
    state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_BatchBestThermalBounded);

void
BM_ProjectMultiAmdahl(benchmark::State &state)
{
    // A full projection line under the segment profile: transform +
    // per-node optimize, the path `hcm project --scenario multi-amdahl`
    // and the sweep engine pay per organization.
    Fixture fx;
    for (auto _ : state) {
        core::ProjectionSeries series = core::projectOrganization(
            fx.org, fx.w, 0.99, fx.multi);
        benchmark::DoNotOptimize(series.points.data());
    }
}
BENCHMARK(BM_ProjectMultiAmdahl);

} // namespace

BENCHMARK_MAIN();
