/** @file Google-benchmark microbenchmarks of the parallel sweep
 *  engine: a full figure-style sweep (all three paper workloads, a
 *  dense f-grid, every Section 6.2 scenario) versus worker-thread
 *  count. The acceptance ratio for the subsystem is the 8-thread
 *  sweep against the single-thread sweep on the same spec. */

#include <benchmark/benchmark.h>

#include "sweep/sweep.hh"

namespace {

using namespace hcm;

/**
 * A Figure 5-9-sized spec, dense enough that per-unit work dominates
 * scheduling overhead: 3 workloads x 10 fractions x 7 scenarios x
 * the paper organizations, ~1470 units.
 */
sweep::SweepSpec
denseSpec()
{
    sweep::SweepSpec spec;
    spec.workloads = {wl::Workload::mmm(), wl::Workload::blackScholes(),
                      wl::Workload::fft(1024)};
    spec.fractions = {0.5,  0.75, 0.9,   0.95,  0.975,
                      0.99, 0.995, 0.999, 0.9995, 0.9999};
    spec.scenarios.push_back(core::baselineScenario());
    for (const core::Scenario &s : core::alternativeScenarios())
        spec.scenarios.push_back(s);
    return spec;
}

void
BM_FullSweep(benchmark::State &state)
{
    sweep::SweepSpec spec = denseSpec();
    sweep::SweepOptions opts;
    opts.jobs = static_cast<std::size_t>(state.range(0));
    std::size_t rows = 0;
    for (auto _ : state) {
        sweep::SweepResult result = sweep::runSweep(spec, opts);
        rows = result.rows.size();
        benchmark::DoNotOptimize(result);
    }
    state.counters["units"] = static_cast<double>(rows);
    state.counters["units_per_s"] = benchmark::Counter(
        static_cast<double>(rows * state.iterations()),
        benchmark::Counter::kIsRate);
}

BENCHMARK(BM_FullSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** The serial reference slice, for comparing engine overhead against
 *  the plain projectAll() path it must reproduce. */
void
BM_ProjectionReferenceSlice(benchmark::State &state)
{
    core::Scenario scenario = core::baselineScenario();
    for (auto _ : state) {
        sweep::SweepResult result = sweep::projectionReference(
            wl::Workload::fft(1024), 0.99, scenario);
        benchmark::DoNotOptimize(result);
    }
}

BENCHMARK(BM_ProjectionReferenceSlice)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
