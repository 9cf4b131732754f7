#include "sweep.hh"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/optimizer_batch.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "svc/thread_pool.hh"
#include "util/logging.hh"

namespace hcm {
namespace sweep {

namespace {

/**
 * One schedulable unit; unit i fills row i of the result. Everything
 * it reads outlives the pool.
 */
struct Unit
{
    const wl::Workload *workload = nullptr;
    double f = 0.0;
    const core::Scenario *scenario = nullptr;
    const core::Organization *org = nullptr;
    /** Per-node budgets shared by every unit of (workload, scenario). */
    const std::vector<core::Budget> *budgets = nullptr;
    /**
     * Precomputed SoA tables shared by every unit of (workload,
     * scenario), indexed [org * nodes + node]; best(f) is const, so one
     * table serves the whole f-grid across all worker threads.
     */
    const std::vector<core::BatchEvaluator> *evaluators = nullptr;
    std::size_t orgIndex = 0;
};

/**
 * Completion bookkeeping shared by the workers and the caller; every
 * field is guarded by mu. done counts only when a progress callback
 * is set.
 */
struct Progress
{
    std::mutex mu;
    std::size_t done = 0;
    std::exception_ptr firstError;
};

void
validate(const SweepSpec &spec)
{
    if (spec.workloads.empty())
        throw std::invalid_argument("sweep: workload list is empty");
    if (spec.fractions.empty())
        throw std::invalid_argument("sweep: fraction list is empty");
    if (spec.scenarios.empty())
        throw std::invalid_argument("sweep: scenario list is empty");
    for (double f : spec.fractions)
        if (f < 0.0 || f > 1.0)
            throw std::invalid_argument(
                "sweep: fraction outside [0, 1]");
}

/** Evaluate one unit into @p row (pure: no shared mutable state). */
void
evaluateUnit(const Unit &unit, SweepRow &row)
{
    obs::Span span("sweep.unit", "sweep");
    span.arg("workload", row.workload);
    span.arg("f", row.f);
    span.arg("scenario", row.scenario);
    span.arg("organization", row.organization);

    const std::vector<itrs::NodeParams> &nodes = itrs::nodeTable();
    row.cells.clear(); // capacity was reserved by runSweep
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        SweepCell cell;
        cell.node = nodes[i];
        cell.budget = (*unit.budgets)[i];
        // Shared table lookup: the f-independent work (bounds, limiter
        // classification, pow) was done once in runSweep's evaluator
        // pass and is amortized over the whole fraction grid; the
        // tables carry the scenario's segment reduction, so they take
        // the sweep fraction. Results are bit-identical to the scalar
        // oracle on the effective (org, budget, opts).
        cell.design =
            (*unit.evaluators)[unit.orgIndex * nodes.size() + i]
                .best(unit.f);
        cell.energyNormalized =
            cell.design.feasible
                ? core::normalizedEnergy(
                      cell.design.energy,
                      cell.node.relPowerPerTransistor)
                : 0.0;
        row.cells.push_back(cell);
    }
}

/**
 * Run units [@p begin, @p end) with instrumentation and completion
 * accounting. The metrics move once per block (+n/-n on the gauge, +n
 * on the counter), so the workers share no cache line per unit; the
 * mutex is taken per unit only to serialize the progress callback, or
 * to record a failure.
 */
void
runUnits(const std::vector<Unit> &units, std::vector<SweepRow> &rows,
         std::size_t begin, std::size_t end, Progress &progress,
         const SweepOptions &opts)
{
    static obs::Counter &units_total =
        obs::globalRegistry().counter("hcm_sweep_units_total");
    static obs::Gauge &active =
        obs::globalRegistry().gauge("hcm_sweep_active_units");
    std::int64_t n = static_cast<std::int64_t>(end - begin);
    active.add(n);
    for (std::size_t i = begin; i < end; ++i) {
        try {
            evaluateUnit(units[i], rows[i]);
        } catch (...) {
            std::lock_guard<std::mutex> lock(progress.mu);
            if (!progress.firstError)
                progress.firstError = std::current_exception();
        }
        if (opts.progress) {
            std::lock_guard<std::mutex> lock(progress.mu);
            opts.progress(++progress.done, units.size());
        }
    }
    active.add(-n);
    units_total.add(static_cast<std::uint64_t>(n));
}

} // namespace

std::size_t
countUnits(const SweepSpec &spec)
{
    std::size_t per_workload_combos =
        spec.fractions.size() * spec.scenarios.size();
    std::size_t units = 0;
    for (const wl::Workload &w : spec.workloads)
        units += core::paperOrganizations(w, spec.calib).size() *
                 per_workload_combos;
    return units;
}

SweepResult
runSweep(const SweepSpec &spec, const SweepOptions &opts)
{
    validate(spec);

    // Shared read-only inputs, derived once: the organization list per
    // workload and the budget table per (workload, scenario) — units
    // never re-derive either (the serial path re-made budgets for every
    // organization).
    const std::vector<itrs::NodeParams> &nodes = itrs::nodeTable();
    std::vector<std::vector<core::Organization>> orgs;
    orgs.reserve(spec.workloads.size());
    for (const wl::Workload &w : spec.workloads)
        orgs.push_back(core::paperOrganizations(w, spec.calib));
    std::vector<std::vector<core::Budget>> budgets;
    budgets.reserve(spec.workloads.size() * spec.scenarios.size());
    for (const wl::Workload &w : spec.workloads) {
        for (const core::Scenario &s : spec.scenarios) {
            std::vector<core::Budget> per_node;
            per_node.reserve(nodes.size());
            for (const itrs::NodeParams &node : nodes)
                per_node.push_back(
                    core::makeBudget(node, w, s, spec.calib));
            budgets.push_back(std::move(per_node));
        }
    }
    // Shared BatchEvaluator tables per (workload, scenario), indexed
    // [org * nodes + node]. Everything f-independent — Table 1 bounds,
    // limiter classification, the serial-power pow() table — is computed
    // here ONCE and then read by every fraction of the grid from every
    // worker thread (best() is const and allocation-free).
    std::vector<std::vector<core::BatchEvaluator>> evaluators;
    evaluators.reserve(budgets.size());
    for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
        for (std::size_t si = 0; si < spec.scenarios.size(); ++si) {
            const std::vector<core::Budget> &per_node =
                budgets[wi * spec.scenarios.size() + si];
            std::vector<core::BatchEvaluator> table(orgs[wi].size() *
                                                    nodes.size());
            for (std::size_t oi = 0; oi < orgs[wi].size(); ++oi)
                for (std::size_t ni = 0; ni < nodes.size(); ++ni)
                    table[oi * nodes.size() + ni].assign(
                        orgs[wi][oi], per_node[ni], spec.scenarios[si],
                        spec.opts);
            evaluators.push_back(std::move(table));
        }
    }

    // Canonical decomposition: one unit per (workload, f, scenario,
    // organization), row index == unit index.
    // Both vectors and every row's cells are sized here, on the calling
    // thread: grown by doubling, or allocated on a pool worker (from a
    // per-thread malloc arena), they raised the peak RSS sweep after
    // sweep, and the workers' reservations also slowed the unit phase
    // more than they took off this loop.
    std::size_t total_units = countUnits(spec);
    std::vector<Unit> units;
    units.reserve(total_units);
    SweepResult result;
    result.rows.reserve(total_units);
    for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
        std::string workload_name = spec.workloads[wi].name();
        for (std::size_t fi = 0; fi < spec.fractions.size(); ++fi) {
            for (std::size_t si = 0; si < spec.scenarios.size(); ++si) {
                for (std::size_t oi = 0; oi < orgs[wi].size(); ++oi) {
                    const core::Organization &org = orgs[wi][oi];
                    Unit unit;
                    unit.workload = &spec.workloads[wi];
                    unit.f = spec.fractions[fi];
                    unit.scenario = &spec.scenarios[si];
                    unit.org = &org;
                    unit.budgets =
                        &budgets[wi * spec.scenarios.size() + si];
                    unit.evaluators =
                        &evaluators[wi * spec.scenarios.size() + si];
                    unit.orgIndex = oi;
                    units.push_back(unit);

                    SweepRow row;
                    row.workload = workload_name;
                    row.f = unit.f;
                    row.scenario = unit.scenario->name;
                    row.organization = org.name;
                    row.paperIndex = org.paperIndex;
                    row.cells.reserve(nodes.size());
                    result.rows.push_back(std::move(row));
                }
            }
        }
    }

    std::size_t jobs = opts.jobs > 0
                           ? opts.jobs
                           : std::max(1u,
                                      std::thread::hardware_concurrency());
    obs::Span run_span("sweep.run", "sweep");
    run_span.arg("units", units.size());
    run_span.arg("jobs", jobs);

    Progress progress;
    if (jobs == 1) {
        // Inline serial path: identical code, no pool — `--jobs 1`
        // output is the byte-for-byte reference.
        runUnits(units, result.rows, 0, units.size(), progress, opts);
    } else {
        // Units are a few microseconds each, so submitting them
        // one-per-task would spend comparable time in the pool's queue.
        // Chunk contiguous blocks — enough per worker for load balance,
        // few enough that scheduling cost amortizes away. Determinism
        // is untouched: every unit still writes its preassigned row.
        std::size_t total = units.size();
        std::size_t blocks = std::min(total, jobs * 8);
        std::size_t per_block = (total + blocks - 1) / blocks;
        // The pool destructor drains every queued task before joining,
        // so pool scope exit is the completion barrier; the joins
        // publish each worker's row writes to this thread. `units` and
        // `result` are declared before the pool, so they outlive it.
        svc::ThreadPool pool(jobs);
        for (std::size_t begin = 0; begin < total; begin += per_block) {
            std::size_t end = std::min(begin + per_block, total);
            bool accepted = pool.submit(
                [&units, &result, &progress, &opts, begin, end] {
                    runUnits(units, result.rows, begin, end, progress,
                             opts);
                });
            hcm_assert(accepted, "sweep pool rejected a unit block");
        }
    }

    if (progress.firstError)
        std::rethrow_exception(progress.firstError);
    result.units = units.size();
    result.jobs = jobs;
    return result;
}

SweepResult
projectionReference(const wl::Workload &w, double f,
                    const core::Scenario &scenario,
                    core::OptimizerOptions opts,
                    const core::BceCalibration &calib)
{
    SweepResult result;
    for (const core::ProjectionSeries &series :
         core::projectAll(w, f, scenario, opts, calib)) {
        SweepRow row;
        row.workload = w.name();
        row.f = f;
        row.scenario = scenario.name;
        row.organization = series.org.name;
        row.paperIndex = series.org.paperIndex;
        row.cells.reserve(series.points.size());
        for (const core::NodePoint &pt : series.points) {
            SweepCell cell;
            cell.node = pt.node;
            cell.budget = pt.budget;
            cell.design = pt.design;
            cell.energyNormalized =
                pt.design.feasible ? pt.energyNormalized() : 0.0;
            row.cells.push_back(cell);
        }
        result.rows.push_back(std::move(row));
    }
    result.units = result.rows.size();
    result.jobs = 1;
    return result;
}

} // namespace sweep
} // namespace hcm
