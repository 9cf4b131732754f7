#include "self_roofline.hh"

#include <chrono>
#include <functional>

#include "core/budget.hh"
#include "core/optimizer.hh"
#include "core/organization.hh"
#include "core/projection.hh"
#include "itrs/scaling.hh"
#include "util/format.hh"
#include "util/json.hh"
#include "util/table.hh"

namespace hcm {
namespace hwc {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Run @p body repeatedly for at least @p min_seconds, so
 * per-iteration noise averages out over one wall-clock window.
 */
RooflinePoint
measureLoop(const std::string &name, double min_seconds,
            const std::function<void()> &body)
{
    RooflinePoint point;
    point.name = name;
    Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    do {
        body();
        ++point.iterations;
        elapsed = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);
    point.seconds = elapsed;
    return point;
}

} // namespace

SelfRooflineReport
measureSelfRoofline(const SelfRooflineOptions &opts)
{
    SelfRooflineReport report;
    report.machine = measureMachineCeilings(opts.probe);

    // Hot loop 1: the optimizer's r-grid sweep — every organization the
    // paper plots, optimized at the 40nm budgets. This is the inner
    // loop of every projection and sweep verb; it now exercises the SoA
    // batch kernel (core::BatchEvaluator) that optimize() routes
    // through, so its time reflects the shipped path, not the scalar
    // oracle.
    const wl::Workload w = wl::Workload::mmm();
    const auto orgs = core::paperOrganizations(w);
    const core::Budget budget =
        core::makeBudget(itrs::nodeTable().front(), w);
    report.points.push_back(measureLoop(
        "optimize-r-grid", opts.loopMinSeconds, [&] {
            for (const core::Organization &org : orgs)
                core::optimize(org, 0.99, budget);
        }));

    // Hot loop 2: a dense projection slice — all organizations across
    // all Table 6 nodes, the serial reference the sweep engine fans
    // out in parallel.
    report.points.push_back(measureLoop(
        "sweep-slice", opts.loopMinSeconds,
        [&] { core::projectAll(w, 0.999); }));
    return report;
}

void
writeSelfRooflineJson(const SelfRooflineReport &report,
                      std::ostream &out)
{
    JsonWriter json(out);
    json.beginObject();
    json.kv("schema", "hcm-self-roofline/v2");

    json.key("machine").beginObject();
    json.kv("stream_bytes_per_sec", report.machine.streamBytesPerSec);
    json.kv("peak_flops_per_sec", report.machine.peakOpsPerSec);
    json.kv("stream_bytes",
            static_cast<long long>(report.machine.streamBytes));
    json.kv("stream_seconds", report.machine.streamSeconds);
    json.kv("peak_ops",
            static_cast<long long>(report.machine.peakOps));
    json.kv("peak_seconds", report.machine.peakSeconds);
    json.endObject();

    json.key("points").beginArray();
    for (const RooflinePoint &p : report.points) {
        json.beginObject();
        json.kv("name", p.name);
        json.kv("iterations", static_cast<long long>(p.iterations));
        json.kv("seconds", p.seconds);
        json.kv("ns_per_iter", p.nsPerIter());
        json.endObject();
    }
    json.endArray();
    json.endObject();
    out << "\n";
}

std::string
renderSelfRoofline(const SelfRooflineReport &report)
{
    const MachineCeilings &m = report.machine;
    std::string out;
    out += "Measured self-roofline (host ceilings from calibrated "
           "microkernels)\n\n";
    out += "  stream bandwidth : " + fmtSig(m.streamBytesPerSec / 1e9, 3) +
           " GB/s (triad, " +
           fmtSig(static_cast<double>(m.streamBytes) / (1u << 20), 3) +
           " MiB moved)\n";
    out += "  peak compute     : " + fmtSig(m.peakOpsPerSec / 1e9, 3) +
           " Gflops/s (multiply-add chains)\n\n";

    TextTable table("Hot loops");
    table.setHeaders({"loop", "iters", "seconds", "ns/iter"});
    for (const RooflinePoint &p : report.points)
        table.addRow({p.name, std::to_string(p.iterations),
                      fmtSig(p.seconds, 3), fmtSig(p.nsPerIter(), 3)});
    out += table.render();
    return out;
}

} // namespace hwc
} // namespace hcm
