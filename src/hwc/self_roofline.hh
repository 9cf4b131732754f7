/**
 * @file
 * The measured self-roofline: the paper's Section 5 methodology turned
 * on the reproduction itself. measureSelfRoofline() calibrates the
 * host's two ceilings with the machine-probe microkernels (stream
 * bandwidth and multiply-add peak, the two numbers Table 2 publishes
 * per device) and times the model's hot loops — the optimizer's r-grid
 * sweep and a dense projection slice — by wall clock. Everything comes
 * from the steady clock, so the report is the same shape on every
 * host: the two ceilings and ns per hot-loop iteration.
 */

#ifndef HCM_HWC_SELF_ROOFLINE_HH
#define HCM_HWC_SELF_ROOFLINE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "hwc/machine_probe.hh"

namespace hcm {
namespace hwc {

/** Knobs (tests shrink everything; defaults suit CI). */
struct SelfRooflineOptions
{
    /** Machine-ceiling probe configuration. */
    ProbeOptions probe;
    /** Minimum wall time per hot-loop measurement, seconds. */
    double loopMinSeconds = 0.2;
};

/** One hot loop, timed by wall clock. */
struct RooflinePoint
{
    std::string name;
    /** Loop repetitions performed inside the measured window. */
    std::uint64_t iterations = 0;
    double seconds = 0.0;

    /** Wall nanoseconds per repetition (0 when nothing ran). */
    double
    nsPerIter() const
    {
        return iterations > 0
                   ? seconds * 1e9 / static_cast<double>(iterations)
                   : 0.0;
    }
};

/** Everything `hcm roofline --measured` renders and exports. */
struct SelfRooflineReport
{
    MachineCeilings machine;
    std::vector<RooflinePoint> points;
};

/** Calibrate the host ceilings and time the hot loops. */
SelfRooflineReport measureSelfRoofline(
    const SelfRooflineOptions &opts = {});

/** Export @p report as JSON (schema "hcm-self-roofline/v2"). */
void writeSelfRooflineJson(const SelfRooflineReport &report,
                           std::ostream &out);

/**
 * Render the report for a terminal: the two ceilings and a per-loop
 * table of iterations, seconds and ns/iter.
 */
std::string renderSelfRoofline(const SelfRooflineReport &report);

} // namespace hwc
} // namespace hcm

#endif // HCM_HWC_SELF_ROOFLINE_HH
