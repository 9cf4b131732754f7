/**
 * @file
 * Scalar reference implementations the SoA batch kernel
 * (core::BatchEvaluator) is verified against — one candidate at a time
 * through parallelBound() / evaluateSpeedup() / designEnergy(). They
 * live outside libhcm_core: the tests and the one bench that times
 * them are their only callers. Results must match the batch path
 * bit-for-bit (0-ULP; see DESIGN.md "SoA batch kernel").
 */

#ifndef HCM_TESTS_SUPPORT_SCALAR_ORACLES_HH
#define HCM_TESTS_SUPPORT_SCALAR_ORACLES_HH

#include <vector>

#include "core/optimizer.hh"
#include "core/pareto.hh"

namespace hcm {
namespace core {

/** Best design for @p org at fraction @p f: the scalar r-grid walk
 *  behind optimize(), with the same continuousR refinement. */
DesignPoint optimizeScalar(const Organization &org, double f,
                           const Budget &budget,
                           OptimizerOptions opts = {});

/** Scalar twin of enumerateDesigns(); applies the scenario's segment
 *  reduction itself (effective organization at fScale * f). */
std::vector<ParetoPoint> enumerateDesignsScalar(
    const wl::Workload &w, double f, const itrs::NodeParams &node,
    const Scenario &scenario = baselineScenario(),
    OptimizerOptions opts = {},
    const BceCalibration &calib = BceCalibration::standard());

} // namespace core
} // namespace hcm

#endif // HCM_TESTS_SUPPORT_SCALAR_ORACLES_HH
