#include "projection.hh"

#include "core/optimizer_batch.hh"

namespace hcm {
namespace core {

ProjectionSeries
projectOrganization(const Organization &org, const wl::Workload &w,
                    double f, const Scenario &scenario,
                    OptimizerOptions opts, const BceCalibration &calib)
{
    // One scratch evaluator per thread, reassigned per node: steady
    // state never allocates, exactly like optimize().
    thread_local BatchEvaluator evaluator;
    ProjectionSeries series;
    series.org = org;
    for (const itrs::NodeParams &node : itrs::nodeTable()) {
        NodePoint pt;
        pt.node = node;
        pt.budget = makeBudget(node, w, scenario, calib);
        evaluator.assign(org, pt.budget, scenario, opts);
        pt.design = evaluator.best(f);
        series.points.push_back(pt);
    }
    return series;
}

std::vector<ProjectionSeries>
projectAll(const wl::Workload &w, double f, const Scenario &scenario,
           OptimizerOptions opts, const BceCalibration &calib)
{
    std::vector<ProjectionSeries> out;
    for (const Organization &org : paperOrganizations(w, calib))
        out.push_back(
            projectOrganization(org, w, f, scenario, opts, calib));
    return out;
}

} // namespace core
} // namespace hcm
