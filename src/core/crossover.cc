#include "crossover.hh"

#include <algorithm>
#include <limits>

#include "core/optimizer_batch.hh"
#include "util/logging.hh"
#include "util/math.hh"

namespace hcm {
namespace core {

double
speedupRatio(const Organization &challenger, const Organization &incumbent,
             double f, const Budget &budget, OptimizerOptions opts)
{
    DesignPoint c = optimize(challenger, f, budget, opts);
    DesignPoint i = optimize(incumbent, f, budget, opts);
    if (!c.feasible)
        return 0.0;
    if (!i.feasible)
        return std::numeric_limits<double>::infinity();
    return c.speedup / i.speedup;
}

std::optional<double>
crossoverFraction(const Organization &challenger,
                  const Organization &incumbent, double target,
                  const Budget &budget, OptimizerOptions opts, double lo,
                  double hi, double tol)
{
    hcm_assert(target > 0.0, "target ratio must be positive");
    hcm_assert(lo >= 0.0 && hi <= 1.0 && lo < hi, "bad bracket");

    auto gap = [&](double f) {
        return speedupRatio(challenger, incumbent, f, budget, opts) -
               target;
    };
    if (gap(hi) < 0.0)
        return std::nullopt; // never reaches the target
    if (gap(lo) >= 0.0)
        return lo; // already there at the low end
    return bisect(gap, lo, hi, tol);
}

std::optional<double>
requiredParallelism(dev::DeviceId device, const wl::Workload &w,
                    double target, const itrs::NodeParams &node,
                    const Scenario &scenario)
{
    auto het = heterogeneous(device, w);
    if (!het)
        return std::nullopt;
    Budget budget = makeBudget(node, w, scenario);
    // Tables built once and shared by every bisection step; assign()
    // applies the scenario's alpha and segment reduction.
    BatchEvaluator het_eval, cmp_evals[2];
    het_eval.assign(*het, budget, scenario, {});
    cmp_evals[0].assign(symmetricCmp(), budget, scenario, {});
    cmp_evals[1].assign(asymmetricCmp(), budget, scenario, {});

    // "Better of the two CMPs" varies with f; fold it into the gap by
    // bisecting against the pointwise max.
    auto gap = [&](double f) {
        DesignPoint c = het_eval.best(f);
        if (!c.feasible)
            return -target;
        double best_cmp = 0.0;
        for (const BatchEvaluator &cmp : cmp_evals) {
            DesignPoint dp = cmp.best(f);
            if (dp.feasible)
                best_cmp = std::max(best_cmp, dp.speedup);
        }
        if (best_cmp <= 0.0)
            return target; // CMPs infeasible: the HET trivially wins
        return c.speedup / best_cmp - target;
    };
    double lo = 0.0, hi = 0.9999;
    if (gap(hi) < 0.0)
        return std::nullopt;
    if (gap(lo) >= 0.0)
        return lo;
    return bisect(gap, lo, hi, 1e-5);
}

} // namespace core
} // namespace hcm
