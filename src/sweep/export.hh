/**
 * @file
 * Sweep result serialization: a flat CSV (one line per row x node,
 * full double precision — the CI smoke step diffs these byte-for-byte
 * across thread counts and against the serial `hcm project --csv`
 * reference) and a structured JSON document for notebooks.
 *
 * Both drivers append records into one reused buffer that goes to the
 * stream in 64 KiB chunks, with every number printed by appendDouble()
 * (util/format.hh). Each call is one obs span, "sweep.export", with
 * format and bytes args.
 */

#ifndef HCM_SWEEP_EXPORT_HH
#define HCM_SWEEP_EXPORT_HH

#include <ostream>

#include "sweep/sweep.hh"

namespace hcm {
namespace sweep {

/**
 * CSV columns, one line per (row, node):
 * workload,f,scenario,organization,paperIndex,node,year,feasible,
 * r,n,speedup,limiter,energyNormalized,budgetArea,budgetPower,
 * budgetBandwidth — numeric cells carry 17 significant digits so equal
 * doubles always print equal bytes; infeasible designs leave the
 * design columns empty.
 */
void writeSweepCsv(std::ostream &out, const SweepResult &result);

/**
 * {"rows": [{"workload", "f", "scenario", "organization",
 * "paperIndex", "points": [{"node", "year", "feasible", "r", "n",
 * "speedup", "limiter", "energyNormalized", "budget": {...}}, ...]},
 * ...], "units": N, "jobs": N}
 */
void writeSweepJson(std::ostream &out, const SweepResult &result);

} // namespace sweep
} // namespace hcm

#endif // HCM_SWEEP_EXPORT_HH
