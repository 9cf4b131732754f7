/**
 * @file
 * Sweep result serialization: a flat CSV (one line per row x node,
 * full double precision — the CI smoke step diffs these byte-for-byte
 * across thread counts and against the serial `hcm project --csv`
 * reference) and a structured JSON document for notebooks.
 *
 * Both drivers print the rows in blocks of 64 through one block
 * formatter per format, with every number printed by appendDouble()
 * (util/format.hh) and each distinct budget formatted once per
 * formatting thread. The calling thread writes the blocks in row
 * order and formats whichever block comes next when the one to write
 * is not ready; when result.jobs > 1 and there is more than one block,
 * up to result.jobs - 1 more threads format blocks alongside it. At
 * most 2 * jobs blocks are buffered, so memory does not grow with the
 * row count, and the bytes do not depend on the thread count. Each
 * buffer slot takes a cache line or more: formatting threads append to
 * their slots without the lock, and packed slot headers shared lines
 * that every append invalidated. A formatting thread's exception is
 * rethrown on the calling thread after every thread is joined. Each
 * call is one obs span on the calling thread, "sweep.export", with
 * format, jobs (formatting threads, the caller included), blocks and
 * bytes args.
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
