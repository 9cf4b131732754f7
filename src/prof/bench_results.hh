/**
 * @file
 * Bench telemetry: turn the repo's google-benchmark binaries into a
 * machine-readable performance history and a regression gate.
 *
 * `hcm bench` runs every binary named in the build tree's
 * `gbench_manifest.txt` (written by bench/CMakeLists.txt, so the list
 * can never drift from what was built) with `--benchmark_format=json`,
 * normalizes every measurement to nanoseconds, and merges the
 * per-binary documents with the build identity into one
 * BENCH_RESULTS.json:
 *
 *   {"schema": "hcm-bench-results/v2",
 *    "smoke": false,
 *    "build": {"version", "compiler", "buildType"},
 *    "host": {"hostName", "numCpus", "mhzPerCpu"},
 *    "suites": [{"binary": "bench_kernels",
 *                "benchmarks": [{"name", "realTimeNs", "cpuTimeNs",
 *                                "iterations", "repetition"},
 *                               ...]}]}
 *
 * Files tagged v1 have the same rows. Older v2 files may also carry a
 * "counters" stanza and per-row instructions/cycles/ipc/llcMissRate
 * columns; the reader ignores both, so those baselines still diff on
 * wall time.
 *
 * `hcm bench-diff old new` compares two such files (either schema
 * version) noise-aware: each benchmark's score is the *median* across
 * its repetitions, and only a median slowdown beyond a configurable
 * percentage tolerance (and above an optional absolute-time floor, so
 * sub-microsecond jitter can't gate a build) counts as a regression.
 */

#ifndef HCM_PROF_BENCH_RESULTS_HH
#define HCM_PROF_BENCH_RESULTS_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/json_parse.hh"

namespace hcm {
namespace prof {

/** Schema tag stamped into every results file this build writes. */
inline constexpr const char *kBenchSchema = "hcm-bench-results/v2";

/** Prior schema, still accepted by bench-diff. */
inline constexpr const char *kBenchSchemaV1 = "hcm-bench-results/v1";

/** Manifest file the bench build writes next to its binaries. */
inline constexpr const char *kBenchManifest = "gbench_manifest.txt";

/** Knobs for one `hcm bench` run. */
struct BenchRunOptions
{
    /** Directory holding the bench binaries + manifest. */
    std::string benchDir = "bench";
    /** Substring filter on binary names ("" runs everything). */
    std::string only;
    /** Smoke mode: cap measurement time, single repetition. */
    bool smoke = false;
    /** Repetitions per benchmark; 0 picks smoke ? 1 : 3. */
    int repetitions = 0;
};

/** Knobs for one `hcm bench-diff` comparison. */
struct BenchDiffOptions
{
    /** Median slowdown beyond this percentage is a regression. */
    double tolerancePct = 10.0;
    /** Ignore benchmarks whose medians are both below this (ns). */
    double minTimeNs = 0.0;
};

/** One benchmark's before/after medians. */
struct BenchDelta
{
    std::string name; ///< "binary:benchmark/args"
    double oldNs = 0.0;
    double newNs = 0.0;

    /** new/old (0 when old is 0). */
    double
    ratio() const
    {
        return oldNs > 0.0 ? newNs / oldNs : 0.0;
    }
};

/** Outcome of comparing two results files. */
struct BenchDiffReport
{
    std::vector<BenchDelta> regressions;  ///< slower beyond tolerance
    std::vector<BenchDelta> improvements; ///< faster beyond tolerance
    std::vector<BenchDelta> unchanged;    ///< within tolerance
    std::vector<std::string> onlyOld;     ///< dropped benchmarks
    std::vector<std::string> onlyNew;     ///< added benchmarks
    std::size_t skipped = 0;              ///< below the time floor

    bool
    hasRegressions() const
    {
        return !regressions.empty();
    }
};

/**
 * Read the gbench manifest from @p dir: one binary name per line,
 * '#' comments and blank lines ignored. nullopt (with @p error) when
 * the file is missing or empty.
 */
std::optional<std::vector<std::string>> readBenchManifest(
    const std::string &dir, std::string *error);

/**
 * Merge already-parsed google-benchmark JSON documents — one
 * (binary name, document) pair per suite — into one results document
 * on @p out. Aggregate rows (mean/median/stddev) and errored
 * benchmarks are skipped; times are normalized to nanoseconds via
 * each entry's time_unit. Pure function of its inputs (tests feed it
 * synthetic documents). @p failures names binaries that could not be
 * run, recorded in the document so a partial sweep is visible.
 */
void writeBenchResults(
    std::ostream &out,
    const std::vector<std::pair<std::string, JsonValue>> &suites,
    bool smoke, const std::vector<std::string> &failures = {});

/**
 * Run the manifest's binaries per @p opts and write the merged
 * results document to @p out. False (with @p error) when the
 * manifest is unreadable, no binary matches the filter, or every
 * binary fails; individual failures are warned and skipped.
 */
bool runBenchPipeline(const BenchRunOptions &opts, std::ostream &out,
                      std::string *error);

/**
 * Compare two parsed results documents. nullopt (with @p error) when
 * either document does not carry the expected schema.
 */
std::optional<BenchDiffReport> diffBenchResults(
    const JsonValue &old_doc, const JsonValue &new_doc,
    const BenchDiffOptions &opts, std::string *error);

/** Human-readable report (one line per changed benchmark + summary). */
void writeDiffReport(std::ostream &out, const BenchDiffReport &report,
                     const BenchDiffOptions &opts);

} // namespace prof
} // namespace hcm

#endif // HCM_PROF_BENCH_RESULTS_HH
