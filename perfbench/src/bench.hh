/**
 * @file
 * Shared plumbing of the end-to-end benchmark: run options, a seeded
 * random source, sample statistics, the correctness-gate helper and
 * the report every workload fills. Each workload lives in its own
 * file and exposes one run function (declared at the bottom).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "svc/engine.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
secondsSince(Clock::time_point from)
{
    return secondsBetween(from, Clock::now());
}

/**
 * Call @p rep until @p seconds are spent, but never start a repetition
 * the previous one says would overrun; always at least once.
 */
template <typename F>
void
repeatFor(double seconds, F rep)
{
    Clock::time_point start = Clock::now();
    double last = 0;
    do {
        Clock::time_point t0 = Clock::now();
        rep();
        last = secondsSince(t0);
    } while (secondsSince(start) + last <= seconds);
}

/**
 * Set-up repetitions per run; setup_s is the median of their process
 * CPU time. CPU time, not wall time: set-up starts threads, and on a
 * shared virtual machine the wait for them to be scheduled moved the
 * wall time 2x between runs while the work stayed the same.
 */
constexpr int kSetupReps = 15;

/** One run's settings, from the command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the measured phase, set-up and gates excluded. */
    double seconds = 10.0;
    /** Traced pass (per-layer metrics) instead of the untraced one. */
    bool trace = false;
    /** Test-sized inputs: every path runs, in well under a second. */
    bool tiny = false;
    /** Name of a gate whose expected output is corrupted (tests). */
    std::string corrupt;
    /** Directory for the files the workloads write. */
    std::string outDir = ".";
    /** Worker count of the parallel configurations: min(4, nproc). */
    std::size_t workers = 1;
};

/**
 * Seeded random source. The engine's output sequence is fixed by the
 * standard; the range mappings below are our own, so a seed gives the
 * same inputs with every standard library.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : _gen(seed) {}
    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(_gen() >> 11) * 0x1.0p-53; }
    /** Uniform in [0, n). */
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(_gen() % n); }

  private:
    std::mt19937_64 _gen;
};

/** Time or count samples with order statistics. */
class Samples
{
  public:
    void add(double v) { _values.push_back(v); _sorted = false; }
    std::size_t count() const { return _values.size(); }
    double sum() const;
    double mean() const;
    /** Nearest-rank quantile, q in [0, 1]; 0 when empty. */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }

  private:
    mutable std::vector<double> _values;
    mutable bool _sorted = false;
};

/**
 * What one run measured. Metrics carry the sample count they were
 * taken over and, for the end-to-end ones, the name the workload
 * knows them by (sweep_csv_s, serve_p99_us, ...). Properties describe
 * the generated inputs; gates record every correctness check.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit, std::size_t samples,
                const std::string &as = "");
    void property(const std::string &name, double value);
    /** Record gate @p name over @p checked items; @p detail on failure. */
    void gate(const std::string &name, bool ok, std::size_t checked,
              const std::string &detail = "");
    void attempt(std::size_t attempted, std::size_t failed);

    bool correct() const;

    /** The whole report as one JSON line. */
    void write(std::ostream &out) const;

  private:
    struct Metric
    {
        double value;
        std::string unit;
        std::size_t samples;
        std::string as;
    };
    struct Gate
    {
        std::string name;
        bool ok;
        std::size_t checked;
        std::string detail;
    };
    std::map<std::string, Metric> _metrics;
    std::map<std::string, double> _properties;
    std::vector<Gate> _gates;
    std::size_t _attempted = 0;
    std::size_t _failed = 0;
};

/**
 * Restart the kernel's peak-RSS mark (VmHWM) at the current resident
 * set, so that the next peakRssMb() covers only what ran since. False
 * where the kernel refuses; the mark then covers the whole process.
 */
bool resetPeakRss();

/** Peak resident set since the last resetPeakRss(), in MB. */
double peakRssMb();

/**
 * Peak RSS of each repetition of a workload; peak_rss_mb is their
 * median. A single process-lifetime peak was a maximum over the whole
 * run, so one transient spike in one repetition moved it by 30%.
 */
class RssWindows
{
  public:
    void begin() { _reset = resetPeakRss() && _reset; }
    void end() { _peaks.add(peakRssMb()); }
    /** Report peak_rss_mb, and whether every window was reset. */
    void report(Report &report) const;

  private:
    Samples _peaks;
    bool _reset = true;
};

/** CPU time of this process so far, all threads, in seconds. */
double processCpuSeconds();

/**
 * A fresh QueryEngine with @p workers workers and otherwise default
 * options, as `hcm batch` and `hcm serve` build it; adds the process
 * CPU time its construction took to @p setup.
 */
std::unique_ptr<hcm::svc::QueryEngine> makeEngine(std::size_t workers,
                                                  Samples &setup);

/**
 * @p expected, with one byte flipped when the run was asked to corrupt
 * gate @p gate. The gate tests use this to prove each check can fail.
 */
std::string expectedFor(const Options &opts, const std::string &gate,
                        std::string expected);

/** Index of the first differing byte, or npos when equal. */
std::size_t firstDifference(const std::string &a, const std::string &b);

void writeFile(const std::string &path, const std::string &data);
std::string readFile(const std::string &path);

void runSweepDense(const Options &opts, Report &report);
void runBatchUnique(const Options &opts, Report &report);
void runServeClosed(const Options &opts, Report &report);
void runFleetOpen(const Options &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
