/**
 * @file
 * sweep-dense: the architect's path. runSweep over the five DB
 * workloads x a 101-point f-grid x every scenario at jobs = min(4,
 * nproc), written to a CSV file and, separately, to a JSON file, the
 * way `hcm sweep --output` does it: spec parse -> run -> export ->
 * file closed.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "sweep/export.hh"
#include "sweep/spec.hh"
#include "sweep/sweep.hh"

namespace perfbench {
namespace {

using namespace hcm;

enum class Format { Csv, Json };

/** The seeded sweep input: workload order varies, the grid does not. */
sweep::SpecStrings
makeSpec(const Options &opts)
{
    std::vector<std::string> workloads = {"mmm", "bs", "fft:64", "fft:1024",
                                          "fft:16384"};
    Rng rng(opts.seed);
    for (std::size_t i = workloads.size() - 1; i > 0; --i)
        std::swap(workloads[i], workloads[rng.below(i + 1)]);
    if (opts.tiny)
        workloads.resize(2);

    sweep::SpecStrings spec;
    spec.workloads.clear();
    for (const std::string &w : workloads)
        spec.workloads += (spec.workloads.empty() ? "" : ",") + w;
    int points = opts.tiny ? 3 : 101;
    spec.fractions.clear();
    for (int i = 0; i < points; ++i) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "%.2f",
                      static_cast<double>(i) / (points - 1));
        spec.fractions += (i ? "," : "") + std::string(buf);
    }
    spec.scenarios = "all";
    return spec;
}

sweep::SweepSpec
parseSpec(const sweep::SpecStrings &strings)
{
    std::string error;
    auto spec = sweep::parseSweepSpec(strings, &error);
    if (!spec)
        throw std::runtime_error("sweep spec: " + error);
    return *spec;
}

void
writeResult(std::ostream &out, Format format,
            const sweep::SweepResult &result)
{
    if (format == Format::Json)
        sweep::writeSweepJson(out, result);
    else
        sweep::writeSweepCsv(out, result);
}

std::string
render(Format format, const sweep::SweepResult &result)
{
    std::ostringstream out;
    writeResult(out, format, result);
    return out.str();
}

/** Layer spans of one traced sweep, in seconds. */
struct TracedSweep
{
    double wall = 0, spec = 0, run = 0, exportS = 0, write = 0;
    std::size_t units = 0, bytes = 0;
};

class SweepDense
{
  public:
    SweepDense(const Options &opts, Report &report)
        : _opts(opts), _report(report), _strings(makeSpec(opts)),
          _csvPath(opts.outDir + "/sweep.csv"),
          _jsonPath(opts.outDir + "/sweep.json")
    {
    }

    void
    run()
    {
        measureSetup();
        if (_opts.trace) {
            repeatFor(_opts.seconds, [this] {
                untracedRep();
                tracedPair();
            });
            reportLayers();
        } else {
            repeatFor(_opts.seconds, [this] { untracedRep(); });
            _rss.report(_report);
            _report.metric("primary_ms", _csv.median() * 1e3, "ms",
                           _csv.count(), "sweep_csv_s");
            _report.metric("secondary_ms", _json.median() * 1e3, "ms",
                           _json.count(), "sweep_json_s");
        }
        _report.attempt(_csv.count() + _json.count(), 0);
        checkGates();
    }

  private:
    /**
     * What `hcm sweep` does before its run: parse the spec and size the
     * grid. Repeated, so the median is robust.
     */
    void
    measureSetup()
    {
        Samples setup;
        for (int i = 0; i < kSetupReps; ++i) {
            double cpu0 = processCpuSeconds();
            sweep::SweepSpec spec = parseSpec(_strings);
            _units = sweep::countUnits(spec);
            setup.add(processCpuSeconds() - cpu0);
        }
        if (!_opts.trace)
            _report.metric("setup_s", setup.median(), "s", setup.count());
        _report.property("sweep.units", static_cast<double>(_units));
    }

    /** One sweep to a file, untraced: spec parse to file closed. */
    double
    sweepToFile(Format format)
    {
        Clock::time_point t0 = Clock::now();
        sweep::SweepSpec spec = parseSpec(_strings);
        sweep::SweepOptions sopts;
        sopts.jobs = _opts.workers;
        sweep::SweepResult result = sweep::runSweep(spec, sopts);
        {
            std::ofstream file(format == Format::Csv ? _csvPath : _jsonPath);
            writeResult(file, format, result);
            file.close();
            if (!file)
                throw std::runtime_error("sweep: cannot write output");
        }
        double wall = secondsSince(t0);
        _jobs = result.jobs;
        return wall;
    }

    /**
     * One CSV sweep and two JSON sweeps: a JSON sweep takes about half
     * as long, so each format gets about the same measured seconds.
     */
    void
    untracedRep()
    {
        _rss.begin();
        _csv.add(sweepToFile(Format::Csv));
        _json.add(sweepToFile(Format::Json));
        _json.add(sweepToFile(Format::Json));
        _rss.end();
    }

    /** The same sweep with a span around each layer call. */
    TracedSweep
    tracedSweep(Format format)
    {
        TracedSweep t;
        Clock::time_point t0 = Clock::now();
        sweep::SweepSpec spec = parseSpec(_strings);
        Clock::time_point t1 = Clock::now();
        sweep::SweepOptions sopts;
        sopts.jobs = _opts.workers;
        sweep::SweepResult result = sweep::runSweep(spec, sopts);
        Clock::time_point t2 = Clock::now();
        std::string bytes = render(format, result);
        Clock::time_point t3 = Clock::now();
        writeFile(format == Format::Csv ? _csvPath : _jsonPath, bytes);
        Clock::time_point t4 = Clock::now();
        t.wall = secondsBetween(t0, t4);
        t.spec = secondsBetween(t0, t1);
        t.run = secondsBetween(t1, t2);
        t.exportS = secondsBetween(t2, t3);
        t.write = secondsBetween(t3, t4);
        t.units = result.units;
        t.bytes = bytes.size();
        return t;
    }

    void
    tracedPair()
    {
        for (Format format : {Format::Csv, Format::Json}) {
            TracedSweep t = tracedSweep(format);
            (format == Format::Csv ? _tracedCsv : _tracedJson).add(t.wall);
            _spec.add(t.spec);
            _run.add(t.run);
            (format == Format::Csv ? _exportCsv : _exportJson).add(t.exportS);
            _write.add(t.write);
            _untraced.add((t.wall - t.spec - t.run - t.exportS - t.write) /
                          t.wall);
            _tracedUnits = t.units;
            (format == Format::Csv ? _bytesCsv : _bytesJson) = t.bytes;
        }
    }

    /** The serial run, timed unit by unit through the progress hook. */
    void
    serialProbe()
    {
        sweep::SweepSpec spec = parseSpec(_strings);
        std::vector<Clock::time_point> marks;
        marks.reserve(_units + 1);
        sweep::SweepOptions sopts;
        sopts.jobs = 1;
        sopts.progress = [&marks](std::size_t, std::size_t) {
            marks.push_back(Clock::now());
        };
        Clock::time_point t0 = Clock::now();
        sweep::runSweep(spec, sopts);
        _run1j = secondsSince(t0);
        for (std::size_t i = 1; i < marks.size(); ++i)
            _unitGaps.add(secondsBetween(marks[i - 1], marks[i]) * 1e6);
    }

    void
    reportLayers()
    {
        serialProbe();
        _report.metric("sweep.spec_us", _spec.mean() * 1e6, "us",
                       _spec.count());
        _report.metric("sweep.run_s", _run.mean(), "s", _run.count());
        _report.metric("sweep.run_1j_s", _run1j, "s", 1);
        _report.metric("sweep.unit_gap_us", _unitGaps.median(), "us",
                       _unitGaps.count());
        _report.metric("sweep.export_csv_s", _exportCsv.mean(), "s",
                       _exportCsv.count());
        _report.metric("sweep.export_json_s", _exportJson.mean(), "s",
                       _exportJson.count());
        _report.metric("sweep.write_s", _write.mean(), "s", _write.count());
        _report.metric("sweep.units", static_cast<double>(_tracedUnits),
                       "count", 1);
        _report.metric("sweep.bytes_csv", static_cast<double>(_bytesCsv),
                       "bytes", 1);
        _report.metric("sweep.bytes_json", static_cast<double>(_bytesJson),
                       "bytes", 1);
        _report.metric("untraced_share", _untraced.mean(), "ratio",
                       _untraced.count());
        double traced = _tracedCsv.median() + _tracedJson.median();
        double untraced = _csv.median() + _json.median();
        _report.metric("trace_overhead_share", traced / untraced - 1.0,
                       "ratio", _tracedCsv.count() + _csv.count());
        _report.metric("failed_ratio", 0.0, "ratio",
                       _csv.count() + _json.count());
    }

    /**
     * The last files written must equal the serial (jobs = 1) result
     * byte for byte, and sampled (workload, f, scenario) slices of that
     * result must equal sweep::projectionReference, the serial oracle
     * `hcm project --csv` prints.
     */
    void
    checkGates()
    {
        sweep::SweepSpec spec = parseSpec(_strings);
        sweep::SweepOptions sopts;
        sopts.jobs = 1;
        sweep::SweepResult serial = sweep::runSweep(spec, sopts);

        std::string csvWant =
            expectedFor(_opts, "sweep.jobs1", render(Format::Csv, serial));
        serial.jobs = _jobs; // the JSON document names its job count
        std::string jsonWant =
            expectedFor(_opts, "sweep.jobs1", render(Format::Json, serial));
        std::string csvGot = readFile(_csvPath);
        std::string jsonGot = readFile(_jsonPath);
        std::size_t csvDiff = firstDifference(csvGot, csvWant);
        std::size_t jsonDiff = firstDifference(jsonGot, jsonWant);
        _report.gate("sweep.jobs1",
                     csvDiff == std::string::npos &&
                         jsonDiff == std::string::npos,
                     serial.rows.size(),
                     "jobs=" + std::to_string(_opts.workers) +
                         " output differs from jobs=1 at csv byte " +
                         std::to_string(csvDiff) + ", json byte " +
                         std::to_string(jsonDiff));
        _report.property("sweep.rows", static_cast<double>(serial.rows.size()));

        Rng rng(_opts.seed ^ 0x5eedull);
        std::size_t slices = _opts.tiny ? 2 : 8;
        std::size_t mismatched = 0;
        std::string first;
        for (std::size_t i = 0; i < slices; ++i) {
            const wl::Workload &w =
                spec.workloads[rng.below(spec.workloads.size())];
            double f = spec.fractions[rng.below(spec.fractions.size())];
            const core::Scenario &s =
                spec.scenarios[rng.below(spec.scenarios.size())];
            sweep::SweepResult slice;
            for (const sweep::SweepRow &row : serial.rows)
                if (row.workload == w.name() && row.f == f &&
                    row.scenario == s.name)
                    slice.rows.push_back(row);
            std::string want = expectedFor(
                _opts, "sweep.slices",
                render(Format::Csv, sweep::projectionReference(
                                        w, f, s, spec.opts, spec.calib)));
            if (slice.rows.empty() || render(Format::Csv, slice) != want) {
                ++mismatched;
                if (first.empty())
                    first = w.name() + " f=" + std::to_string(f) + " " + s.name;
            }
        }
        _report.gate("sweep.slices", mismatched == 0, slices,
                     std::to_string(mismatched) +
                         " slices differ from projectionReference, first " +
                         first);
    }

    const Options &_opts;
    Report &_report;
    sweep::SpecStrings _strings;
    std::string _csvPath, _jsonPath;
    std::size_t _units = 0, _jobs = 1;
    Samples _csv, _json, _tracedCsv, _tracedJson;
    Samples _spec, _run, _exportCsv, _exportJson, _write, _untraced;
    Samples _unitGaps;
    RssWindows _rss;
    double _run1j = 0;
    std::size_t _tracedUnits = 0, _bytesCsv = 0, _bytesJson = 0;
};

} // namespace

void
runSweepDense(const Options &opts, Report &report)
{
    SweepDense(opts, report).run();
}

} // namespace perfbench
