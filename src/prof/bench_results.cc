#include "bench_results.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/build_info.hh"
#include "util/format.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace hcm {
namespace prof {

namespace {

/** Nanoseconds per google-benchmark time_unit. */
double
unitToNs(const std::string &unit)
{
    if (unit == "ns")
        return 1.0;
    if (unit == "us")
        return 1e3;
    if (unit == "ms")
        return 1e6;
    if (unit == "s")
        return 1e9;
    hcm_warn("unknown benchmark time_unit '", unit, "', assuming ns");
    return 1.0;
}

/** A measurement row we keep (aggregates and errors dropped). */
bool
keepBenchmarkEntry(const JsonValue &entry)
{
    if (!entry.isObject())
        return false;
    const JsonValue *run_type = entry.find("run_type");
    if (run_type && run_type->isString() &&
        run_type->asString() == "aggregate")
        return false;
    const JsonValue *errored = entry.find("error_occurred");
    if (errored && errored->isBool() && errored->asBool())
        return false;
    return entry.find("name") && entry.find("real_time");
}

/** Median of @p values (0 when empty); sorts a copy. */
double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return (values[mid - 1] + values[mid]) / 2.0;
}

/** "123ns" / "4.56us" / "7.89ms" / "1.23s" for a report line. */
std::string
fmtNs(double ns)
{
    if (ns < 1e3)
        return fmtSig(ns, 3) + "ns";
    if (ns < 1e6)
        return fmtSig(ns / 1e3, 3) + "us";
    if (ns < 1e9)
        return fmtSig(ns / 1e6, 3) + "ms";
    return fmtSig(ns / 1e9, 3) + "s";
}

/**
 * Collect "binary:benchmark" -> per-repetition realTimeNs samples
 * from one results document. Accepts both the current and the v1
 * schema; any other row columns are ignored. False when the tag
 * matches neither.
 */
bool
collectSamples(const JsonValue &doc,
               std::map<std::string, std::vector<double>> &samples,
               std::string *error)
{
    if (!doc.isObject()) {
        if (error)
            *error = "results root is not an object";
        return false;
    }
    const JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        (schema->asString() != kBenchSchema &&
         schema->asString() != kBenchSchemaV1)) {
        if (error)
            *error = std::string("missing or unexpected \"schema\" "
                                 "(want ") +
                     kBenchSchema + " or " + kBenchSchemaV1 + ")";
        return false;
    }
    const JsonValue *suites = doc.find("suites");
    if (!suites || !suites->isArray()) {
        if (error)
            *error = "missing \"suites\" array";
        return false;
    }
    for (const JsonValue &suite : suites->items()) {
        if (!suite.isObject())
            continue;
        const JsonValue *binary = suite.find("binary");
        const JsonValue *benchmarks = suite.find("benchmarks");
        if (!binary || !binary->isString() || !benchmarks ||
            !benchmarks->isArray())
            continue;
        for (const JsonValue &bench : benchmarks->items()) {
            if (!bench.isObject())
                continue;
            const JsonValue *name = bench.find("name");
            const JsonValue *real = bench.find("realTimeNs");
            if (!name || !name->isString() || !real ||
                !real->isNumber())
                continue;
            std::string key =
                binary->asString() + ":" + name->asString();
            samples[key].push_back(real->asNumber());
        }
    }
    return true;
}

} // namespace

std::optional<std::vector<std::string>>
readBenchManifest(const std::string &dir, std::string *error)
{
    std::string path = dir + "/" + kBenchManifest;
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open '" + path +
                     "' (is --bench-dir the built bench directory?)";
        return std::nullopt;
    }
    std::vector<std::string> names;
    std::string line;
    while (std::getline(in, line)) {
        std::string name = trim(line);
        if (name.empty() || name[0] == '#')
            continue;
        names.push_back(name);
    }
    if (names.empty()) {
        if (error)
            *error = "'" + path + "' names no benchmark binaries";
        return std::nullopt;
    }
    return names;
}

void
writeBenchResults(
    std::ostream &out,
    const std::vector<std::pair<std::string, JsonValue>> &suites,
    bool smoke, const std::vector<std::string> &failures)
{
    const obs::BuildInfo &build = obs::buildInfo();
    JsonWriter json(out);
    json.beginObject();
    json.kv("schema", kBenchSchema);
    json.kv("smoke", smoke);
    json.key("build").beginObject();
    json.kv("version", build.version);
    json.kv("compiler", build.compiler);
    json.kv("buildType", build.buildType);
    json.endObject();

    // Host identity from the first suite's context (every binary on
    // one run shares the host).
    json.key("host").beginObject();
    if (!suites.empty() && suites.front().second.isObject()) {
        const JsonValue *ctx = suites.front().second.find("context");
        if (ctx && ctx->isObject()) {
            const JsonValue *host = ctx->find("host_name");
            if (host && host->isString())
                json.kv("hostName", host->asString());
            const JsonValue *cpus = ctx->find("num_cpus");
            if (cpus && cpus->isNumber())
                json.kv("numCpus",
                        static_cast<long long>(cpus->asNumber()));
            const JsonValue *mhz = ctx->find("mhz_per_cpu");
            if (mhz && mhz->isNumber())
                json.kv("mhzPerCpu", mhz->asNumber());
            const JsonValue *date = ctx->find("date");
            if (date && date->isString())
                json.kv("date", date->asString());
        }
    }
    json.endObject();

    json.key("failures").beginArray();
    for (const std::string &name : failures)
        json.value(name);
    json.endArray();

    json.key("suites").beginArray();
    for (const auto &[binary, doc] : suites) {
        json.beginObject();
        json.kv("binary", binary);
        json.key("benchmarks").beginArray();
        const JsonValue *benchmarks =
            doc.isObject() ? doc.find("benchmarks") : nullptr;
        if (benchmarks && benchmarks->isArray()) {
            for (const JsonValue &entry : benchmarks->items()) {
                if (!keepBenchmarkEntry(entry))
                    continue;
                const JsonValue *unit = entry.find("time_unit");
                double to_ns =
                    unit && unit->isString()
                        ? unitToNs(unit->asString())
                        : 1.0;
                json.beginObject();
                json.kv("name", entry.find("name")->asString());
                json.kv("realTimeNs",
                        entry.find("real_time")->asNumber() * to_ns);
                const JsonValue *cpu = entry.find("cpu_time");
                if (cpu && cpu->isNumber())
                    json.kv("cpuTimeNs", cpu->asNumber() * to_ns);
                const JsonValue *iters = entry.find("iterations");
                if (iters && iters->isNumber())
                    json.kv("iterations",
                            static_cast<long long>(
                                iters->asNumber()));
                const JsonValue *rep =
                    entry.find("repetition_index");
                json.kv("repetition",
                        rep && rep->isNumber()
                            ? static_cast<long long>(rep->asNumber())
                            : 0LL);
                json.endObject();
            }
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

bool
runBenchPipeline(const BenchRunOptions &opts, std::ostream &out,
                 std::string *error)
{
    auto manifest = readBenchManifest(opts.benchDir, error);
    if (!manifest)
        return false;

    int reps = opts.repetitions > 0 ? opts.repetitions
                                    : (opts.smoke ? 1 : 3);
    std::vector<std::pair<std::string, JsonValue>> suites;
    std::vector<std::string> failures;
    std::size_t matched = 0;
    for (const std::string &name : *manifest) {
        if (!opts.only.empty() &&
            name.find(opts.only) == std::string::npos)
            continue;
        ++matched;
        std::string cmd = "\"" + opts.benchDir + "/" + name +
                          "\" --benchmark_format=json";
        if (opts.smoke)
            cmd += " --benchmark_min_time=0.01";
        if (reps > 1)
            cmd += " --benchmark_repetitions=" + std::to_string(reps);
        hcm_inform("bench suite starting", logField("binary", name),
                   logField("repetitions", reps));
        FILE *pipe = popen(cmd.c_str(), "r");
        if (!pipe) {
            hcm_warn("cannot launch '", cmd, "'");
            failures.push_back(name);
            continue;
        }
        std::string output;
        char buf[4096];
        while (std::size_t n = std::fread(buf, 1, sizeof(buf), pipe))
            output.append(buf, n);
        int status = pclose(pipe);
        if (status != 0) {
            hcm_warn("bench binary failed",
                     logField("binary", name),
                     logField("status", status));
            failures.push_back(name);
            continue;
        }
        std::string parse_error;
        auto doc = JsonValue::parse(output, &parse_error);
        if (!doc) {
            hcm_warn("bench output is not JSON",
                     logField("binary", name),
                     logField("error", parse_error));
            failures.push_back(name);
            continue;
        }
        std::size_t count =
            doc->isObject() && doc->find("benchmarks")
                ? doc->find("benchmarks")->size()
                : 0;
        hcm_inform("bench suite complete", logField("binary", name),
                   logField("benchmarks", count));
        suites.emplace_back(name, std::move(*doc));
    }
    if (matched == 0) {
        if (error)
            *error = "no bench binary matches --only '" + opts.only +
                     "'";
        return false;
    }
    if (suites.empty()) {
        if (error)
            *error = "every bench binary failed; nothing to record";
        return false;
    }
    writeBenchResults(out, suites, opts.smoke, failures);
    return true;
}

std::optional<BenchDiffReport>
diffBenchResults(const JsonValue &old_doc, const JsonValue &new_doc,
                 const BenchDiffOptions &opts, std::string *error)
{
    std::map<std::string, std::vector<double>> old_samples;
    std::map<std::string, std::vector<double>> new_samples;
    std::string why;
    if (!collectSamples(old_doc, old_samples, &why)) {
        if (error)
            *error = "old results: " + why;
        return std::nullopt;
    }
    if (!collectSamples(new_doc, new_samples, &why)) {
        if (error)
            *error = "new results: " + why;
        return std::nullopt;
    }

    BenchDiffReport report;
    double tolerance = 1.0 + opts.tolerancePct / 100.0;
    for (const auto &[name, values] : old_samples) {
        auto it = new_samples.find(name);
        if (it == new_samples.end()) {
            report.onlyOld.push_back(name);
            continue;
        }
        BenchDelta delta;
        delta.name = name;
        delta.oldNs = median(values);
        delta.newNs = median(it->second);
        if (delta.oldNs < opts.minTimeNs &&
            delta.newNs < opts.minTimeNs) {
            ++report.skipped;
            continue;
        }
        if (delta.oldNs > 0.0 && delta.newNs > delta.oldNs * tolerance)
            report.regressions.push_back(delta);
        else if (delta.newNs > 0.0 &&
                 delta.oldNs > delta.newNs * tolerance)
            report.improvements.push_back(delta);
        else
            report.unchanged.push_back(delta);
    }
    for (const auto &[name, values] : new_samples)
        if (old_samples.find(name) == old_samples.end())
            report.onlyNew.push_back(name);

    // Worst offender first, so the gating line of a CI log leads with
    // the benchmark that tripped it.
    auto by_ratio = [](const BenchDelta &a, const BenchDelta &b) {
        return a.ratio() > b.ratio();
    };
    std::sort(report.regressions.begin(), report.regressions.end(),
              by_ratio);
    std::sort(report.improvements.begin(), report.improvements.end(),
              [](const BenchDelta &a, const BenchDelta &b) {
                  return a.ratio() < b.ratio();
              });
    return report;
}

void
writeDiffReport(std::ostream &out, const BenchDiffReport &report,
                const BenchDiffOptions &opts)
{
    for (const BenchDelta &d : report.regressions)
        out << "REGRESSION  " << d.name << "  " << fmtNs(d.oldNs)
            << " -> " << fmtNs(d.newNs) << "  ("
            << fmtSig((d.ratio() - 1.0) * 100.0, 3) << "% slower)\n";
    for (const BenchDelta &d : report.improvements)
        out << "improvement " << d.name << "  " << fmtNs(d.oldNs)
            << " -> " << fmtNs(d.newNs) << "  ("
            << fmtSig((1.0 - d.ratio()) * 100.0, 3) << "% faster)\n";
    for (const std::string &name : report.onlyOld)
        out << "dropped     " << name << "\n";
    for (const std::string &name : report.onlyNew)
        out << "added       " << name << "\n";
    std::size_t compared = report.regressions.size() +
                           report.improvements.size() +
                           report.unchanged.size();
    out << "bench-diff: " << compared << " compared (tolerance "
        << fmtSig(opts.tolerancePct, 3) << "%, median of repetitions)"
        << ": " << report.regressions.size() << " regression(s), "
        << report.improvements.size() << " improvement(s), "
        << report.unchanged.size() << " unchanged, " << report.skipped
        << " below the " << fmtNs(opts.minTimeNs) << " floor, "
        << report.onlyNew.size() << " added, "
        << report.onlyOld.size() << " dropped\n";
}

} // namespace prof
} // namespace hcm
