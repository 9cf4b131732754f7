/** @file Tests for sweep CSV/JSON serialization. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/bounds.hh"
#include "obs/trace.hh"
#include "sweep/export.hh"
#include "sweep/spec.hh"
#include "sweep/sweep.hh"
#include "util/csv.hh"
#include "util/json.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace sweep {
namespace {

/**
 * The reference drivers: the stream-per-token writers the buffered
 * export replaced, kept verbatim so every byte of the new writers is
 * checked against an independent implementation (the CI `cmp` gates
 * only compare the new writers with themselves).
 */
namespace oracle {

std::string
num(double v)
{
    std::ostringstream oss;
    oss.precision(17);
    oss << v;
    return oss.str();
}

void
writeCsvRow(std::ostream &out, const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0)
            out << ",";
        out << CsvWriter::escape(cells[i]);
    }
    out << "\n";
}

void
writeSweepCsv(std::ostream &out, const SweepResult &result)
{
    writeCsvRow(out, {"workload", "f", "scenario", "organization",
                      "paperIndex", "node", "year", "feasible", "r", "n",
                      "speedup", "limiter", "energyNormalized",
                      "budgetArea", "budgetPower", "budgetBandwidth"});
    for (const SweepRow &row : result.rows) {
        for (const SweepCell &cell : row.cells) {
            std::vector<std::string> cells = {
                row.workload,
                num(row.f),
                row.scenario,
                row.organization,
                std::to_string(row.paperIndex),
                cell.node.label(),
                std::to_string(cell.node.year),
                cell.design.feasible ? "1" : "0",
            };
            if (cell.design.feasible) {
                cells.push_back(num(cell.design.r));
                cells.push_back(num(cell.design.n));
                cells.push_back(num(cell.design.speedup));
                cells.push_back(core::limiterName(cell.design.limiter));
                cells.push_back(num(cell.energyNormalized));
            } else {
                cells.insert(cells.end(), 5, "");
            }
            cells.push_back(num(cell.budget.area));
            cells.push_back(num(cell.budget.power));
            cells.push_back(num(cell.budget.bandwidth));
            writeCsvRow(out, cells);
        }
    }
}

void
writeSweepJson(std::ostream &out, const SweepResult &result)
{
    JsonWriter json(out);
    json.beginObject();
    json.key("rows").beginArray();
    for (const SweepRow &row : result.rows) {
        json.beginObject();
        json.kv("workload", row.workload);
        json.kv("f", row.f);
        json.kv("scenario", row.scenario);
        json.kv("organization", row.organization);
        json.kv("paperIndex", row.paperIndex);
        json.key("points").beginArray();
        for (const SweepCell &cell : row.cells) {
            json.beginObject();
            json.kv("node", cell.node.label());
            json.kv("year", cell.node.year);
            json.kv("feasible", cell.design.feasible);
            if (cell.design.feasible) {
                json.kv("r", cell.design.r);
                json.kv("n", cell.design.n);
                json.kv("speedup", cell.design.speedup);
                json.kv("limiter",
                        core::limiterName(cell.design.limiter));
                json.kv("energyNormalized", cell.energyNormalized);
            }
            json.key("budget").beginObject();
            json.kv("area", cell.budget.area);
            json.kv("power", cell.budget.power);
            json.kv("bandwidth", cell.budget.bandwidth);
            json.endObject();
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.kv("units", result.units);
    json.kv("jobs", result.jobs);
    json.endObject();
    out << "\n";
}

} // namespace oracle

using Writer = void (*)(std::ostream &, const SweepResult &);

std::string
render(Writer write, const SweepResult &result)
{
    std::ostringstream out;
    write(out, result);
    return out.str();
}

/** Both drivers must print exactly the reference drivers' bytes. */
void
expectOracleBytes(const SweepResult &result)
{
    struct Case
    {
        const char *format;
        Writer got, want;
    };
    for (const Case &c : {Case{"csv", writeSweepCsv, oracle::writeSweepCsv},
                          Case{"json", writeSweepJson,
                               oracle::writeSweepJson}}) {
        std::string got = render(c.got, result);
        std::string want = render(c.want, result);
        ASSERT_EQ(got.size(), want.size()) << c.format;
        EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0)
            << c.format << " differs at byte "
            << std::mismatch(got.begin(), got.end(), want.begin()).first -
                   got.begin();
    }
}

/** Serialize to CSV, then parse it back through util/csv. */
std::vector<std::vector<std::string>>
csvRows(const SweepResult &result, const std::string &name)
{
    std::string path =
        (std::filesystem::temp_directory_path() / name).string();
    {
        std::ofstream out(path);
        writeSweepCsv(out, result);
    }
    std::vector<std::vector<std::string>> rows = readCsv(path);
    std::remove(path.c_str());
    return rows;
}

SweepResult
tinyResult()
{
    SweepSpec spec;
    spec.workloads = {wl::Workload::mmm()};
    spec.fractions = {0.99};
    spec.scenarios = {core::baselineScenario()};
    return runSweep(spec, {});
}

TEST(SweepExportTest, CsvHasHeaderAndOneLinePerRowNode)
{
    SweepResult result = tinyResult();
    std::vector<std::vector<std::string>> rows =
        csvRows(result, "hcm_sweep_export_shape.csv");
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows[0][0], "workload");
    EXPECT_EQ(rows[0].size(), 16u);
    EXPECT_EQ(rows.size(),
              1 + result.rows.size() * itrs::nodeTable().size());
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].size(), rows[0].size());
}

TEST(SweepExportTest, CsvFeasibleRowCarriesFullPrecision)
{
    SweepResult result = tinyResult();
    std::vector<std::vector<std::string>> rows =
        csvRows(result, "hcm_sweep_export_precision.csv");
    // Find a feasible data row and check the speedup survives a
    // round-trip through the text exactly.
    bool checked = false;
    for (std::size_t i = 1; i < rows.size() && !checked; ++i) {
        if (rows[i][7] != "1")
            continue;
        std::size_t row_index = (i - 1) / itrs::nodeTable().size();
        std::size_t node_index = (i - 1) % itrs::nodeTable().size();
        double expected =
            result.rows[row_index].cells[node_index].design.speedup;
        EXPECT_EQ(std::stod(rows[i][10]), expected);
        checked = true;
    }
    EXPECT_TRUE(checked);
}

TEST(SweepExportTest, JsonParsesAndEchoesShape)
{
    SweepResult result = tinyResult();
    std::ostringstream out;
    writeSweepJson(out, result);
    std::string error;
    auto doc = JsonValue::parse(out.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const JsonValue *rows = doc->find("rows");
    ASSERT_TRUE(rows && rows->isArray());
    EXPECT_EQ(rows->items().size(), result.rows.size());
    const JsonValue &first = rows->items().front();
    EXPECT_TRUE(first.find("workload"));
    EXPECT_TRUE(first.find("organization"));
    const JsonValue *points = first.find("points");
    ASSERT_TRUE(points && points->isArray());
    EXPECT_EQ(points->items().size(), itrs::nodeTable().size());
    EXPECT_TRUE(points->items().front().find("budget"));
    const JsonValue *units = doc->find("units");
    ASSERT_TRUE(units);
    EXPECT_EQ(static_cast<std::size_t>(units->asNumber()),
              result.units);
}

SweepResult
denseResult()
{
    SpecStrings strings;
    strings.workloads = "mmm,bs,fft:64,fft:1024,fft:16384";
    strings.fractions = "0,0.1,0.95,1";
    strings.scenarios = "all";
    std::string error;
    std::optional<SweepSpec> spec = parseSweepSpec(strings, &error);
    EXPECT_TRUE(spec) << error;
    return spec ? runSweep(*spec, {}) : SweepResult{};
}

TEST(SweepExportTest, DenseSweepMatchesReferenceDrivers)
{
    SweepResult result = denseResult();
    // More than 2 * 8 blocks of 64 rows, so even eight formatting
    // threads wrap around the block ring.
    ASSERT_GT(result.rows.size(), 2u * 8 * 64);
    expectOracleBytes(result);
}

TEST(SweepExportTest, EveryJobCountMatchesReferenceDrivers)
{
    // The block export must print the oracle's bytes whatever the
    // thread count, including odd counts and row counts at and around
    // one block, so a 1-CPU host runs the parallel path too.
    SweepResult dense = denseResult();
    ASSERT_GT(dense.rows.size(), 2u * 8 * 64);
    for (std::size_t rows :
         {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, dense.rows.size()}) {
        SweepResult result;
        result.rows.assign(dense.rows.begin(), dense.rows.begin() + rows);
        result.units = rows;
        for (std::size_t jobs : {1, 2, 3, 8}) {
            SCOPED_TRACE("rows " + std::to_string(rows) + ", jobs " +
                         std::to_string(jobs));
            result.jobs = jobs;
            expectOracleBytes(result);
        }
    }
}

TEST(SweepExportTest, EdgeValuesAndStringsMatchReferenceDrivers)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double sub = std::numeric_limits<double>::denorm_min();

    itrs::NodeParams odd = itrs::nodeTable().front();
    odd.nodeNm = 7.25; // outside Table 6: its own label
    odd.year = -1;

    SweepRow quoted;
    quoted.workload = "a,b \"c\"\nd";
    quoted.f = -0.0;
    quoted.scenario = "tab\there\\ \x01 \xc3\xa9";
    quoted.organization = "org,\r\n";
    quoted.paperIndex = -1;
    for (const itrs::NodeParams &node : {itrs::nodeTable()[0], odd,
                                         itrs::nodeTable()[0]}) {
        SweepCell cell;
        cell.node = node;
        quoted.cells.push_back(cell);
    }
    // Infeasible, with non-finite budgets: CSV "inf"/"nan", JSON null.
    quoted.cells[0].budget = {inf, -inf, nan};
    // Feasible, with signed zeros, subnormals and non-finite values.
    SweepCell &feasible = quoted.cells[1];
    feasible.design.feasible = true;
    feasible.design.r = -0.0;
    feasible.design.n = sub;
    feasible.design.speedup = inf;
    feasible.design.limiter = core::Limiter::Thermal;
    feasible.energyNormalized = nan;
    feasible.budget = {2.2250738585072014e-308, -sub, 1e-310};
    quoted.cells[2].design.feasible = true;
    quoted.cells[2].design.speedup = 0.1 + 0.2;
    quoted.cells[2].energyNormalized = 123456789012345678.0;

    SweepRow plain;
    plain.workload = "MMM";
    plain.f = nan;
    plain.scenario = "baseline";
    plain.organization = "";
    plain.paperIndex = 7;
    // A row without cells prints nothing in CSV and "points":[] in JSON.

    SweepRow last = quoted;
    last.f = inf;

    SweepResult result;
    result.rows = {quoted, plain, last};
    result.units = 3;
    result.jobs = 12;
    expectOracleBytes(result);

    SweepResult empty;
    expectOracleBytes(empty);

    result.jobs = 3;
    expectOracleBytes(result);
    // Repeated past one block, so the edge rows also go through the
    // formatting threads, which memoize labels and budgets per thread.
    SweepResult repeated;
    for (int i = 0; i < 50; ++i)
        repeated.rows.insert(repeated.rows.end(), result.rows.begin(),
                             result.rows.end());
    repeated.units = repeated.rows.size();
    repeated.jobs = 3;
    expectOracleBytes(repeated);
}

TEST(SweepExportTest, FailingStreamStopsTheFormattingThreads)
{
    // A stream that fails after its first write and throws on failure:
    // the export must rethrow on the calling thread with every
    // formatting thread joined, however far ahead they have run.
    struct FailingBuf : std::streambuf
    {
        int writes = 0;
        std::streamsize
        xsputn(const char *, std::streamsize n) override
        {
            return ++writes == 1 ? n : 0;
        }
    };
    SweepResult result = denseResult();
    result.jobs = 3;
    for (Writer write : {writeSweepCsv, writeSweepJson}) {
        FailingBuf buf;
        std::ostream out(&buf);
        out.exceptions(std::ios::badbit);
        EXPECT_THROW(write(out, result), std::ios::failure);
        EXPECT_EQ(buf.writes, 2);
    }
}

TEST(SweepExportTest, CsvPrintsNonFiniteBudgetsAndJsonNull)
{
    SweepRow row;
    row.workload = "MMM";
    SweepCell cell;
    cell.node = itrs::nodeTable().front();
    cell.budget = {std::numeric_limits<double>::infinity(), -0.0,
                   std::numeric_limits<double>::quiet_NaN()};
    row.cells.push_back(cell);
    SweepResult result;
    result.rows.push_back(row);
    std::string csv = render(writeSweepCsv, result);
    EXPECT_NE(csv.find(",0,,,,,,inf,-0,nan\n"), std::string::npos) << csv;
    std::string json = render(writeSweepJson, result);
    EXPECT_NE(json.find("\"budget\":{\"area\":null,\"power\":-0,"
                        "\"bandwidth\":null}"),
              std::string::npos)
        << json;
}

TEST(SweepExportTest, EachExportIsOneSpanWithFormatAndBytes)
{
    SweepResult tiny = tinyResult();
    tiny.jobs = 4;
    // 65 rows: two blocks, so two formatting threads, the caller
    // included.
    SweepResult wide;
    while (wide.rows.size() < 65)
        wide.rows.insert(wide.rows.end(), tiny.rows.begin(),
                         tiny.rows.end());
    wide.rows.resize(65);
    wide.jobs = 3;
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.setEnabled(true);
    std::string csv = render(writeSweepCsv, tiny);
    std::string json = render(writeSweepJson, tiny);
    std::string wide_csv = render(writeSweepCsv, wide);
    std::string wide_json = render(writeSweepJson, wide);
    tracer.setEnabled(false);
    std::ostringstream trace;
    tracer.writeChromeTrace(trace);
    tracer.clear();

    std::optional<JsonValue> doc = JsonValue::parse(trace.str());
    ASSERT_TRUE(doc);
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    // format, jobs, blocks, bytes; all on the calling thread.
    using Args = std::vector<std::string>;
    std::vector<Args> exports;
    std::optional<double> tid;
    for (const JsonValue &ev : events->items()) {
        if (ev.find("name")->asString() != "sweep.export")
            continue;
        if (!tid)
            tid = ev.find("tid")->asNumber();
        EXPECT_EQ(ev.find("tid")->asNumber(), *tid);
        const JsonValue *args = ev.find("args");
        ASSERT_TRUE(args);
        Args got;
        for (const char *key : {"format", "jobs", "blocks", "bytes"}) {
            const JsonValue *arg = args->find(key);
            ASSERT_TRUE(arg) << key;
            got.push_back(arg->asString());
        }
        exports.push_back(got);
    }
    // The tiny sweep is one block, formatted inline whatever its jobs.
    std::vector<Args> want = {
        {"csv", "1", "1", std::to_string(csv.size())},
        {"json", "1", "1", std::to_string(json.size())},
        {"csv", "2", "2", std::to_string(wide_csv.size())},
        {"json", "2", "2", std::to_string(wide_json.size())}};
    EXPECT_EQ(exports, want);
}

} // namespace
} // namespace sweep
} // namespace hcm
