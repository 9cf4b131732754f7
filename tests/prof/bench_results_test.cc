/** Tests for the bench telemetry pipeline: merging google-benchmark
 *  JSON into the results schema, the manifest reader, and the
 *  noise-aware diff. The pipeline's pure core takes parsed documents,
 *  so everything here runs on synthetic inputs — no benchmark binaries
 *  involved. */

#include "prof/bench_results.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace hcm {
namespace prof {
namespace {

JsonValue
parse(const std::string &text)
{
    std::string error;
    auto doc = JsonValue::parse(text, &error);
    EXPECT_TRUE(doc) << error << " in: " << text;
    return doc ? *doc : JsonValue();
}

/** One synthetic gbench document with the given measurement rows. */
JsonValue
gbenchDoc(const std::string &benchmarks_json)
{
    return parse(R"({"context":{"host_name":"testhost","num_cpus":8,)"
                 R"("mhz_per_cpu":2400,"date":"2026-08-05"},)"
                 R"("benchmarks":[)" +
                 benchmarks_json + "]}");
}

/** A results document holding one suite with one benchmark per
 *  (name, realTimeNs) pair. */
JsonValue
resultsDoc(const std::vector<std::pair<std::string, double>> &rows)
{
    std::string benchmarks;
    for (const auto &[name, ns] : rows) {
        if (!benchmarks.empty())
            benchmarks += ",";
        benchmarks += R"({"name":")" + name +
                      R"(","real_time":)" + std::to_string(ns) +
                      R"(,"cpu_time":1.0,"time_unit":"ns",)"
                      R"("iterations":100})";
    }
    std::ostringstream out;
    writeBenchResults(out, {{"suite", gbenchDoc(benchmarks)}}, false);
    return parse(out.str());
}

TEST(BenchResults, MergedDocumentCarriesSchemaBuildAndHost)
{
    std::ostringstream out;
    writeBenchResults(
        out,
        {{"bench_x",
          gbenchDoc(R"({"name":"BM_A","real_time":42.0,)"
                    R"("cpu_time":40.0,"time_unit":"ns",)"
                    R"("iterations":10,"repetition_index":1})")}},
        true, {"bench_broken"});
    JsonValue doc = parse(out.str());
    EXPECT_EQ(doc.find("schema")->asString(), kBenchSchema);
    EXPECT_TRUE(doc.find("smoke")->asBool());
    EXPECT_FALSE(doc.find("build")->find("version")->asString().empty());
    EXPECT_FALSE(
        doc.find("build")->find("compiler")->asString().empty());
    EXPECT_EQ(doc.find("host")->find("hostName")->asString(),
              "testhost");
    EXPECT_EQ(doc.find("host")->find("numCpus")->asNumber(), 8.0);
    ASSERT_EQ(doc.find("failures")->size(), 1u);
    EXPECT_EQ(doc.find("failures")->items()[0].asString(),
              "bench_broken");
    const JsonValue &suite = doc.find("suites")->items()[0];
    EXPECT_EQ(suite.find("binary")->asString(), "bench_x");
    const JsonValue &bench = suite.find("benchmarks")->items()[0];
    EXPECT_EQ(bench.find("name")->asString(), "BM_A");
    EXPECT_DOUBLE_EQ(bench.find("realTimeNs")->asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(bench.find("cpuTimeNs")->asNumber(), 40.0);
    EXPECT_EQ(bench.find("repetition")->asNumber(), 1.0);
}

TEST(BenchResults, TimesNormalizeToNanoseconds)
{
    std::ostringstream out;
    writeBenchResults(
        out,
        {{"bench_x",
          gbenchDoc(R"({"name":"BM_Us","real_time":2.5,)"
                    R"("cpu_time":2.0,"time_unit":"us",)"
                    R"("iterations":10})")}},
        false);
    JsonValue doc = parse(out.str());
    const JsonValue &bench =
        doc.find("suites")->items()[0].find("benchmarks")->items()[0];
    EXPECT_DOUBLE_EQ(bench.find("realTimeNs")->asNumber(), 2500.0);
    EXPECT_DOUBLE_EQ(bench.find("cpuTimeNs")->asNumber(), 2000.0);
}

TEST(BenchResults, AggregateAndErroredRowsAreDropped)
{
    std::ostringstream out;
    writeBenchResults(
        out,
        {{"bench_x",
          gbenchDoc(
              R"({"name":"BM_A","real_time":10.0,"time_unit":"ns"},)"
              R"({"name":"BM_A_mean","run_type":"aggregate",)"
              R"("real_time":10.0,"time_unit":"ns"},)"
              R"({"name":"BM_Bad","error_occurred":true,)"
              R"("real_time":1.0,"time_unit":"ns"})")}},
        false);
    JsonValue doc = parse(out.str());
    const JsonValue *benchmarks =
        doc.find("suites")->items()[0].find("benchmarks");
    ASSERT_EQ(benchmarks->size(), 1u);
    EXPECT_EQ(benchmarks->items()[0].find("name")->asString(), "BM_A");
}

TEST(BenchResults, ManifestReaderSkipsCommentsAndBlanks)
{
    std::string dir = ::testing::TempDir();
    {
        std::ofstream out(dir + "/" + kBenchManifest);
        out << "# comment\n\n  bench_one  \nbench_two\n";
    }
    std::string error;
    auto names = readBenchManifest(dir, &error);
    ASSERT_TRUE(names) << error;
    ASSERT_EQ(names->size(), 2u);
    EXPECT_EQ((*names)[0], "bench_one");
    EXPECT_EQ((*names)[1], "bench_two");
    std::remove((dir + "/" + kBenchManifest).c_str());
}

TEST(BenchResults, MissingManifestIsAnError)
{
    std::string error;
    EXPECT_FALSE(
        readBenchManifest("/nonexistent-bench-dir-xyz", &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(BenchDiff, IdenticalInputsHaveNoRegressions)
{
    JsonValue doc = resultsDoc({{"BM_A", 100.0}, {"BM_B", 2000.0}});
    std::string error;
    auto report = diffBenchResults(doc, doc, {}, &error);
    ASSERT_TRUE(report) << error;
    EXPECT_FALSE(report->hasRegressions());
    EXPECT_EQ(report->unchanged.size(), 2u);
}

TEST(BenchDiff, TwoTimesSlowdownRegresses)
{
    JsonValue before = resultsDoc({{"BM_A", 100.0}});
    JsonValue after = resultsDoc({{"BM_A", 200.0}});
    BenchDiffOptions opts;
    opts.tolerancePct = 50.0;
    std::string error;
    auto report = diffBenchResults(before, after, opts, &error);
    ASSERT_TRUE(report) << error;
    ASSERT_EQ(report->regressions.size(), 1u);
    EXPECT_EQ(report->regressions[0].name, "suite:BM_A");
    EXPECT_DOUBLE_EQ(report->regressions[0].ratio(), 2.0);
    // The same delta in the other direction is an improvement.
    report = diffBenchResults(after, before, opts, &error);
    ASSERT_TRUE(report) << error;
    EXPECT_TRUE(report->regressions.empty());
    EXPECT_EQ(report->improvements.size(), 1u);
}

TEST(BenchDiff, WithinToleranceIsUnchanged)
{
    JsonValue before = resultsDoc({{"BM_A", 100.0}});
    JsonValue after = resultsDoc({{"BM_A", 108.0}});
    std::string error;
    auto report = diffBenchResults(before, after, {}, &error); // 10%
    ASSERT_TRUE(report) << error;
    EXPECT_FALSE(report->hasRegressions());
    EXPECT_EQ(report->unchanged.size(), 1u);
}

TEST(BenchDiff, MedianAcrossRepetitionsAbsorbsOneOutlier)
{
    // Three repetitions of the same benchmark: one wild outlier in the
    // new run must not trip the gate when the median is steady.
    JsonValue before =
        resultsDoc({{"BM_A", 100.0}, {"BM_A", 101.0}, {"BM_A", 99.0}});
    JsonValue after =
        resultsDoc({{"BM_A", 100.0}, {"BM_A", 500.0}, {"BM_A", 98.0}});
    std::string error;
    auto report = diffBenchResults(before, after, {}, &error);
    ASSERT_TRUE(report) << error;
    EXPECT_FALSE(report->hasRegressions());
}

TEST(BenchDiff, BelowFloorIsSkipped)
{
    JsonValue before = resultsDoc({{"BM_Tiny", 2.0}});
    JsonValue after = resultsDoc({{"BM_Tiny", 4.0}});
    BenchDiffOptions opts;
    opts.minTimeNs = 10.0;
    std::string error;
    auto report = diffBenchResults(before, after, opts, &error);
    ASSERT_TRUE(report) << error;
    EXPECT_FALSE(report->hasRegressions());
    EXPECT_EQ(report->skipped, 1u);
}

TEST(BenchDiff, AddedAndDroppedBenchmarksAreListed)
{
    JsonValue before = resultsDoc({{"BM_Old", 10.0}, {"BM_Both", 5.0}});
    JsonValue after = resultsDoc({{"BM_New", 10.0}, {"BM_Both", 5.0}});
    std::string error;
    auto report = diffBenchResults(before, after, {}, &error);
    ASSERT_TRUE(report) << error;
    ASSERT_EQ(report->onlyOld.size(), 1u);
    EXPECT_EQ(report->onlyOld[0], "suite:BM_Old");
    ASSERT_EQ(report->onlyNew.size(), 1u);
    EXPECT_EQ(report->onlyNew[0], "suite:BM_New");
}

TEST(BenchDiff, WrongSchemaIsRejected)
{
    JsonValue good = resultsDoc({{"BM_A", 1.0}});
    JsonValue bad = parse(R"({"schema":"something-else","suites":[]})");
    std::string error;
    EXPECT_FALSE(diffBenchResults(bad, good, {}, &error));
    EXPECT_NE(error.find("old results"), std::string::npos);
    error.clear();
    EXPECT_FALSE(diffBenchResults(good, bad, {}, &error));
    EXPECT_NE(error.find("new results"), std::string::npos);
}

TEST(BenchResults, GbenchUserCountersAreNotCopied)
{
    // gbench flattens state.counters[...] into each row; the results
    // schema keeps wall and CPU time only, and no "counters" stanza.
    std::ostringstream out;
    writeBenchResults(
        out,
        {{"suite",
          gbenchDoc(R"({"name":"BM_Counted","real_time":10.0,)"
                    R"("time_unit":"ns","iterations":5,)"
                    R"("instructions":4096.0,"ipc":2.0,)"
                    R"("pseudo-GFLOP/s":3.5})")}},
        false);
    JsonValue doc = parse(out.str());
    EXPECT_EQ(doc.find("counters"), nullptr);
    const JsonValue &row =
        doc.find("suites")->items()[0].find("benchmarks")->items()[0];
    EXPECT_DOUBLE_EQ(row.find("realTimeNs")->asNumber(), 10.0);
    EXPECT_EQ(row.find("instructions"), nullptr);
    EXPECT_EQ(row.find("ipc"), nullptr);
    EXPECT_EQ(row.find("pseudo-GFLOP/s"), nullptr);
}

TEST(BenchDiff, V1FilesStillDiff)
{
    // A pre-counter results file: same shape, old schema tag.
    JsonValue v1 = parse(
        std::string(R"({"schema":")") + kBenchSchemaV1 +
        R"(","suites":[{"binary":"suite","benchmarks":[)"
        R"({"name":"BM_A","realTimeNs":100.0}]}]})");
    JsonValue v2 = resultsDoc({{"BM_A", 100.0}});
    std::string error;
    auto report = diffBenchResults(v1, v2, {}, &error);
    ASSERT_TRUE(report) << error;
    EXPECT_FALSE(report->hasRegressions());
    EXPECT_EQ(report->unchanged.size(), 1u);
}

TEST(BenchDiff, V2CounterColumnsAreIgnored)
{
    // Older v2 files (the checked-in baseline among them) carry a
    // "counters" stanza and per-row IPC columns. They still diff, on
    // wall time alone: a halved IPC at flat time is not a regression.
    JsonValue old_v2 = parse(
        std::string(R"({"schema":")") + kBenchSchema +
        R"(","counters":{"available":true,"perfEventParanoid":1},)"
        R"("suites":[{"binary":"suite","benchmarks":[)"
        R"({"name":"BM_A","realTimeNs":100.0,"ipc":2.0,)"
        R"("instructions":400.0,"cycles":200.0}]}]})");
    JsonValue fresh = resultsDoc({{"BM_A", 100.0}});
    std::string error;
    for (const auto &[before, after] :
         {std::pair{&old_v2, &fresh}, std::pair{&fresh, &old_v2}}) {
        auto report = diffBenchResults(*before, *after, {}, &error);
        ASSERT_TRUE(report) << error;
        EXPECT_FALSE(report->hasRegressions());
        EXPECT_EQ(report->unchanged.size(), 1u);
        std::ostringstream out;
        writeDiffReport(out, *report, {});
        EXPECT_EQ(out.str().find("IPC"), std::string::npos) << out.str();
    }
}

TEST(BenchDiff, ReportLeadsWithWorstRegression)
{
    JsonValue before = resultsDoc({{"BM_Mild", 100.0},
                                   {"BM_Severe", 100.0}});
    JsonValue after = resultsDoc({{"BM_Mild", 150.0},
                                  {"BM_Severe", 400.0}});
    std::string error;
    auto report = diffBenchResults(before, after, {}, &error);
    ASSERT_TRUE(report) << error;
    ASSERT_EQ(report->regressions.size(), 2u);
    EXPECT_EQ(report->regressions[0].name, "suite:BM_Severe");
    std::ostringstream out;
    writeDiffReport(out, *report, {});
    std::string text = out.str();
    EXPECT_LT(text.find("BM_Severe"), text.find("BM_Mild"));
    EXPECT_NE(text.find("2 regression(s)"), std::string::npos) << text;
}

} // namespace
} // namespace prof
} // namespace hcm
