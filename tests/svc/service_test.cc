/** @file Tests for the serve loop's control verbs and error framing:
 *  format validation on trace/profile, blank-line termination of the
 *  Prometheus block, and the served count excluding error lines. */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "svc/engine.hh"
#include "svc/fault.hh"
#include "svc/router.hh"
#include "svc/service.hh"
#include "util/format.hh"

namespace hcm {
namespace svc {
namespace {

/** Split serve output into lines, dropping the trailing empty piece. */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines = split(text, '\n');
    while (!lines.empty() && lines.back().empty())
        lines.pop_back();
    return lines;
}

EngineOptions
smallEngine()
{
    EngineOptions opts;
    opts.threads = 2;
    opts.cacheCapacity = 16;
    return opts;
}

/** Run one serve session over @p input; returns (served, lines). */
std::size_t
serveLines(const std::string &input, std::vector<std::string> *lines)
{
    QueryEngine engine(smallEngine());
    std::istringstream in(input);
    std::ostringstream out;
    std::size_t served = runServe(in, out, engine);
    if (lines)
        *lines = splitLines(out.str());
    return served;
}

TEST(ServeControlVerbTest, TraceRejectsNonJsonFormat)
{
    std::vector<std::string> lines;
    serveLines("{\"type\":\"trace\",\"format\":\"xml\"}\n", &lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "{\"error\":\"trace format must be json\"}");
}

TEST(ServeControlVerbTest, TraceRejectsNonStringFormat)
{
    std::vector<std::string> lines;
    serveLines("{\"type\":\"trace\",\"format\":7}\n", &lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "{\"error\":\"trace format must be json\"}");
}

TEST(ServeControlVerbTest, TraceAcceptsExplicitJsonFormat)
{
    std::vector<std::string> lines;
    serveLines("{\"type\":\"trace\",\"format\":\"json\"}\n", &lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"traceEvents\""), std::string::npos);
}

TEST(ServeControlVerbTest, ProfileRejectsNonJsonFormat)
{
    std::vector<std::string> lines;
    serveLines("{\"type\":\"profile\",\"format\":\"text\"}\n", &lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "{\"error\":\"profile format must be json\"}");
}

TEST(ServeControlVerbTest, ProfileRejectsNonStringFormat)
{
    std::vector<std::string> lines;
    serveLines("{\"type\":\"profile\",\"format\":false}\n", &lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "{\"error\":\"profile format must be json\"}");
}

TEST(ServeControlVerbTest, MetricsRejectsUnknownFormat)
{
    std::vector<std::string> lines;
    serveLines("{\"type\":\"metrics\",\"format\":\"yaml\"}\n", &lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0],
              "{\"error\":\"metrics format must be json or prom\"}");
}

// The Prometheus block is multi-line, so line-oriented clients need
// the trailing blank line to find the end of the response.
TEST(ServeControlVerbTest, PromBlockEndsWithBlankLine)
{
    QueryEngine engine(smallEngine());
    std::istringstream in(
        "{\"type\":\"metrics\",\"format\":\"prom\"}\n"
        "{\"type\":\"metrics\"}\n");
    std::ostringstream out;
    runServe(in, out, engine);
    std::string text = out.str();
    std::size_t gap = text.find("\n\n");
    ASSERT_NE(gap, std::string::npos);
    // Everything before the gap is the prom block; the JSON metrics
    // response follows immediately after it.
    EXPECT_NE(text.substr(0, gap).find("hcm_svc_queries_total"),
              std::string::npos);
    EXPECT_EQ(text.compare(gap + 2, 15, "{\"totalQueries\""), 0)
        << text.substr(gap + 2, 40);
}

// served counts successful evaluations only: parse failures and error
// results (here a fault-injected evaluation) answer with an error line
// but do not count.
TEST(ServeCountTest, ErrorLinesDoNotCount)
{
    ASSERT_TRUE(FaultInjector::instance().configure("eval:throw:nth=1"));
    QueryEngine engine(smallEngine());
    std::istringstream in(
        "this is not json\n"
        "{\"type\":\"optimize\",\"workload\":\"mmm\",\"f\":0.9}\n"
        "{\"type\":\"optimize\",\"workload\":\"mmm\",\"f\":0.9}\n");
    std::ostringstream out;
    std::size_t served = runServe(in, out, engine);
    FaultInjector::instance().reset();

    std::vector<std::string> lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("\"error\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"type\":\"evaluation_failed\""),
              std::string::npos);
    EXPECT_NE(lines[2].find("\"rows\":"), std::string::npos);
    EXPECT_EQ(served, 1u);
}

// Regression: fft:128 is a power of two the paper never measured; it
// used to pass the parser and panic the process in MeasurementDb::get.
TEST(ServeRobustnessTest, UnmeasuredFftSizeAnswersErrorAndServesOn)
{
    std::vector<std::string> lines;
    std::size_t served = serveLines(
        "{\"type\":\"optimize\",\"workload\":\"fft:128\",\"f\":0.9}\n"
        "{\"type\":\"optimize\",\"workload\":\"fft:64\",\"f\":0.9}\n",
        &lines);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].rfind("{\"error\":", 0), 0u) << lines[0];
    EXPECT_NE(lines[0].find("no measurement for FFT-128"),
              std::string::npos)
        << lines[0];
    EXPECT_NE(lines[1].find("\"rows\":"), std::string::npos) << lines[1];
    EXPECT_EQ(served, 1u);
}

// "f": -0.0 canonicalizes to +0.0 at parse: one cache entry, and the
// echoed fraction reads 0 either way.
TEST(ServeRequestTest, NegativeZeroFractionSharesOneCacheEntry)
{
    QueryEngine engine(smallEngine());
    RequestRouter router(engine);
    RouteReply negative = router.route(
        R"({"type":"optimize","workload":"mmm","f":-0.0})");
    RouteReply positive =
        router.route(R"({"type":"optimize","workload":"mmm","f":0})");
    EXPECT_EQ(negative.body, positive.body);
    EXPECT_NE(negative.body.find("\"f\":0,"), std::string::npos)
        << negative.body;
    EXPECT_EQ(engine.cacheStats().entries, 1u);
    EXPECT_EQ(engine.cacheStats().hits, 1u);
}

} // namespace
} // namespace svc
} // namespace hcm
