/** @file Unit tests for util/format. */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "util/format.hh"

namespace hcm {
namespace {

/** appendDouble(v, digits) must print exactly printf's %.<digits>g. */
void
expectPrintfBytes(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int digits : {17, 12}) {
        char want[64];
        std::snprintf(want, sizeof(want), "%.*g", digits, v);
        std::string got = "prefix"; // appends, never overwrites
        appendDouble(got, v, digits);
        EXPECT_EQ(got, std::string("prefix") + want)
            << "digits " << digits << ", bits 0x" << std::hex << bits;
    }
}

TEST(FormatTest, AppendDoubleMatchesPrintfOnSpecialValues)
{
    using limits = std::numeric_limits<double>;
    for (double v :
         {0.0, -0.0, 1.0, -1.0, 0.1, 0.1 + 0.2, 1.0 / 3.0, 1e-5, 1e-4,
          123456.0, 1e16, 1e17, 1e21, 123456789012345678.0, 0.5, 0.99,
          0.999, limits::infinity(), -limits::infinity(),
          limits::quiet_NaN(), -limits::quiet_NaN(), limits::denorm_min(),
          -limits::denorm_min(), limits::min(), limits::max(),
          limits::lowest(), limits::epsilon(), 1e-310})
        expectPrintfBytes(v);
}

TEST(FormatTest, AppendDoubleMatchesPrintfOnRandomDoubles)
{
    std::mt19937_64 rng(20100601);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_real_distribution<double> exponent(-320.0, 308.0);
    for (int i = 0; i < 20000; ++i) {
        // Raw bit patterns cover every exponent, subnormals and NaNs.
        std::uint64_t bits = rng();
        double raw;
        std::memcpy(&raw, &bits, sizeof(raw));
        expectPrintfBytes(raw);
        expectPrintfBytes(unit(rng));
        expectPrintfBytes(-unit(rng) * std::pow(10.0, exponent(rng)));
    }
}

TEST(FormatTest, FmtFixedBasics)
{
    EXPECT_EQ(fmtFixed(1.5, 2), "1.50");
    EXPECT_EQ(fmtFixed(-2.25, 1), "-2.2"); // banker's-free snprintf rounding
    EXPECT_EQ(fmtFixed(0.0, 0), "0");
    EXPECT_EQ(fmtFixed(3.14159, 4), "3.1416");
}

TEST(FormatTest, FmtSigZeroAndSpecials)
{
    EXPECT_EQ(fmtSig(0.0), "0");
    EXPECT_EQ(fmtSig(std::nan("")), "nan");
    EXPECT_EQ(fmtSig(1.0 / 0.0), "inf");
    EXPECT_EQ(fmtSig(-1.0 / 0.0), "-inf");
}

TEST(FormatTest, FmtSigSignificantDigits)
{
    EXPECT_EQ(fmtSig(1.2345, 3), "1.23");
    EXPECT_EQ(fmtSig(12.345, 3), "12.3");
    EXPECT_EQ(fmtSig(123.45, 3), "123");
    // Int digits exceed sig: falls back to %.0f (round-half-even).
    EXPECT_EQ(fmtSig(1234.5, 3), "1234");
    EXPECT_EQ(fmtSig(1234.6, 3), "1235");
    EXPECT_EQ(fmtSig(0.5, 3), "0.5");     // trailing zeros trimmed
    EXPECT_EQ(fmtSig(2.0, 3), "2");
}

TEST(FormatTest, FmtSigSwitchesToScientific)
{
    EXPECT_EQ(fmtSig(1.5e7, 3), "1.50e+07");
    EXPECT_EQ(fmtSig(2.5e-4, 3), "2.50e-04");
}

TEST(FormatTest, FmtSigNegative)
{
    EXPECT_EQ(fmtSig(-12.345, 3), "-12.3");
}

TEST(FormatTest, FmtPercent)
{
    EXPECT_EQ(fmtPercent(0.975), "97.5%");
    EXPECT_EQ(fmtPercent(0.5, 0), "50%");
}

TEST(FormatTest, Padding)
{
    EXPECT_EQ(padLeft("ab", 5), "   ab");
    EXPECT_EQ(padRight("ab", 5), "ab   ");
    EXPECT_EQ(padCenter("ab", 6), "  ab  ");
    EXPECT_EQ(padCenter("ab", 5), " ab  ");
    EXPECT_EQ(padLeft("abcdef", 3), "abcdef"); // never truncates
}

TEST(FormatTest, JoinAndRepeat)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ", "), "");
    EXPECT_EQ(join({"solo"}, "-"), "solo");
    EXPECT_EQ(repeat("ab", 3), "ababab");
    EXPECT_EQ(repeat("x", 0), "");
}

TEST(FormatTest, CaseInsensitiveEquals)
{
    EXPECT_TRUE(iequals("FFT", "fft"));
    EXPECT_TRUE(iequals("", ""));
    EXPECT_FALSE(iequals("fft", "fft "));
    EXPECT_FALSE(iequals("abc", "abd"));
}

TEST(FormatTest, Trim)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim("\t\n a \r"), "a");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(FormatTest, Split)
{
    EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b",
                                                             "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
    EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

} // namespace
} // namespace hcm
