#include "format.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "logging.hh"

namespace hcm {

std::string
fmtFixed(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
fmtSig(double value, int sig)
{
    if (value == 0.0)
        return "0";
    if (std::isnan(value))
        return "nan";
    if (std::isinf(value))
        return value > 0 ? "inf" : "-inf";

    double mag = std::fabs(value);
    if (mag < 1e-3 || mag >= 1e6)
        return fmtSci(value, std::max(0, sig - 1));

    // Digits before the decimal point.
    int int_digits = (mag < 1.0) ? 0 : static_cast<int>(std::log10(mag)) + 1;
    int decimals = std::max(0, sig - int_digits);
    // Avoid trailing noise like "1500.000" when sig is already satisfied.
    std::string out = fmtFixed(value, decimals);
    if (decimals > 0) {
        // Trim trailing zeros, then a trailing '.'.
        std::size_t last = out.find_last_not_of('0');
        if (last != std::string::npos && out[last] == '.')
            --last;
        out.erase(last + 1);
    }
    return out;
}

std::string
fmtSci(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*e", precision, value);
    return buf;
}

void
appendDouble(std::string &out, double value, int digits)
{
    // At most 17 digits: "-2.2250738585072014e-308" is 24 bytes.
    hcm_assert(digits >= 0 && digits <= 17, "appendDouble digits ", digits);
    char buf[32];
    std::to_chars_result res = std::to_chars(
        buf, buf + sizeof(buf), value, std::chars_format::general, digits);
    out.append(buf, res.ptr);
}

std::string
fmtPercent(double fraction, int precision)
{
    return fmtFixed(fraction * 100.0, precision) + "%";
}

std::string
padLeft(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

std::string
padCenter(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    std::size_t total = width - s.size();
    std::size_t left = total / 2;
    return std::string(left, ' ') + s + std::string(total - left, ' ');
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
repeat(const std::string &unit, std::size_t count)
{
    std::string out;
    out.reserve(unit.size() * count);
    for (std::size_t i = 0; i < count; ++i)
        out += unit;
    return out;
}

bool
iequals(const std::string &a, const std::string &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

std::string
trim(const std::string &s)
{
    auto not_space = [](unsigned char c) { return !std::isspace(c); };
    auto begin = std::find_if(s.begin(), s.end(), not_space);
    auto end = std::find_if(s.rbegin(), s.rend(), not_space).base();
    if (begin >= end)
        return "";
    return std::string(begin, end);
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == delim) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

} // namespace hcm
