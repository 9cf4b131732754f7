#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <time.h>

#include "util/json.hh"

namespace perfbench {
namespace {

/** Every digit of @p v, as JSON (non-finite values are a bug here). */
std::string
number(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    return "\"" + hcm::JsonWriter::escape(s) + "\"";
}

} // namespace

double
Samples::sum() const
{
    double total = 0.0;
    for (double v : _values)
        total += v;
    return total;
}

double
Samples::mean() const
{
    return _values.empty() ? 0.0 : sum() / static_cast<double>(_values.size());
}

double
Samples::quantile(double q) const
{
    if (_values.empty())
        return 0.0;
    if (!_sorted) {
        std::sort(_values.begin(), _values.end());
        _sorted = true;
    }
    double rank = std::ceil(q * static_cast<double>(_values.size()));
    std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return _values[std::min(i, _values.size() - 1)];
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, std::size_t samples,
               const std::string &as)
{
    _metrics[name] = Metric{value, unit, samples, as};
}

void
Report::property(const std::string &name, double value)
{
    _properties[name] = value;
}

void
Report::gate(const std::string &name, bool ok, std::size_t checked,
             const std::string &detail)
{
    _gates.push_back(Gate{name, ok, checked, ok ? "" : detail});
}

void
Report::attempt(std::size_t attempted, std::size_t failed)
{
    _attempted += attempted;
    _failed += failed;
}

bool
Report::correct() const
{
    if (_gates.empty())
        return false;
    for (const Gate &g : _gates)
        if (!g.ok)
            return false;
    return true;
}

void
Report::write(std::ostream &out) const
{
    out << "{\"correct\":" << (correct() ? "true" : "false")
        << ",\"attempted\":" << _attempted << ",\"failed\":" << _failed
        << ",\"metrics\":{";
    const char *sep = "";
    for (const auto &[name, m] : _metrics) {
        out << sep << quoted(name) << ":{\"value\":" << number(m.value)
            << ",\"unit\":" << quoted(m.unit) << ",\"samples\":" << m.samples;
        if (!m.as.empty())
            out << ",\"as\":" << quoted(m.as);
        out << "}";
        sep = ",";
    }
    out << "},\"properties\":{";
    sep = "";
    for (const auto &[name, v] : _properties) {
        out << sep << quoted(name) << ":" << number(v);
        sep = ",";
    }
    out << "},\"gates\":[";
    sep = "";
    for (const Gate &g : _gates) {
        out << sep << "{\"name\":" << quoted(g.name)
            << ",\"ok\":" << (g.ok ? "true" : "false")
            << ",\"checked\":" << g.checked;
        if (!g.ok)
            out << ",\"detail\":" << quoted(g.detail);
        out << "}";
        sep = ",";
    }
    out << "]}\n";
}

double
processCpuSeconds()
{
    timespec ts = {};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

std::unique_ptr<hcm::svc::QueryEngine>
makeEngine(std::size_t workers, Samples &setup)
{
    double cpu0 = processCpuSeconds();
    hcm::svc::EngineOptions eopts;
    eopts.threads = workers;
    auto engine = std::make_unique<hcm::svc::QueryEngine>(eopts);
    setup.add(processCpuSeconds() - cpu0);
    return engine;
}

bool
resetPeakRss()
{
    // "5" resets the mark (Linux 4.0 and later, proc(5)).
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.close();
    return static_cast<bool>(clear);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

void
RssWindows::report(Report &report) const
{
    report.metric("peak_rss_mb", _peaks.median(), "MB", _peaks.count(),
                  "peak RSS of one repetition, median");
    report.property("rss.windows_reset", _reset ? 1.0 : 0.0);
}

std::string
expectedFor(const Options &opts, const std::string &gate,
            std::string expected)
{
    if (opts.corrupt == gate) {
        if (expected.empty())
            expected = "!";
        else
            expected[expected.size() / 2] ^= 0x01;
    }
    return expected;
}

std::size_t
firstDifference(const std::string &a, const std::string &b)
{
    std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return i;
    return a.size() == b.size() ? std::string::npos : n;
}

void
writeFile(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.close();
    if (!out)
        throw std::runtime_error("cannot write '" + path + "'");
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace perfbench
