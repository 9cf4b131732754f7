#include "export.hh"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/bounds.hh"
#include "obs/trace.hh"
#include "util/csv.hh"
#include "util/format.hh"
#include "util/json.hh"

namespace hcm {
namespace sweep {

namespace {

/**
 * The one byte sink behind both drivers: every record is appended to
 * a single reused buffer, which goes to the stream in chunks of about
 * kChunk bytes. The drivers never build a string per cell or call the
 * stream per token.
 */
class ByteSink
{
  public:
    static constexpr std::size_t kChunk = 64 * 1024;

    explicit ByteSink(std::ostream &out) : _out(out)
    {
        // Room for a chunk plus the record that crosses its end.
        _buf.reserve(kChunk + 4096);
    }

    void put(char c) { _buf += c; }
    void put(std::string_view s) { _buf += s; }
    void num(double v, int digits) { appendDouble(_buf, v, digits); }

    void
    integer(long long v)
    {
        char text[24];
        _buf.append(text, std::to_chars(text, text + sizeof(text), v).ptr);
    }

    /** Record boundary: hand a full chunk to the stream. */
    void
    endRecord()
    {
        if (_buf.size() >= kChunk)
            flush();
    }

    /** Write what is left; returns the bytes written in total. */
    std::size_t
    finish()
    {
        flush();
        return _written;
    }

  private:
    void
    flush()
    {
        _out.write(_buf.data(), static_cast<std::streamsize>(_buf.size()));
        _written += _buf.size();
        _buf.clear();
    }

    std::ostream &_out;
    std::string _buf;
    std::size_t _written = 0;
};

/**
 * Node labels formatted and escaped once per export instead of once per
 * cell (NodeParams::label() goes through snprintf). Keyed on the
 * node's bits, so a hand-built cell outside Table 6 still gets its own
 * label.
 */
class NodeLabels
{
  public:
    explicit NodeLabels(std::string (*escape)(const std::string &))
        : _escape(escape)
    {
    }

    const std::string &
    operator()(const itrs::NodeParams &node)
    {
        std::uint64_t bits = std::bit_cast<std::uint64_t>(node.nodeNm);
        for (const Entry &e : _entries)
            if (e.bits == bits)
                return e.text;
        _entries.push_back({bits, _escape(node.label())});
        return _entries.back().text;
    }

  private:
    struct Entry
    {
        std::uint64_t bits;
        std::string text;
    };

    std::string (*_escape)(const std::string &);
    std::vector<Entry> _entries;
};

constexpr int kCsvDigits = 17; ///< round-trips every double
constexpr int kJsonDigits = 12; ///< JsonWriter::value(double)

/** A JSON string literal: quotes around JsonWriter::escape. */
std::string
jsonString(const std::string &s)
{
    return '"' + JsonWriter::escape(s) + '"';
}

/** A JSON number the way JsonWriter prints it: null when non-finite. */
void
jsonNumber(ByteSink &sink, double v)
{
    if (std::isfinite(v))
        sink.num(v, kJsonDigits);
    else
        sink.put("null");
}

} // namespace

void
writeSweepCsv(std::ostream &out, const SweepResult &result)
{
    obs::Span span("sweep.export", "sweep");
    span.arg("format", "csv");
    ByteSink sink(out);
    NodeLabels labels(&CsvWriter::escape);
    sink.put("workload,f,scenario,organization,paperIndex,node,year,"
             "feasible,r,n,speedup,limiter,energyNormalized,budgetArea,"
             "budgetPower,budgetBandwidth\n");
    std::string prefix;
    for (const SweepRow &row : result.rows) {
        // The first five cells are the row's, shared by its node lines.
        prefix = CsvWriter::escape(row.workload);
        prefix += ',';
        appendDouble(prefix, row.f, kCsvDigits);
        prefix += ',';
        prefix += CsvWriter::escape(row.scenario);
        prefix += ',';
        prefix += CsvWriter::escape(row.organization);
        prefix += ',';
        prefix += std::to_string(row.paperIndex);
        prefix += ',';
        for (const SweepCell &cell : row.cells) {
            sink.put(prefix);
            sink.put(labels(cell.node));
            sink.put(',');
            sink.integer(cell.node.year);
            if (cell.design.feasible) {
                sink.put(",1,");
                sink.num(cell.design.r, kCsvDigits);
                sink.put(',');
                sink.num(cell.design.n, kCsvDigits);
                sink.put(',');
                sink.num(cell.design.speedup, kCsvDigits);
                sink.put(',');
                sink.put(core::limiterName(cell.design.limiter));
                sink.put(',');
                sink.num(cell.energyNormalized, kCsvDigits);
                sink.put(',');
            } else {
                sink.put(",0,,,,,,");
            }
            sink.num(cell.budget.area, kCsvDigits);
            sink.put(',');
            sink.num(cell.budget.power, kCsvDigits);
            sink.put(',');
            sink.num(cell.budget.bandwidth, kCsvDigits);
            sink.put('\n');
            sink.endRecord();
        }
    }
    span.arg("bytes", sink.finish());
}

void
writeSweepJson(std::ostream &out, const SweepResult &result)
{
    obs::Span span("sweep.export", "sweep");
    span.arg("format", "json");
    ByteSink sink(out);
    NodeLabels labels(&jsonString);
    sink.put("{\"rows\":[");
    for (std::size_t ri = 0; ri < result.rows.size(); ++ri) {
        const SweepRow &row = result.rows[ri];
        sink.put(ri > 0 ? ",{\"workload\":" : "{\"workload\":");
        sink.put(jsonString(row.workload));
        sink.put(",\"f\":");
        jsonNumber(sink, row.f);
        sink.put(",\"scenario\":");
        sink.put(jsonString(row.scenario));
        sink.put(",\"organization\":");
        sink.put(jsonString(row.organization));
        sink.put(",\"paperIndex\":");
        sink.integer(row.paperIndex);
        sink.put(",\"points\":[");
        for (std::size_t ci = 0; ci < row.cells.size(); ++ci) {
            const SweepCell &cell = row.cells[ci];
            sink.put(ci > 0 ? ",{\"node\":" : "{\"node\":");
            sink.put(labels(cell.node));
            sink.put(",\"year\":");
            sink.integer(cell.node.year);
            if (cell.design.feasible) {
                sink.put(",\"feasible\":true,\"r\":");
                jsonNumber(sink, cell.design.r);
                sink.put(",\"n\":");
                jsonNumber(sink, cell.design.n);
                sink.put(",\"speedup\":");
                jsonNumber(sink, cell.design.speedup);
                sink.put(",\"limiter\":\"");
                sink.put(core::limiterName(cell.design.limiter));
                sink.put("\",\"energyNormalized\":");
                jsonNumber(sink, cell.energyNormalized);
            } else {
                sink.put(",\"feasible\":false");
            }
            sink.put(",\"budget\":{\"area\":");
            jsonNumber(sink, cell.budget.area);
            sink.put(",\"power\":");
            jsonNumber(sink, cell.budget.power);
            sink.put(",\"bandwidth\":");
            jsonNumber(sink, cell.budget.bandwidth);
            sink.put("}}");
            sink.endRecord();
        }
        sink.put("]}");
    }
    sink.put("],\"units\":");
    sink.integer(static_cast<long long>(result.units));
    sink.put(",\"jobs\":");
    sink.integer(static_cast<long long>(result.jobs));
    sink.put("}\n");
    span.arg("bytes", sink.finish());
}

} // namespace sweep
} // namespace hcm
