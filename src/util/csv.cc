#include "csv.hh"

#include "format.hh"
#include "logging.hh"

namespace hcm {

CsvWriter::CsvWriter(const std::string &path) : _out(path)
{
    if (!_out)
        hcm_fatal("cannot open '", path, "' for writing");
}

void
CsvWriter::writeRow(const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0)
            _out << ",";
        _out << escape(cells[i]);
    }
    _out << "\n";
    ++_rows;
}

void
CsvWriter::writeNumericRow(const std::vector<double> &cells)
{
    std::vector<std::string> text;
    text.reserve(cells.size());
    for (double v : cells)
        appendDouble(text.emplace_back(), v, 17);
    writeRow(text);
}

std::string
CsvWriter::escape(const std::string &cell)
{
    bool needs_quote = cell.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quote)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += "\"";
    return out;
}

std::vector<std::string>
parseCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cur;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cur += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                cur += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            cells.push_back(cur);
            cur.clear();
        } else if (c == '\r') {
            // Tolerate CRLF input (outside quotes only: a quoted \r is
            // data and was handled by the branch above).
        } else {
            cur += c;
        }
    }
    cells.push_back(cur);
    return cells;
}

std::vector<std::vector<std::string>>
readCsv(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        hcm_fatal("cannot open '", path, "' for reading");

    // Quote-aware record scanner: a newline inside quotes continues the
    // current cell (the writer quotes embedded newlines, so reading
    // line-by-line would split one logical row into two mangled ones);
    // a newline outside quotes ends the record.
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> cells;
    std::string cur;
    bool quoted = false;
    bool pending = false; // any character consumed since the last record
    char c;
    while (in.get(c)) {
        if (quoted) {
            if (c == '"') {
                if (in.peek() == '"') {
                    cur += '"';
                    in.get();
                } else {
                    quoted = false;
                }
            } else {
                cur += c; // newlines and \r inside quotes are data
            }
            pending = true;
        } else if (c == '"') {
            quoted = true;
            pending = true;
        } else if (c == ',') {
            cells.push_back(cur);
            cur.clear();
            pending = true;
        } else if (c == '\n') {
            cells.push_back(cur);
            cur.clear();
            rows.push_back(std::move(cells));
            cells.clear();
            pending = false;
        } else if (c == '\r') {
            // Tolerate CRLF record separators.
            pending = true;
        } else {
            cur += c;
            pending = true;
        }
    }
    if (pending || !cells.empty()) {
        // Final record without a trailing newline (or an unterminated
        // quote at EOF — parse what we have rather than lose it).
        cells.push_back(cur);
        rows.push_back(std::move(cells));
    }
    return rows;
}

} // namespace hcm
