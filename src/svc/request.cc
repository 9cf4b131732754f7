#include "request.hh"

#include <cmath>
#include <cstdlib>

#include "core/scenario.hh"
#include "devices/measured.hh"
#include "itrs/scaling.hh"
#include "obs/request_id.hh"
#include "util/format.hh"

namespace hcm {
namespace svc {
namespace {

// Scenario lookups go through core::findScenario — the one
// case-insensitive registry shared with scenarioByName and the sweep
// spec parser.

/** Non-fatal counterpart of itrs::nodeParams(). */
bool
nodeExists(double node_nm)
{
    for (const itrs::NodeParams &node : itrs::nodeTable())
        if (node.nodeNm == node_nm)
            return true;
    return false;
}

/**
 * True when the paper measured @p w on the Core i7 baseline, which
 * every organization calibrates against; otherwise names the measured
 * FFT sizes in @p error. The database is the one list of sizes.
 */
bool
measuredWorkload(const wl::Workload &w, std::string *error)
{
    const dev::MeasurementDb &db = dev::MeasurementDb::instance();
    if (db.find(dev::DeviceId::CoreI7, w))
        return true;
    if (error) {
        std::string sizes;
        for (const dev::Measurement &m : db.all())
            if (m.device == dev::DeviceId::CoreI7 &&
                m.workload.kind() == wl::Kind::FFT)
                sizes += (sizes.empty() ? "" : ", ") +
                         std::to_string(m.workload.size());
        *error = "no measurement for " + w.name() +
                 " (measured fft sizes: " + sizes + ")";
    }
    return false;
}

} // namespace

std::optional<wl::Workload>
parseWorkloadSpec(const std::string &spec, std::string *error)
{
    if (iequals(spec, "mmm"))
        return wl::Workload::mmm();
    if (iequals(spec, "bs") || iequals(spec, "blackscholes"))
        return wl::Workload::blackScholes();
    if (iequals(spec, "fft"))
        return wl::Workload::fft(1024);
    if (spec.size() >= 4 && iequals(spec.substr(0, 4), "fft:")) {
        // Digits only: strtoul alone also accepts "+8" and wraps "-8".
        const std::string digits = spec.substr(4);
        bool all_digits = !digits.empty();
        for (char c : digits)
            if (c < '0' || c > '9')
                all_digits = false;
        char *end = nullptr;
        unsigned long n =
            all_digits ? std::strtoul(digits.c_str(), &end, 10) : 0;
        if (all_digits && end == digits.c_str() + digits.size() &&
            n >= 2 && (n & (n - 1)) == 0) {
            wl::Workload w = wl::Workload::fft(n);
            if (!measuredWorkload(w, error))
                return std::nullopt;
            return w;
        }
        if (error)
            *error = "fft size must be a power of two >= 2, got '" +
                     digits + "'";
        return std::nullopt;
    }
    if (error)
        *error = "unknown workload '" + spec +
                 "' (expected mmm, bs, or fft:N)";
    return std::nullopt;
}

std::optional<dev::DeviceId>
parseDeviceName(const std::string &name)
{
    static const std::vector<std::pair<std::string, dev::DeviceId>>
        devices = {
            {"gtx285", dev::DeviceId::Gtx285},
            {"gtx480", dev::DeviceId::Gtx480},
            {"r5870", dev::DeviceId::R5870},
            {"lx760", dev::DeviceId::Lx760},
            {"asic", dev::DeviceId::Asic},
        };
    for (const auto &[id_name, id] : devices)
        if (iequals(name, id_name))
            return id;
    return std::nullopt;
}

RequestParse
parseQueryRequest(const JsonValue &v)
{
    if (!v.isObject())
        return RequestParse::failure(
            "request must be a JSON object, got " +
            JsonValue::typeName(v.type()));

    RequestParse out;
    Query &q = out.query;

    const JsonValue *type = v.find("type");
    if (!type || !type->isString())
        return RequestParse::failure(
            "missing required string field 'type'");
    auto parsed_type = queryTypeByName(type->asString());
    if (!parsed_type)
        return RequestParse::failure(
            "unknown query type '" + type->asString() +
            "' (optimize, projection, energy, pareto)");
    q.type = *parsed_type;

    if (const JsonValue *workload = v.find("workload")) {
        if (!workload->isString())
            return RequestParse::failure("'workload' must be a string");
        std::string why;
        auto parsed = parseWorkloadSpec(workload->asString(), &why);
        if (!parsed)
            return RequestParse::failure(why);
        q.workload = *parsed;
    }

    if (const JsonValue *f = v.find("f")) {
        if (!f->isNumber())
            return RequestParse::failure("'f' must be a number");
        // "+ 0.0" maps -0.0 to +0.0, so both spellings echo and key
        // identically.
        q.f = f->asNumber() + 0.0;
        if (!(q.f >= 0.0 && q.f <= 1.0))
            return RequestParse::failure(
                "'f' must lie in [0, 1], got " +
                std::to_string(q.f));
    }

    if (const JsonValue *scenario = v.find("scenario")) {
        if (!scenario->isString())
            return RequestParse::failure("'scenario' must be a string");
        const core::Scenario *found =
            core::findScenario(scenario->asString());
        if (!found)
            return RequestParse::failure(
                "unknown scenario '" + scenario->asString() + "'");
        // Normalize to the registry spelling so differently-cased
        // requests share one canonical memoization key.
        q.scenario = found->name;
    }

    if (const JsonValue *node = v.find("node")) {
        if (!node->isNumber())
            return RequestParse::failure("'node' must be a number");
        q.node = node->asNumber();
        if (!nodeExists(q.node))
            return RequestParse::failure(
                "unknown node " + std::to_string(q.node) +
                " (expected 40, 32, 22, 16, or 11)");
    }

    if (const JsonValue *deadline = v.find("deadlineMs")) {
        if (!deadline->isNumber())
            return RequestParse::failure("'deadlineMs' must be a number");
        double ms = deadline->asNumber();
        if (!(ms > 0.0))
            return RequestParse::failure(
                "'deadlineMs' must be > 0, got " + std::to_string(ms));
        q.deadlineNs = static_cast<std::uint64_t>(ms * 1e6);
    }

    if (const JsonValue *device = v.find("device")) {
        if (!device->isString())
            return RequestParse::failure("'device' must be a string");
        auto id = parseDeviceName(device->asString());
        if (!id)
            return RequestParse::failure(
                "unknown device '" + device->asString() +
                "' (gtx285, gtx480, r5870, lx760, asic)");
        q.device = *id;
    }

    if (const JsonValue *rid = v.find("requestId")) {
        if (!rid->isString())
            return RequestParse::failure("'requestId' must be a string");
        if (!obs::validRequestId(rid->asString()))
            return RequestParse::failure(
                "'requestId' must be 1-" +
                std::to_string(obs::kMaxRequestIdBytes) +
                " characters of [A-Za-z0-9._-]");
        q.requestId = rid->asString();
        q.requestIdEcho = true; // the client asked by name; answer it
    }

    out.ok = true;
    return out;
}

RequestParse
parseQueryRequestText(const std::string &text)
{
    std::string why;
    auto doc = JsonValue::parse(text, &why);
    if (!doc)
        return RequestParse::failure("malformed JSON: " + why);
    return parseQueryRequest(*doc);
}

std::optional<std::vector<Query>>
parseBatchDocument(const std::string &text, std::string *error)
{
    std::string why;
    auto doc = JsonValue::parse(text, &why);
    if (!doc) {
        if (error)
            *error = "malformed JSON: " + why;
        return std::nullopt;
    }
    const JsonValue *list = nullptr;
    if (doc->isArray()) {
        list = &*doc;
    } else if (doc->isObject()) {
        list = doc->find("requests");
        if (!list || !list->isArray()) {
            if (error)
                *error = "expected {\"requests\": [...]} or a "
                         "top-level array";
            return std::nullopt;
        }
    } else {
        if (error)
            *error = "batch document must be an array or object";
        return std::nullopt;
    }

    std::vector<Query> queries;
    queries.reserve(list->size());
    for (std::size_t i = 0; i < list->items().size(); ++i) {
        RequestParse parsed = parseQueryRequest(list->items()[i]);
        if (!parsed.ok) {
            if (error)
                *error = "request " + std::to_string(i) + ": " +
                         parsed.error;
            return std::nullopt;
        }
        queries.push_back(parsed.query);
    }
    return queries;
}

namespace {

/** First index >= @p i of a non-whitespace byte (JSON whitespace). */
std::size_t
skipJsonSpace(const std::string &s, std::size_t i)
{
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' ||
                            s[i] == '\n' || s[i] == '\r'))
        ++i;
    return i;
}

/**
 * Index one past the end of the JSON value starting at @p i, found by
 * bracket counting with string/escape awareness. Assumes the text is
 * well-formed (validated by a full parse beforehand).
 */
std::size_t
jsonValueEnd(const std::string &s, std::size_t i)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (; i < s.size(); ++i) {
        char c = s[i];
        if (in_string) {
            if (escaped) {
                escaped = false;
            } else if (c == '\\') {
                escaped = true;
            } else if (c == '"') {
                in_string = false;
                if (depth == 0)
                    return i + 1; // bare string value ends here
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
            if (depth == 0)
                return i + 1;
        } else if (depth == 0 && (c == ',' || c == '}' || c == ']')) {
            return i; // scalar value ends at the delimiter
        }
    }
    return s.size();
}

} // namespace

std::optional<std::string>
injectRequestId(const std::string &text, const std::string &rid)
{
    std::size_t open = skipJsonSpace(text, 0);
    if (open >= text.size() || text[open] != '{')
        return std::nullopt;
    std::size_t next = skipJsonSpace(text, open + 1);
    std::string member = "\"requestId\":\"" + rid + "\"";
    if (next < text.size() && text[next] != '}')
        member += ",";
    std::string out = text;
    out.insert(open + 1, member);
    return out;
}

std::optional<std::vector<std::string>>
splitBatchRequestTexts(const std::string &text)
{
    // Locate the requests array: the document itself when it is a
    // top-level array, otherwise the value of the "requests" member.
    std::size_t i = skipJsonSpace(text, 0);
    if (i >= text.size())
        return std::nullopt;
    if (text[i] == '{') {
        // Walk the object's members for the "requests" key.
        ++i;
        while (true) {
            i = skipJsonSpace(text, i);
            if (i >= text.size() || text[i] == '}')
                return std::nullopt;
            if (text[i] != '"')
                return std::nullopt;
            std::size_t key_end = jsonValueEnd(text, i);
            std::string key = text.substr(i, key_end - i);
            i = skipJsonSpace(text, key_end);
            if (i >= text.size() || text[i] != ':')
                return std::nullopt;
            i = skipJsonSpace(text, i + 1);
            if (i >= text.size())
                return std::nullopt;
            std::size_t value_end = jsonValueEnd(text, i);
            if (key == "\"requests\"")
                break;
            i = skipJsonSpace(text, value_end);
            if (i < text.size() && text[i] == ',')
                ++i;
            else
                return std::nullopt; // no "requests" member
        }
    }
    if (i >= text.size() || text[i] != '[')
        return std::nullopt;

    std::vector<std::string> items;
    i = skipJsonSpace(text, i + 1);
    if (i < text.size() && text[i] == ']')
        return items; // empty batch
    while (i < text.size()) {
        std::size_t end = jsonValueEnd(text, i);
        items.push_back(text.substr(i, end - i));
        i = skipJsonSpace(text, end);
        if (i >= text.size())
            return std::nullopt;
        if (text[i] == ']')
            return items;
        if (text[i] != ',')
            return std::nullopt;
        i = skipJsonSpace(text, i + 1);
    }
    return std::nullopt;
}

} // namespace svc
} // namespace hcm
