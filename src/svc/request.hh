/**
 * @file
 * Wire format of the query service: JSON requests -> typed Query.
 * Every field is validated non-fatally (unknown scenario, bad node,
 * malformed workload spec, ...) so a server can answer one bad request
 * with an error instead of dying. The request schema:
 *
 *   {"type": "optimize" | "projection" | "energy" | "pareto",
 *    "workload": "mmm" | "bs" | "fft:N",   // default "fft:1024"
 *    "f": 0.99,                            // parallel fraction
 *    "scenario": "baseline" | ...,         // Section 6.2 names
 *    "node": 40|32|22|16|11,               // ignored by projection
 *    "device": "gtx285"|"gtx480"|"r5870"|"lx760"|"asic",  // optional
 *    "deadlineMs": 250,   // optional per-request deadline (> 0)
 *    "requestId": "a1b2..."}  // optional trace context (see
 *                             // obs/request_id.hh for the charset)
 */

#ifndef HCM_SVC_REQUEST_HH
#define HCM_SVC_REQUEST_HH

#include <string>
#include <vector>

#include "svc/query.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace svc {

/** Outcome of parsing one request. */
struct RequestParse
{
    bool ok = false;
    Query query;
    std::string error;

    static RequestParse
    failure(std::string why)
    {
        RequestParse out;
        out.error = std::move(why);
        return out;
    }
};

/** Parse one request object (already-parsed JSON) into a Query. */
RequestParse parseQueryRequest(const JsonValue &v);

/** Parse one request from raw JSON text (serve mode's line format). */
RequestParse parseQueryRequestText(const std::string &text);

/**
 * Parse a batch document: either a top-level array of request objects
 * or {"requests": [...]}. Returns the queries, or sets @p error (with
 * the offending index) and returns nullopt.
 */
std::optional<std::vector<Query>> parseBatchDocument(
    const std::string &text, std::string *error);

/**
 * Slice a batch document into the raw byte spans of its request
 * objects, in order. The net front door forwards these verbatim to
 * shards: re-serializing through JsonWriter would round doubles to 12
 * significant digits, silently changing canonical keys, so the
 * original bytes are the only faithful representation. @p text must
 * be a batch document that parseBatchDocument() accepts (call it
 * first); malformed input returns nullopt.
 */
std::optional<std::vector<std::string>> splitBatchRequestTexts(
    const std::string &text);

/**
 * Splice "requestId": @p rid into the raw request text @p text without
 * re-serializing it (which would round doubles and change canonical
 * keys). The member is inserted immediately after the opening '{', so
 * a duplicate "requestId" later in the text wins under the parser's
 * last-occurrence rule — callers tag only requests that lack one.
 * Nullopt when @p text is not a JSON object.
 */
std::optional<std::string> injectRequestId(const std::string &text,
                                           const std::string &rid);

/**
 * The one workload-token parser ("mmm", "bs", "fft:N"), shared by
 * requests, sweep specs and CLI flags. N must be a power of two that
 * dev::MeasurementDb has a Core i7 entry for; nullopt (with
 * @p error) otherwise.
 */
std::optional<wl::Workload> parseWorkloadSpec(const std::string &spec,
                                              std::string *error);

/** Device name parser ("asic", "gtx285", ...); nullopt when unknown. */
std::optional<dev::DeviceId> parseDeviceName(const std::string &name);

} // namespace svc
} // namespace hcm

#endif // HCM_SVC_REQUEST_HH
