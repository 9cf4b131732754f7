#include "mix.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "svc/engine.hh"
#include "svc/request.hh"

namespace perfbench {
namespace {

const char *const kWorkloads[] = {"mmm", "bs", "fft:64", "fft:1024",
                                  "fft:16384"};
const char *const kScenarios[] = {
    "baseline",   "bandwidth-90", "bandwidth-1tb", "half-area",
    "power-200w", "power-10w",    "alpha-2.25",    "multi-amdahl",
    "thermal-85c", "thermal-3d"};
const char *const kNodes[] = {"40", "32", "22", "16", "11"};
const char *const kDevices[] = {"gtx285", "gtx480", "r5870", "lx760",
                                "asic"};

template <typename T, std::size_t N>
const T &
pick(Rng &rng, const T (&items)[N])
{
    return items[rng.below(N)];
}

} // namespace

std::string
RequestGenerator::next()
{
    for (;;) {
        std::size_t roll = _mix == TypeMix::Mixed ? _rng.below(100) : 0;
        const char *type = roll < 70   ? "optimize"
                           : roll < 85 ? "energy"
                           : roll < 95 ? "projection"
                                       : "pareto";
        const char *workload = pick(_rng, kWorkloads);
        // f on a 1e-6 grid: exact in the text, and 10^6 + 1 values keep
        // the identity space far larger than any run draws.
        std::size_t micro = _rng.below(1000001);
        const char *scenario = pick(_rng, kScenarios);
        const char *node = pick(_rng, kNodes);
        const char *device = _rng.below(5) == 0 ? pick(_rng, kDevices) : "";
        bool projection = type[0] == 'p' && type[1] == 'r';

        char f[16];
        if (micro == 1000000)
            std::snprintf(f, sizeof f, "1");
        else
            std::snprintf(f, sizeof f, "0.%06zu", micro);
        std::string text = std::string("{\"type\":\"") + type +
                           "\",\"workload\":\"" + workload + "\",\"f\":" + f +
                           ",\"scenario\":\"" + scenario + "\"";
        // Projection spans every node, so the node is no part of its
        // identity; leave it out rather than draw duplicates.
        if (!projection)
            text += std::string(",\"node\":") + node;
        if (*device)
            text += std::string(",\"device\":\"") + device + "\"";
        text += "}";
        if (_seen.insert(text).second)
            return text;
    }
}

std::vector<std::string>
RequestGenerator::take(std::size_t n)
{
    std::vector<std::string> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(next());
    return out;
}

std::vector<std::size_t>
zipfIndices(Rng &rng, std::size_t distinct, std::size_t count, double s)
{
    std::vector<double> cdf(distinct);
    double total = 0.0;
    for (std::size_t k = 0; k < distinct; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf[k] = total;
    }
    std::vector<std::size_t> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        double u = rng.unit() * total;
        auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
        out.push_back(std::min<std::size_t>(it - cdf.begin(), distinct - 1));
    }
    return out;
}

std::size_t
recordMix(Report &report, const std::string &prefix,
          const std::vector<const std::string *> &stream)
{
    std::unordered_set<std::string> keys;
    std::map<std::string, std::size_t> types;
    for (const std::string *text : stream) {
        hcm::svc::RequestParse parsed = hcm::svc::parseQueryRequestText(*text);
        if (!parsed.ok)
            throw std::runtime_error("generated request does not parse: " +
                                     parsed.error);
        keys.insert(parsed.query.canonicalKey());
        ++types[hcm::svc::queryTypeName(parsed.query.type)];
    }
    double n = static_cast<double>(stream.size());
    report.property(prefix + ".requests", n);
    report.property(prefix + ".distinct_keys",
                    static_cast<double>(keys.size()));
    report.property(prefix + ".working_set_ratio",
                    static_cast<double>(keys.size()) /
                        static_cast<double>(
                            hcm::svc::EngineOptions{}.cacheCapacity));
    for (hcm::svc::QueryType type : hcm::svc::allQueryTypes()) {
        std::string name = hcm::svc::queryTypeName(type);
        report.property(prefix + ".share_" + name,
                        static_cast<double>(types[name]) / n);
    }
    return keys.size();
}

std::uint64_t
fingerprint(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace perfbench
