/**
 * @file
 * Seeded request generator. It writes svc wire-format request texts
 * over the measurement DB's valid workloads only (mmm, bs, fft:64,
 * fft:1024, fft:16384), so no generated request can fail.
 */

#ifndef PERFBENCH_MIX_HH
#define PERFBENCH_MIX_HH

#include <cstddef>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.hh"

namespace perfbench {

/** Query types a generator draws. */
enum class TypeMix {
    Mixed,        ///< 70/15/10/5 optimize/energy/projection/pareto
    OptimizeOnly, ///< the cheapest query, for load at a fixed rate
};

/** Produces request texts, never the same computation twice. */
class RequestGenerator
{
  public:
    explicit RequestGenerator(std::uint64_t seed,
                              TypeMix mix = TypeMix::Mixed)
        : _rng(seed), _mix(mix)
    {
    }

    /** A request whose identity no earlier call returned. */
    std::string next();
    /** @p n fresh requests. */
    std::vector<std::string> take(std::size_t n);

  private:
    Rng _rng;
    TypeMix _mix;
    std::unordered_set<std::string> _seen;
};

/**
 * @p count indices into [0, @p distinct), drawn Zipf(s) by rank: index
 * k is drawn with weight 1 / (k + 1)^s.
 */
std::vector<std::size_t> zipfIndices(Rng &rng, std::size_t distinct,
                                     std::size_t count, double s);

/**
 * Record a request stream's measured properties: requests, distinct
 * canonical keys (as the program computes them), the share of each
 * query type, and distinct keys over the engine cache capacity.
 * Returns the distinct key count.
 */
std::size_t recordMix(Report &report, const std::string &prefix,
                      const std::vector<const std::string *> &stream);

/** FNV-1a 64 of @p s (reply fingerprints for the fleet gate). */
std::uint64_t fingerprint(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_MIX_HH
