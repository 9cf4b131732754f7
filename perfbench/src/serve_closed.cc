/**
 * @file
 * serve-closed: one client, one request at a time, through
 * svc::RequestRouter::route — the dispatch path `hcm serve` shares
 * between stdin and TCP — on a min(4, nproc)-worker engine. 20,000
 * requests drawn Zipf(s = 1) from 2,000 distinct queries: the working
 * set fits the cache, so most requests hit, and each miss crosses the
 * worker-pool handoff with nothing else in flight. Every pass starts
 * from a fresh engine, so its hit count is exact per seed.
 */

#include <memory>
#include <stdexcept>

#include "bench.hh"
#include "mix.hh"
#include "obs/request_id.hh"
#include "svc/engine.hh"
#include "svc/request.hh"
#include "svc/router.hh"

namespace perfbench {
namespace {

using namespace hcm;

class ServeClosed
{
  public:
    ServeClosed(const Options &opts, Report &report)
        : _opts(opts), _report(report)
    {
        std::size_t distinct = opts.tiny ? 50 : 2000;
        std::size_t requests = opts.tiny ? 300 : 20000;
        _texts = RequestGenerator(opts.seed).take(distinct);
        Rng rng(opts.seed ^ 0x21bfull);
        _sequence = zipfIndices(rng, distinct, requests, 1.0);
        std::vector<const std::string *> stream;
        for (std::size_t i : _sequence)
            stream.push_back(&_texts[i]);
        _distinct = recordMix(_report, "mix", stream);
        // A fresh engine holds every distinct query (no eviction at this
        // working set), so exactly the first use of each one misses.
        std::vector<char> seen(distinct, 0);
        for (std::size_t i : _sequence) {
            _firstUse.push_back(!seen[i]);
            seen[i] = 1;
        }
        _repeats = _sequence.size() - _distinct;

        // What each request must answer: the direct evaluateQuery render.
        for (const std::string &text : _texts) {
            svc::RequestParse parsed = svc::parseQueryRequestText(text);
            _expected.push_back(svc::evaluateQuery(parsed.query).toJson());
        }
        std::string &first = _expected[_sequence[0]];
        first = expectedFor(_opts, "serve.replies", first);
    }

    void
    run()
    {
        for (int i = 0; i < kSetupReps; ++i)
            makeEngine(_opts.workers, _setup);
        repeatFor(_opts.seconds, [this] {
            untracedPass();
            if (_opts.trace)
                tracedPass();
        });

        if (_opts.trace) {
            reportLayers();
        } else {
            _report.metric("setup_s", _setup.median(), "s", _setup.count());
            _rss.report(_report);
            _report.metric("primary_ms", _latency.median() * 1e3, "ms",
                           _latency.count(), "serve_p50_us / 1000");
            _report.metric("secondary_ms", _missCpu.median() * 1e3, "ms",
                           _missCpu.count(),
                           "process CPU time per miss, median (serve_p99_us: "
                           "serve.p99_us)");
        }
        _report.property("serve.miss_p50_us", _missLatency.median() * 1e6);
        _report.property("serve.p99_us", _latency.quantile(0.99) * 1e6);
        _report.property("serve.hit_p50_us", _hitLatency.median() * 1e6);
        _report.property("serve.hit_ratio",
                         static_cast<double>(_repeats) / _sequence.size());
        _report.gate("serve.replies", _mismatched == 0, _attempted,
                     std::to_string(_mismatched) +
                         " replies differ from the direct evaluateQuery "
                         "render, first at request " +
                         std::to_string(_firstMismatch));
        _report.gate("serve.cache_hits", _hitCountsExact, _passes,
                     "engine cache hits differ from the repeated requests");
        _report.attempt(_attempted, _failed);
    }

  private:
    void
    check(std::size_t i, const std::string &body, bool served)
    {
        ++_attempted;
        if (!served)
            ++_failed;
        if (body != _expected[_sequence[i]]) {
            if (_mismatched == 0)
                _firstMismatch = i;
            ++_mismatched;
        }
    }

    void
    noteHits(const svc::QueryEngine &engine)
    {
        if (engine.cacheStats().hits != _repeats)
            _hitCountsExact = false;
        ++_passes;
    }

    /** One pass of the request sequence, each request timed. */
    void
    untracedPass()
    {
        _rss.begin();
        auto engine = makeEngine(_opts.workers, _setup);
        svc::RequestRouter router(*engine);
        for (std::size_t i = 0; i < _sequence.size(); ++i) {
            const std::string &text = _texts[_sequence[i]];
            // Misses are known in advance, so only they pay for the
            // CPU clock reads, outside the latency window.
            double cpu0 = _firstUse[i] ? processCpuSeconds() : 0.0;
            Clock::time_point t0 = Clock::now();
            svc::RouteReply reply = router.route(text);
            double latency = secondsSince(t0);
            _latency.add(latency);
            if (_firstUse[i]) {
                _missCpu.add(processCpuSeconds() - cpu0);
                _missLatency.add(latency);
            } else {
                _hitLatency.add(latency);
            }
            check(i, reply.body, reply.served == 1);
        }
        _rss.end();
        noteHits(*engine);
    }

    /**
     * The same pass with spans around route()'s steps: parse, engine
     * (split into hits and misses), render. The key and the bare model
     * are timed after each request, outside its window.
     */
    void
    tracedPass()
    {
        auto engine = makeEngine(_opts.workers, _setup);
        for (std::size_t i = 0; i < _sequence.size(); ++i) {
            const std::string &text = _texts[_sequence[i]];
            Clock::time_point t0 = Clock::now();
            svc::RequestParse parsed = svc::parseQueryRequestText(text);
            Clock::time_point t1 = Clock::now();
            if (parsed.query.requestId.empty())
                parsed.query.requestId = obs::mintRequestId();
            Clock::time_point t2 = Clock::now();
            svc::QueryEngine::ResultPtr result = engine->evaluate(parsed.query);
            Clock::time_point t3 = Clock::now();
            std::string body = result->toJson();
            Clock::time_point t4 = Clock::now();
            bool hit = !_firstUse[i];

            double wall = secondsBetween(t0, t4);
            double spans = secondsBetween(t0, t1) + secondsBetween(t2, t4);
            _tracedWall.add(wall);
            _untracedSum += wall - spans;
            _wallSum += wall;
            _parse.add(secondsBetween(t0, t1));
            (hit ? _engineHit : _engineMiss).add(secondsBetween(t2, t3));
            _render.add(secondsBetween(t3, t4));

            Clock::time_point k0 = Clock::now();
            std::string key = parsed.query.canonicalKey();
            _key.add(secondsSince(k0));
            if (!hit) {
                Clock::time_point m0 = Clock::now();
                svc::evaluateQuery(parsed.query);
                _model.add(secondsSince(m0));
            }
            check(i, body, result->ok());
        }
        noteHits(*engine);
        _tracedHitRatio = engine->cacheStats().hitRate();
    }

    void
    reportLayers()
    {
        _report.metric("svc.parse_us", _parse.mean() * 1e6, "us",
                       _parse.count());
        _report.metric("svc.key_us", _key.mean() * 1e6, "us", _key.count());
        _report.metric("svc.render_us", _render.mean() * 1e6, "us",
                       _render.count());
        _report.metric("svc.engine_hit_us", _engineHit.mean() * 1e6, "us",
                       _engineHit.count());
        _report.metric("svc.engine_miss_us", _engineMiss.mean() * 1e6, "us",
                       _engineMiss.count());
        _report.metric("svc.model_us", _model.mean() * 1e6, "us",
                       _model.count());
        _report.metric("svc.cache_hit_ratio", _tracedHitRatio, "ratio",
                       _sequence.size());
        _report.metric("untraced_share", _untracedSum / _wallSum, "ratio",
                       _tracedWall.count());
        _report.metric("trace_overhead_share",
                       _tracedWall.mean() / _latency.mean() - 1.0, "ratio",
                       _tracedWall.count() + _latency.count());
        _report.metric("failed_ratio",
                       static_cast<double>(_failed) / _attempted, "ratio",
                       _attempted);
    }

    const Options &_opts;
    Report &_report;
    std::vector<std::string> _texts;
    std::vector<std::size_t> _sequence;
    std::vector<std::string> _expected;
    std::size_t _distinct = 0;
    std::vector<char> _firstUse;
    std::size_t _repeats = 0;
    Samples _setup, _latency, _hitLatency, _missLatency, _missCpu,
        _tracedWall;
    RssWindows _rss;
    Samples _parse, _key, _render, _engineHit, _engineMiss, _model;
    double _untracedSum = 0, _wallSum = 0;
    std::size_t _attempted = 0, _failed = 0, _mismatched = 0;
    std::size_t _firstMismatch = 0, _passes = 0;
    double _tracedHitRatio = 0;
    bool _hitCountsExact = true;
};

} // namespace

void
runServeClosed(const Options &opts, Report &report)
{
    ServeClosed(opts, report).run();
}

} // namespace perfbench
