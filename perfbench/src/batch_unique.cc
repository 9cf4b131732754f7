/**
 * @file
 * batch-unique: a 20,000-query batch document, every canonical key
 * distinct (about 5x the engine's 4,096-entry cache, so the cache only
 * costs), run the way `hcm batch --results-only` runs it: document
 * parse -> QueryEngine::evaluateBatch -> {"results": [...]} rendered
 * into a file. Once on a 1-worker engine and once on a min(4, nproc)
 * worker engine, each freshly built.
 */

#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "mix.hh"
#include "svc/engine.hh"
#include "svc/request.hh"
#include "svc/service.hh"
#include "util/json_parse.hh"

namespace perfbench {
namespace {

using namespace hcm;

/** Error objects in a rendered results document. */
std::size_t
countErrors(const std::string &doc)
{
    std::size_t count = 0;
    for (std::size_t at = doc.find("{\"error\":"); at != std::string::npos;
         at = doc.find("{\"error\":", at + 1))
        ++count;
    return count;
}

class BatchUnique
{
  public:
    BatchUnique(const Options &opts, Report &report)
        : _opts(opts), _report(report),
          _texts(RequestGenerator(opts.seed).take(opts.tiny ? 200 : 20000)),
          _path1(opts.outDir + "/batch-1.json"),
          _pathN(opts.outDir + "/batch-n.json")
    {
        _doc = "[";
        for (std::size_t i = 0; i < _texts.size(); ++i)
            _doc += (i ? ",\n" : "\n") + _texts[i];
        _doc += "\n]\n";
        std::vector<const std::string *> stream;
        for (const std::string &t : _texts)
            stream.push_back(&t);
        recordMix(_report, "mix", stream);
    }

    void
    run()
    {
        for (int i = 0; i < kSetupReps; ++i)
            makeEngine(_opts.workers, _setup);
        repeatFor(_opts.seconds, [this] {
            _rss.begin();
            batchToFile(1, _path1, _wall1, _cpu1);
            batchToFile(_opts.workers, _pathN, _wallN, _cpuN);
            _rss.end();
            if (_opts.trace) {
                traced(1);
                traced(_opts.workers);
            }
        });

        std::size_t n = _texts.size();
        if (_opts.trace) {
            reportLayers();
        } else {
            _report.metric("setup_s", _setup.median(), "s", _setup.count());
            _rss.report(_report);
            _report.metric("primary_ms", _wall1.median() * 1e3, "ms",
                           _wall1.count(), "batch_qps_1t = queries / wall");
            _report.metric("secondary_ms", _cpuN.median() * 1e3, "ms",
                           _cpuN.count(),
                           "process CPU time at min(4, nproc) workers "
                           "(batch_qps_4t: batch.qps_4t)");
            _report.property("batch.qps_1t", n / _wall1.median());
            _report.property("batch.qps_4t", n / _wallN.median());
            _report.property("batch.cpu_1t_ms", _cpu1.median() * 1e3);
            _report.property("batch.setup_1w_s", _setup1.median());
        }
        _report.property("batch.workers", static_cast<double>(_opts.workers));
        checkGates();
    }

  private:
    /**
     * Where the set-up time of a @p workers-worker engine goes. setup_s
     * covers the min(4, nproc)-worker engine alone: a mix of 1-worker
     * and N-worker constructions would put the median wherever the
     * number of passes in the run left it.
     */
    Samples &
    setupOf(std::size_t workers)
    {
        return workers == _opts.workers ? _setup : _setup1;
    }

    /**
     * One untraced batch, document parse to results file closed; adds
     * its wall time to @p wall and its process CPU time to @p cpu.
     */
    void
    batchToFile(std::size_t workers, const std::string &path, Samples &wall,
                Samples &cpu)
    {
        auto engine = makeEngine(workers, setupOf(workers));
        double cpu0 = processCpuSeconds();
        Clock::time_point t0 = Clock::now();
        std::ofstream file(path);
        std::string error;
        if (!svc::runBatch(_doc, *engine, file, &error, true))
            throw std::runtime_error("batch document rejected: " + error);
        file.close();
        if (!file)
            throw std::runtime_error("batch: cannot write output");
        wall.add(secondsSince(t0));
        cpu.add(processCpuSeconds() - cpu0);
    }

    /** The same batch with a span around each layer call. */
    void
    traced(std::size_t workers)
    {
        auto engine = makeEngine(workers, setupOf(workers));
        Clock::time_point t0 = Clock::now();
        std::string error;
        auto queries = svc::parseBatchDocument(_doc, &error);
        if (!queries)
            throw std::runtime_error("batch document rejected: " + error);
        Clock::time_point t1 = Clock::now();
        std::vector<svc::QueryEngine::ResultPtr> results =
            engine->evaluateBatch(*queries);
        Clock::time_point t2 = Clock::now();
        std::ostringstream out;
        {
            JsonWriter json(out);
            json.beginObject();
            json.key("results").beginArray();
            for (const auto &result : results)
                result->writeJson(json);
            json.endArray();
            json.endObject();
        }
        out << "\n";
        std::string bytes = out.str();
        Clock::time_point t3 = Clock::now();
        writeFile(_opts.outDir + "/batch-traced.json", bytes);
        Clock::time_point t4 = Clock::now();

        double wall = secondsBetween(t0, t4);
        double parse = secondsBetween(t0, t1);
        double eval = secondsBetween(t1, t2);
        double render = secondsBetween(t2, t3);
        double write = secondsBetween(t3, t4);
        (workers == 1 ? _traced1 : _tracedN).add(wall);
        (workers == 1 ? _engine1 : _engineN).add(eval);
        _parse.add(parse);
        _render.add(render);
        _write.add(write);
        _untraced.add((wall - parse - eval - render - write) / wall);
        _outBytes = bytes.size();
        if (workers == 1)
            _cache = engine->cacheStats();
        _tracedOut = std::move(bytes);
    }

    /** Sub-layer probes, run once outside every timed window. */
    void
    reportLayers()
    {
        Clock::time_point t0 = Clock::now();
        auto doc = JsonValue::parse(_doc);
        double jsonParse = secondsSince(t0);
        if (!doc)
            throw std::runtime_error("batch document is not JSON");

        std::string error;
        auto queries = svc::parseBatchDocument(_doc, &error);
        std::size_t keyBytes = 0;
        t0 = Clock::now();
        for (const svc::Query &q : *queries)
            keyBytes += q.canonicalKey().size();
        double keys = secondsSince(t0);
        t0 = Clock::now();
        for (const svc::Query &q : *queries)
            svc::evaluateQuery(q);
        double model = secondsSince(t0);
        std::size_t n = queries->size();

        _report.metric("util.json_parse_s", jsonParse, "s", 1);
        _report.metric("svc.parse_batch_s", _parse.mean(), "s", _parse.count());
        _report.metric("svc.key_us", keys / n * 1e6, "us", n);
        _report.metric("svc.engine_1t_s", _engine1.mean(), "s",
                       _engine1.count());
        _report.metric("svc.engine_4t_s", _engineN.mean(), "s",
                       _engineN.count());
        _report.metric("svc.model_s", model, "s", n);
        _report.metric("svc.render_s", _render.mean(), "s", _render.count());
        _report.metric("svc.write_s", _write.mean(), "s", _write.count());
        _report.metric("svc.out_bytes", static_cast<double>(_outBytes),
                       "bytes", 1);
        _report.metric("svc.cache_hit_ratio", _cache.hitRate(), "ratio",
                       _cache.lookups());
        _report.metric("svc.cache_evictions",
                       static_cast<double>(_cache.evictions), "count", 1);
        _report.metric("untraced_share", _untraced.mean(), "ratio",
                       _untraced.count());
        double traced = _traced1.median() + _tracedN.median();
        double untraced = _wall1.median() + _wallN.median();
        _report.metric("trace_overhead_share", traced / untraced - 1.0,
                       "ratio", _traced1.count() + _wall1.count());
        _report.property("svc.key_bytes_mean",
                         static_cast<double>(keyBytes) / n);
    }

    /**
     * The multi-worker output must equal the 1-worker output byte for
     * byte (and so must the traced path's), and no result may be an
     * error object.
     */
    void
    checkGates()
    {
        std::string one = readFile(_path1);
        std::string many = readFile(_pathN);
        std::string want = expectedFor(_opts, "batch.workers", one);
        std::size_t diff = firstDifference(many, want);
        if (diff == std::string::npos && _opts.trace)
            diff = firstDifference(_tracedOut, want);
        _report.gate("batch.workers", diff == std::string::npos,
                     _texts.size(),
                     "outputs differ from the 1-worker output at byte " +
                         std::to_string(diff));

        if (_opts.corrupt == "batch.no_errors")
            one.insert(one.find('[') + 1, "{\"error\":\"corrupted\"},");
        // Every pass answers the same document, so the last pair's
        // outputs stand for all of them.
        std::size_t checked = 2 * _texts.size();
        std::size_t errors = countErrors(one) + countErrors(many);
        _report.gate("batch.no_errors", errors == 0, checked,
                     std::to_string(errors) + " error results");
        _report.attempt(checked, errors);
        if (_opts.trace)
            _report.metric("failed_ratio",
                           static_cast<double>(errors) / checked, "ratio",
                           checked);
    }

    const Options &_opts;
    Report &_report;
    std::vector<std::string> _texts;
    std::string _doc;
    std::string _path1, _pathN;
    RssWindows _rss;
    Samples _setup, _setup1, _wall1, _wallN, _cpu1, _cpuN, _traced1, _tracedN;
    Samples _engine1, _engineN, _parse, _render, _write, _untraced;
    std::size_t _outBytes = 0;
    svc::CacheStats _cache;
    std::string _tracedOut;
};

} // namespace

void
runBatchUnique(const Options &opts, Report &report)
{
    BatchUnique(opts, report).run();
}

} // namespace perfbench
