#include "export.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/bounds.hh"
#include "obs/trace.hh"
#include "util/csv.hh"
#include "util/format.hh"
#include "util/json.hh"

namespace hcm {
namespace sweep {

namespace {

/** Rows per formatted block: the unit of work and of each write. */
constexpr std::size_t kBlockRows = 64;

/**
 * Capacity reserved per block buffer. A 64-row block of the Table 6
 * nodes is about 52 KiB of CSV and 74 KiB of JSON, so dense sweeps
 * never grow a buffer on a formatting thread.
 */
constexpr std::size_t kBlockReserve = 96 * 1024;

/**
 * A cache line on x86-64 and most AArch64 cores, spelled out: GCC warns
 * that std::hardware_destructive_interference_size may differ between
 * compiler versions and flags.
 */
constexpr std::size_t kCacheLine = 64;

constexpr int kCsvDigits = 17; ///< round-trips every double
constexpr int kJsonDigits = 12; ///< JsonWriter::value(double)

void
appendInteger(std::string &out, long long v)
{
    char text[24];
    out.append(text, std::to_chars(text, text + sizeof(text), v).ptr);
}

/**
 * Node labels formatted and escaped once per formatter instead of once
 * per cell (NodeParams::label() goes through snprintf). Keyed on the
 * node's bits, so a hand-built cell outside Table 6 still gets its own
 * label. Table 6 is labelled up front, on the thread that builds the
 * formatter.
 */
class NodeLabels
{
  public:
    explicit NodeLabels(std::string (*escape)(const std::string &))
        : _escape(escape)
    {
        _entries.reserve(2 * itrs::nodeTable().size());
        for (const itrs::NodeParams &node : itrs::nodeTable())
            (*this)(node);
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

/**
 * Budget cells formatted once per distinct (area, power, bandwidth)
 * instead of once per cell: a budget depends only on (node, workload,
 * scenario), so every organization and fraction repeats it. Keyed on
 * the printed fields' bits, like NodeLabels. The memo lives in a
 * buffer allocated with the formatter, on the calling thread: any
 * allocation on a formatting thread opens a malloc arena for it, which
 * raised the sweep's peak RSS.
 */
class BudgetTexts
{
  public:
    explicit BudgetTexts(void (*print)(std::string &, const core::Budget &))
        : _print(print)
    {
        _scratch.reserve(128);
    }

    std::string_view
    operator()(const core::Budget &budget)
    {
        Key key{std::bit_cast<std::uint64_t>(budget.area),
                std::bit_cast<std::uint64_t>(budget.power),
                std::bit_cast<std::uint64_t>(budget.bandwidth)};
        auto [it, inserted] = _texts.try_emplace(key);
        if (inserted) {
            _scratch.clear();
            _print(_scratch, budget);
            it->second.assign(_scratch);
        }
        return it->second;
    }

  private:
    struct Key
    {
        std::uint64_t area, power, bandwidth;
        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            std::uint64_t h = k.area * 0x9e3779b97f4a7c15ull ^
                              k.power * 0xc2b2ae3d27d4eb4full ^
                              k.bandwidth * 0x165667b19e3779f9ull;
            return static_cast<std::size_t>(h ^ (h >> 29));
        }
    };

    /**
     * Twice what the distinct budgets of a dense sweep (every DB
     * workload x every scenario) take in either format; past it the
     * memo falls back to the heap.
     */
    static constexpr std::size_t kMemoBytes = 64 * 1024;

    void (*_print)(std::string &, const core::Budget &);
    std::unique_ptr<std::byte[]> _memory =
        std::make_unique_for_overwrite<std::byte[]>(kMemoBytes);
    std::pmr::monotonic_buffer_resource _pool{_memory.get(), kMemoBytes};
    std::pmr::unordered_map<Key, std::pmr::string, KeyHash> _texts{&_pool};
    std::string _scratch;
};

/** A JSON string literal: quotes around JsonWriter::escape. */
std::string
jsonString(const std::string &s)
{
    return '"' + JsonWriter::escape(s) + '"';
}

/** A JSON number the way JsonWriter prints it: null when non-finite. */
void
jsonNumber(std::string &out, double v)
{
    if (std::isfinite(v))
        appendDouble(out, v, kJsonDigits);
    else
        out += "null";
}

/** The CSV block formatter: rows [begin, end) as CSV lines. */
class CsvRows
{
  public:
    static constexpr const char *kFormat = "csv";

    CsvRows() { _prefix.reserve(256); }

    void
    operator()(std::string &out, const std::vector<SweepRow> &rows,
               std::size_t begin, std::size_t end)
    {
        for (std::size_t ri = begin; ri < end; ++ri) {
            const SweepRow &row = rows[ri];
            // The first five cells are the row's, shared by its node
            // lines.
            _prefix.clear();
            _prefix += CsvWriter::escape(row.workload);
            _prefix += ',';
            appendDouble(_prefix, row.f, kCsvDigits);
            _prefix += ',';
            _prefix += CsvWriter::escape(row.scenario);
            _prefix += ',';
            _prefix += CsvWriter::escape(row.organization);
            _prefix += ',';
            appendInteger(_prefix, row.paperIndex);
            _prefix += ',';
            for (const SweepCell &cell : row.cells) {
                out += _prefix;
                out += _labels(cell.node);
                out += ',';
                appendInteger(out, cell.node.year);
                if (cell.design.feasible) {
                    out += ",1,";
                    appendDouble(out, cell.design.r, kCsvDigits);
                    out += ',';
                    appendDouble(out, cell.design.n, kCsvDigits);
                    out += ',';
                    appendDouble(out, cell.design.speedup, kCsvDigits);
                    out += ',';
                    out += core::limiterName(cell.design.limiter);
                    out += ',';
                    appendDouble(out, cell.energyNormalized, kCsvDigits);
                    out += ',';
                } else {
                    out += ",0,,,,,,";
                }
                out += _budgets(cell.budget);
            }
        }
    }

  private:
    static void
    printBudget(std::string &out, const core::Budget &b)
    {
        appendDouble(out, b.area, kCsvDigits);
        out += ',';
        appendDouble(out, b.power, kCsvDigits);
        out += ',';
        appendDouble(out, b.bandwidth, kCsvDigits);
        out += '\n';
    }

    NodeLabels _labels{&CsvWriter::escape};
    BudgetTexts _budgets{&printBudget};
    std::string _prefix;
};

/** The JSON block formatter: rows [begin, end) as "rows" elements. */
class JsonRows
{
  public:
    static constexpr const char *kFormat = "json";

    void
    operator()(std::string &out, const std::vector<SweepRow> &rows,
               std::size_t begin, std::size_t end)
    {
        for (std::size_t ri = begin; ri < end; ++ri) {
            const SweepRow &row = rows[ri];
            out += ri > 0 ? ",{\"workload\":" : "{\"workload\":";
            out += jsonString(row.workload);
            out += ",\"f\":";
            jsonNumber(out, row.f);
            out += ",\"scenario\":";
            out += jsonString(row.scenario);
            out += ",\"organization\":";
            out += jsonString(row.organization);
            out += ",\"paperIndex\":";
            appendInteger(out, row.paperIndex);
            out += ",\"points\":[";
            for (std::size_t ci = 0; ci < row.cells.size(); ++ci) {
                const SweepCell &cell = row.cells[ci];
                out += ci > 0 ? ",{\"node\":" : "{\"node\":";
                out += _labels(cell.node);
                out += ",\"year\":";
                appendInteger(out, cell.node.year);
                if (cell.design.feasible) {
                    out += ",\"feasible\":true,\"r\":";
                    jsonNumber(out, cell.design.r);
                    out += ",\"n\":";
                    jsonNumber(out, cell.design.n);
                    out += ",\"speedup\":";
                    jsonNumber(out, cell.design.speedup);
                    out += ",\"limiter\":\"";
                    out += core::limiterName(cell.design.limiter);
                    out += "\",\"energyNormalized\":";
                    jsonNumber(out, cell.energyNormalized);
                } else {
                    out += ",\"feasible\":false";
                }
                out += _budgets(cell.budget);
            }
            out += "]}";
        }
    }

  private:
    static void
    printBudget(std::string &out, const core::Budget &b)
    {
        out += ",\"budget\":{\"area\":";
        jsonNumber(out, b.area);
        out += ",\"power\":";
        jsonNumber(out, b.power);
        out += ",\"bandwidth\":";
        jsonNumber(out, b.bandwidth);
        out += "}}";
    }

    NodeLabels _labels{&jsonString};
    BudgetTexts _budgets{&printBudget};
};

/**
 * The blocks in flight between the formatting threads and the writing
 * caller. Block b lives in slot b % slots.size() and may be claimed
 * only once block b - slots.size() is written, so at most
 * slots.size() blocks are ever buffered. Every field is guarded by mu.
 */
struct BlockRing
{
    /**
     * One cache line or more per slot: a formatting thread appends to
     * its slot's string without the lock, and each append rewrites the
     * string's size field. Packed, neighbouring slots' headers shared a
     * line, and every append invalidated it under the other threads: at
     * 4 jobs on a 4-CPU x86-64 VM each thread took about 20 ms for its
     * quarter of a dense sweep's blocks instead of 12 ms.
     */
    struct alignas(kCacheLine) Slot
    {
        std::string text;
        bool ready = false; ///< holds a formatted block not yet written
    };
    static_assert(sizeof(Slot) % kCacheLine == 0 &&
                  alignof(Slot) >= kCacheLine);

    BlockRing(const std::vector<SweepRow> &rows, std::size_t blocks,
              std::size_t slot_count)
        : rows(rows), blocks(blocks), slots(slot_count)
    {
    }

    /** The next block's slot is free and there is a block left. */
    bool
    claimable() const
    {
        return claimed < blocks && claimed < written + slots.size();
    }

    /**
     * Claim the next block and format it with @p format while @p lock
     * is released; false when there is nothing to claim now.
     */
    template <class Rows>
    bool
    formatNext(std::unique_lock<std::mutex> &lock, Rows &format)
    {
        if (!claimable())
            return false;
        std::size_t b = claimed++;
        Slot &slot = slots[b % slots.size()];
        lock.unlock();
        slot.text.clear();
        format(slot.text, rows, b * kBlockRows,
               std::min(rows.size(), (b + 1) * kBlockRows));
        lock.lock();
        slot.ready = true;
        return true;
    }

    const std::vector<SweepRow> &rows;
    const std::size_t blocks;
    std::mutex mu;
    std::condition_variable changed;
    std::vector<Slot> slots;
    std::size_t claimed = 0; ///< blocks handed to a formatting thread
    std::size_t written = 0; ///< blocks the caller has written
    bool stop = false;
    std::exception_ptr error; ///< the first formatting thread's failure
};

/**
 * A formatting thread: format blocks with its own @p format until none
 * is left or the export stops. The first exception stops every thread
 * and is kept for the caller.
 */
template <class Rows>
void
formatBlocks(BlockRing &ring, Rows &format)
{
    std::unique_lock<std::mutex> lock(ring.mu);
    try {
        while (!ring.stop && ring.claimed < ring.blocks) {
            if (ring.formatNext(lock, format))
                ring.changed.notify_all();
            else
                ring.changed.wait(lock);
        }
    } catch (...) {
        if (!lock.owns_lock())
            lock.lock();
        if (!ring.error)
            ring.error = std::current_exception();
        ring.stop = true;
        ring.changed.notify_all();
    }
}

/** Joins the formatting threads on every exit path, after a stop. */
class FormatThreads
{
  public:
    explicit FormatThreads(BlockRing &ring) : _ring(ring) {}

    template <class Fn>
    void
    spawn(Fn fn)
    {
        _threads.emplace_back(std::move(fn));
    }

    ~FormatThreads()
    {
        {
            std::lock_guard<std::mutex> lock(_ring.mu);
            _ring.stop = true;
        }
        _ring.changed.notify_all();
        for (std::thread &t : _threads)
            t.join();
    }

    FormatThreads(const FormatThreads &) = delete;
    FormatThreads &operator=(const FormatThreads &) = delete;

  private:
    BlockRing &_ring;
    std::vector<std::thread> _threads;
};

/**
 * Both drivers: @p head, the rows in kBlockRows blocks, then @p tail.
 * The calling thread writes the blocks in row order and, whenever the
 * next one is not ready, formats the next unclaimed block itself; with
 * result.jobs > 1 and more than one block, jobs - 1 more threads
 * format blocks alongside it. So there is one code path for every job
 * count, and the export never waits for a block that no running
 * thread holds.
 */
template <class Rows>
void
exportRows(std::ostream &out, const SweepResult &result,
           std::string_view head, std::string_view tail)
{
    obs::Span span("sweep.export", "sweep");
    span.arg("format", Rows::kFormat);
    std::size_t blocks = (result.rows.size() + kBlockRows - 1) / kBlockRows;
    std::size_t jobs =
        result.jobs > 1 && blocks > 1 ? std::min(result.jobs, blocks) : 1;
    span.arg("jobs", jobs);
    span.arg("blocks", blocks);

    std::size_t bytes = 0;
    auto write = [&](std::string_view text) {
        out.write(text.data(), static_cast<std::streamsize>(text.size()));
        bytes += text.size();
    };
    write(head);

    // Every buffer and formatter is allocated here, on the calling
    // thread: allocated on a formatting thread, it came from that
    // thread's malloc arena and raised the peak RSS.
    BlockRing ring(result.rows, blocks, jobs == 1 ? 1 : 2 * jobs);
    for (BlockRing::Slot &slot : ring.slots)
        slot.text.reserve(kBlockReserve);
    std::unique_ptr<Rows[]> formats = std::make_unique<Rows[]>(jobs);
    Rows &format = formats[0];
    {
        FormatThreads threads(ring);
        for (std::size_t j = 1; j < jobs; ++j)
            threads.spawn([&ring, &mine = formats[j]] {
                formatBlocks(ring, mine);
            });
        std::unique_lock<std::mutex> lock(ring.mu);
        while (ring.written < blocks && !ring.error) {
            BlockRing::Slot &next =
                ring.slots[ring.written % ring.slots.size()];
            if (next.ready) {
                lock.unlock();
                write(next.text);
                lock.lock();
                next.ready = false;
                ++ring.written;
                ring.changed.notify_all();
            } else if (!ring.formatNext(lock, format)) {
                ring.changed.wait(lock);
            }
        }
    }
    // The threads are joined: ring.error is settled.
    if (ring.error)
        std::rethrow_exception(ring.error);

    write(tail);
    span.arg("bytes", bytes);
}

} // namespace

void
writeSweepCsv(std::ostream &out, const SweepResult &result)
{
    exportRows<CsvRows>(out, result,
                        "workload,f,scenario,organization,paperIndex,"
                        "node,year,feasible,r,n,speedup,limiter,"
                        "energyNormalized,budgetArea,budgetPower,"
                        "budgetBandwidth\n",
                        "");
}

void
writeSweepJson(std::ostream &out, const SweepResult &result)
{
    std::string tail = "],\"units\":";
    appendInteger(tail, static_cast<long long>(result.units));
    tail += ",\"jobs\":";
    appendInteger(tail, static_cast<long long>(result.jobs));
    tail += "}\n";
    exportRows<JsonRows>(out, result, "{\"rows\":[", tail);
}

} // namespace sweep
} // namespace hcm
