/**
 * @file
 * perfbench: one workload per invocation.
 *
 *   perfbench --workload <sweep-dense|batch-unique|serve-closed|fleet-open>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>] [--tiny] [--corrupt <gate>]
 *
 * Prints one JSON report line: correct/attempted/failed, every metric
 * with its unit, sample count and workload alias, the generated
 * inputs' properties, and every correctness gate. Exit status 0 when
 * every gate passed, 1 when one failed, 2 on a usage or run error.
 * perfbench/run.py builds and wraps this binary.
 */

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include <csignal>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "util/logging.hh"

namespace {

using perfbench::Options;
using perfbench::Report;

/**
 * Keeps every CPU busy at idle priority while it lives: one process of
 * SCHED_IDLE threads that spin, forked before the workload starts any
 * thread, killed and reaped by the destructor, and killed by the
 * kernel if this process dies first. On a virtual machine a request
 * that wakes a thread on an idle vCPU pays for the hypervisor's halt
 * and wake-up, and how much depended on the other guests' load: with
 * three busy loops running beside it, serve-closed's CPU time per miss
 * fell from 131 to 75 us and fleet-open's p10 from 428 to 264 us. A
 * spinning vCPU never halts, and a woken thread preempts an idle-policy
 * one at once. The spinners run in their own process, so the
 * benchmark's process CPU time does not count them. Every workload
 * runs beside them: the sweep and the batch keep their threads busy,
 * and their figures did not change.
 */
class IdleWarmers
{
  public:
    explicit IdleWarmers(unsigned threads)
    {
        pid_t parent = getpid();
        _pid = fork();
        if (_pid < 0)
            throw std::runtime_error("cannot fork the idle warmers");
        if (_pid != 0)
            return;
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(0);
        sched_param param = {};
        sched_setscheduler(0, SCHED_IDLE, &param);
        try {
            for (unsigned i = 1; i < threads; ++i)
                std::thread(spin).detach();
        } catch (...) {
            // Fewer spinners; the child must never unwind into main().
        }
        spin();
    }
    IdleWarmers(const IdleWarmers &) = delete;
    IdleWarmers &operator=(const IdleWarmers &) = delete;
    ~IdleWarmers()
    {
        kill(_pid, SIGKILL);
        waitpid(_pid, nullptr, 0);
    }

  private:
    [[noreturn]] static void
    spin()
    {
        for (;;) {
#if defined(__x86_64__) || defined(__i386__)
            asm volatile("pause");
#else
            asm volatile("" ::: "memory");
#endif
        }
    }

    pid_t _pid = -1;
};

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] [--tiny] "
                 "[--corrupt <gate>]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::map<std::string, std::function<void(const Options &, Report &)>>
        workloads = {{"sweep-dense", perfbench::runSweepDense},
                     {"batch-unique", perfbench::runBatchUnique},
                     {"serve-closed", perfbench::runServeClosed},
                     {"fleet-open", perfbench::runFleetOpen}};
    Options opts;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument(arg + " needs a value");
                return argv[++i];
            };
            if (arg == "--workload")
                opts.workload = value();
            else if (arg == "--seed")
                opts.seed = std::stoull(value());
            else if (arg == "--seconds")
                opts.seconds = std::stod(value());
            else if (arg == "--trace")
                opts.trace = std::stoi(value()) != 0;
            else if (arg == "--out-dir")
                opts.outDir = value();
            else if (arg == "--tiny")
                opts.tiny = true;
            else if (arg == "--corrupt")
                opts.corrupt = value();
            else
                return usage("unknown argument '" + arg + "'");
        }
    } catch (const std::exception &e) {
        return usage(e.what());
    }
    auto workload = workloads.find(opts.workload);
    if (workload == workloads.end())
        return usage("unknown workload '" + opts.workload + "'");
    if (!(opts.seconds > 0))
        return usage("--seconds must be positive");
    opts.workers = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, 4);

    // The library logs to stderr; keep its per-run chatter out of the
    // benchmark's own output and leave warnings visible.
    hcm::setLogThreshold(hcm::LogLevel::Warn);
    Report report;
    try {
        IdleWarmers warmers(std::max(1u, std::thread::hardware_concurrency()));
        workload->second(opts, report);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opts.workload << ": " << e.what()
                  << "\n";
        return 2;
    }
    report.write(std::cout);
    std::cout.flush();
    return report.correct() ? 0 : 1;
}
