/**
 * @file
 * Shared plumbing for the benchmark harnesses that regenerate the
 * paper's tables and figures.  Every binary accepts:
 *   --quick              run on the (smaller) profiling inputs
 *   --only=<name>        restrict to one benchmark
 *   --list               print the selectable workload names and exit
 *   --jobs=<n>           run up to n pipelines concurrently
 *   --repo=<dir>         crystal repository of persisted decompositions
 *   --warm=cold|warm|auto  warm-start policy against --repo
 *   --report-out=<path>  machine-readable JSON of every JrpmReport
 *   --trace-out=<path>   write a Chrome/Perfetto trace of the runs
 *   --metrics-out=<path> dump the metrics registry (.json for JSON)
 *   --oracle=<mode>      off | checksum | strict differential oracle
 *   --fault-plan=<spec>  inject faults (see FaultPlan::parse)
 *   --cases=<n>          campaign size (robustness, forge campaign)
 *   --seed=<n>           campaign seed (robustness, forge campaign)
 *   --hostprof           enable the host-cycle self-profiler
 * A harness with flags of its own (bench_forge_campaign) passes a
 * parser for them to parseArgs(); every other flag is fatal.
 */

#ifndef JRPM_BENCH_BENCH_UTIL_HH
#define JRPM_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "driver/driver.hh"
#include "workloads/workloads.hh"

namespace jrpm
{
namespace bench
{

/** Parsed command line. */
struct Options
{
    bool quick = false;
    std::string only;
    std::string traceOut;    ///< --trace-out=<path>
    std::string metricsOut;  ///< --metrics-out=<path>
    std::string oracle;      ///< --oracle=off|checksum|strict
    std::string faultPlan;   ///< --fault-plan=<spec>
    std::string reportOut;   ///< --report-out=<path>
    std::string repoDir;     ///< --repo=<dir>
    WarmMode warm = WarmMode::Auto; ///< --warm=cold|warm|auto
    std::uint32_t jobs = 1;         ///< --jobs=<n>
    std::uint32_t cases = 100;      ///< --cases=<n>
    std::uint64_t seed = 0x5eed;    ///< --seed=<n>
    bool hostprof = false;          ///< --hostprof
};

/** A harness's own flags: parse(arg) returns true when it consumed
 *  @p arg; usage is appended to the --help line. */
struct HarnessFlags
{
    std::function<bool(const char *)> parse;
    const char *usage = "";
};

/** Parses the common flags plus @p own; handles --help and --list
 *  (both print and exit).  Registers the --report-out exit hook when
 *  requested. */
Options parseArgs(int argc, char **argv, const HarnessFlags &own = {});

/** The workload list honoring --only, with --quick applied. */
std::vector<Workload> selectWorkloads(const Options &opt);

/** Default Jrpm configuration for benches, with any observability
 *  outputs from the command line wired into cfg.obs. */
JrpmConfig benchConfig(const Options &opt = {});

/** Run the full pipeline for one workload with progress output.
 *  Crystal-aware: honors --repo/--warm from the last parseArgs. */
JrpmReport runReport(const Workload &w, const JrpmConfig &cfg);

/**
 * Run the full pipeline for every workload through the batch driver:
 * up to --jobs pipelines concurrently, sharing the --repo crystal
 * repository.  Reports come back in workload order, so a bench's
 * output is identical whatever the worker count.
 */
std::vector<JrpmReport>
runSuite(const std::vector<Workload> &workloads,
         const JrpmConfig &cfg);

/** printf into a std::string with %.nf convenience. */
std::string fmt1(double v);
std::string fmt2(double v);
std::string fmtPct(double fraction);

} // namespace bench
} // namespace jrpm

#endif // JRPM_BENCH_BENCH_UTIL_HH
