#include "bench_util.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/logging.hh"
#include "core/report_json.hh"

namespace jrpm
{
namespace bench
{

namespace
{

/** Crystal wiring shared by runReport() and runSuite(), configured by
 *  the last parseArgs() call. */
std::unique_ptr<CrystalRepo> gRepo;
WarmMode gWarm = WarmMode::Auto;
std::uint32_t gJobs = 1;

/** Reports accumulated for --report-out, flushed at exit so every
 *  harness (including multi-phase ones) exports without extra code. */
std::string gReportOut;
std::vector<JrpmReport> gReports;

void
flushReports()
{
    if (!gReportOut.empty() && !gReports.empty())
        writeReportsJson(gReportOut, gReports);
}

void
applyCrystal(JrpmConfig &cfg)
{
    if (gRepo && !cfg.crystal.repo) {
        cfg.crystal.repo = gRepo.get();
        cfg.crystal.warm = gWarm;
    }
}

} // namespace

Options
parseArgs(int argc, char **argv, const HarnessFlags &own)
{
    Options opt;
    bool list = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--quick")) {
            opt.quick = true;
        } else if (!std::strcmp(argv[i], "--list")) {
            list = true;
        } else if (!std::strncmp(argv[i], "--only=", 7)) {
            opt.only = argv[i] + 7;
        } else if (!std::strncmp(argv[i], "--jobs=", 7)) {
            opt.jobs = static_cast<std::uint32_t>(
                std::strtoul(argv[i] + 7, nullptr, 10));
            if (opt.jobs == 0)
                opt.jobs = 1;
        } else if (!std::strncmp(argv[i], "--repo=", 7)) {
            opt.repoDir = argv[i] + 7;
        } else if (!std::strncmp(argv[i], "--warm=", 7)) {
            opt.warm = parseWarmMode(argv[i] + 7);
        } else if (!std::strncmp(argv[i], "--report-out=", 13)) {
            opt.reportOut = argv[i] + 13;
        } else if (!std::strncmp(argv[i], "--trace-out=", 12)) {
            opt.traceOut = argv[i] + 12;
        } else if (!std::strncmp(argv[i], "--metrics-out=", 14)) {
            opt.metricsOut = argv[i] + 14;
        } else if (!std::strncmp(argv[i], "--oracle=", 9)) {
            opt.oracle = argv[i] + 9;
        } else if (!std::strncmp(argv[i], "--fault-plan=", 13)) {
            opt.faultPlan = argv[i] + 13;
        } else if (!std::strncmp(argv[i], "--cases=", 8)) {
            opt.cases = static_cast<std::uint32_t>(
                std::strtoul(argv[i] + 8, nullptr, 10));
        } else if (!std::strncmp(argv[i], "--seed=", 7)) {
            opt.seed = std::strtoull(argv[i] + 7, nullptr, 0);
        } else if (!std::strcmp(argv[i], "--hostprof")) {
            opt.hostprof = true;
        } else if (own.parse && own.parse(argv[i])) {
            // consumed by the harness
        } else if (!std::strcmp(argv[i], "--help")) {
            std::printf("usage: %s [--quick] [--only=<benchmark>] "
                        "[--list] [--jobs=<n>] [--repo=<dir>] "
                        "[--warm=cold|warm|auto] "
                        "[--report-out=<path>] "
                        "[--trace-out=<path>] "
                        "[--metrics-out=<path>] "
                        "[--oracle=off|checksum|strict] "
                        "[--fault-plan=<spec>] [--cases=<n>] "
                        "[--seed=<n>] [--hostprof]%s%s\n",
                        argv[0], *own.usage ? " " : "", own.usage);
            std::exit(0);
        } else {
            fatal("unknown flag '%s' (try --help)", argv[i]);
        }
    }
    if (list) {
        for (const auto &w : wl::allWorkloads())
            std::printf("%-16s %-10s %s\n", w.name.c_str(),
                        w.category.c_str(), w.description.c_str());
        std::exit(0);
    }
    if (!opt.repoDir.empty())
        gRepo = std::make_unique<CrystalRepo>(opt.repoDir);
    else
        gRepo.reset();
    gWarm = opt.warm;
    gJobs = opt.jobs;
    gReportOut = opt.reportOut;
    if (!gReportOut.empty())
        std::atexit(flushReports);
    return opt;
}

std::vector<Workload>
selectWorkloads(const Options &opt)
{
    std::vector<Workload> out;
    for (auto &w : wl::allWorkloads()) {
        if (!opt.only.empty() && w.name != opt.only)
            continue;
        if (opt.quick && !w.profileArgs.empty()) {
            w.mainArgs = w.profileArgs;
            w.profileArgs.clear();
        }
        out.push_back(std::move(w));
    }
    if (out.empty())
        fatal("no workload matches '%s' (--list prints the names)",
              opt.only.c_str());
    return out;
}

JrpmConfig
benchConfig(const Options &opt)
{
    JrpmConfig cfg;
    cfg.obs.traceOut = opt.traceOut;
    cfg.obs.metricsOut = opt.metricsOut;
    cfg.obs.traceEnabled =
        !opt.traceOut.empty() || !opt.metricsOut.empty();
    cfg.obs.hostprofEnabled = opt.hostprof;
    if (!opt.oracle.empty()) {
        if (opt.oracle == "off")
            cfg.oracle.mode = OracleMode::Off;
        else if (opt.oracle == "checksum")
            cfg.oracle.mode = OracleMode::Checksum;
        else if (opt.oracle == "strict")
            cfg.oracle.mode = OracleMode::Strict;
        else
            fatal("unknown --oracle mode '%s'", opt.oracle.c_str());
    }
    if (!opt.faultPlan.empty())
        cfg.faultPlan = FaultPlan::parse(opt.faultPlan);
    return cfg;
}

JrpmReport
runReport(const Workload &w, const JrpmConfig &cfg)
{
    std::fprintf(stderr, "  running %s ...\n", w.name.c_str());
    JrpmConfig c = cfg;
    applyCrystal(c);
    JrpmSystem sys(w, c);
    JrpmReport rep = sys.run();
    if (!rep.outputsMatch)
        warn("%s: speculative output differs from sequential!",
             w.name.c_str());
    gReports.push_back(rep);
    return rep;
}

std::vector<JrpmReport>
runSuite(const std::vector<Workload> &workloads,
         const JrpmConfig &cfg)
{
    std::vector<DriverJob> jobs;
    jobs.reserve(workloads.size());
    for (const Workload &w : workloads) {
        DriverJob job;
        job.workload = w;
        job.cfg = cfg;
        applyCrystal(job.cfg);
        jobs.push_back(std::move(job));
    }

    DriverConfig dc;
    dc.jobs = gJobs;
    dc.warm = gWarm;
    dc.progress = true;
    BatchDriver driver(dc);
    std::vector<DriverResult> results = driver.run(std::move(jobs));

    std::vector<JrpmReport> reports;
    reports.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        DriverResult &res = results[i];
        if (!res.ok)
            fatal("%s: pipeline failed: %s",
                  workloads[i].name.c_str(), res.error.c_str());
        if (!res.report.outputsMatch)
            warn("%s: speculative output differs from sequential!",
                 workloads[i].name.c_str());
        gReports.push_back(res.report);
        reports.push_back(std::move(res.report));
    }
    return reports;
}

std::string
fmt1(double v)
{
    return strfmt("%.1f", v);
}

std::string
fmt2(double v)
{
    return strfmt("%.2f", v);
}

std::string
fmtPct(double fraction)
{
    return strfmt("%.0f%%", 100.0 * fraction);
}

} // namespace bench
} // namespace jrpm
