#include "driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "common/logging.hh"
#include "common/metrics.hh"

namespace jrpm
{

PercentileSummary
summarizePercentiles(std::vector<double> samples)
{
    PercentileSummary s;
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.n = samples.size();
    s.min = samples.front();
    s.max = samples.back();
    double sum = 0;
    for (double v : samples)
        sum += v;
    s.mean = sum / static_cast<double>(s.n);
    auto rank = [&](double q) {
        const auto i = static_cast<std::size_t>(
            q * static_cast<double>(s.n - 1) + 0.5);
        return samples[std::min<std::size_t>(i, s.n - 1)];
    };
    s.p50 = rank(0.50);
    s.p90 = rank(0.90);
    s.p99 = rank(0.99);
    s.p999 = rank(0.999);
    return s;
}

BatchDriver::BatchDriver(DriverConfig config) : cfg(std::move(config))
{
    if (!cfg.repoDir.empty())
        repoOwned = std::make_unique<CrystalRepo>(cfg.repoDir);
}

BatchDriver::~BatchDriver() = default;

std::vector<DriverResult>
BatchDriver::run(std::vector<DriverJob> jobs)
{
    const std::size_t n = jobs.size();
    std::vector<DriverResult> results(n);
    if (n == 0)
        return results;

    // Attach the shared repository and warm policy to jobs that did
    // not bring their own.
    for (DriverJob &job : jobs) {
        if (!job.cfg.crystal.repo && repoOwned && !job.custom) {
            job.cfg.crystal.repo = repoOwned.get();
            job.cfg.crystal.warm = cfg.warm;
        }
    }

    const std::uint32_t workers = std::max<std::uint32_t>(
        1, std::min<std::uint32_t>(cfg.jobs,
                                   static_cast<std::uint32_t>(n)));

    auto runCase = [&](std::size_t i) {
        DriverJob &job = jobs[i];
        DriverResult &res = results[i];
        if (cfg.progress)
            inform("driver: job %zu/%zu: %s", i + 1, n,
                   job.workload.name.c_str());
        const auto t0 = std::chrono::steady_clock::now();
        try {
            // Contain fatal() too: a single case hitting a
            // fatal path (warm-miss under --warm=warm, an
            // unsupported config) must become a per-case error,
            // not exit the process under every sibling.
            ScopedFatalCapture capture;
            if (job.custom) {
                res.report = job.custom();
            } else {
                JrpmSystem sys(job.workload, job.cfg);
                res.report = sys.run();
            }
            res.ok = true;
        } catch (const std::exception &e) {
            res.error = e.what();
        } catch (...) {
            res.error = "unknown exception";
        }
        res.wallMs = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
        if (!res.ok)
            warn("driver: job %zu (%s) failed: %s", i + 1,
                 job.workload.name.c_str(), res.error.c_str());
    };

    // Each worker claims the next unstarted case until none are
    // left.  A case writes only its own input-indexed result slot,
    // so the output bytes are independent of the worker count and of
    // which worker ran which case.  A serial batch still runs on one
    // spawned worker, so every case sees the same kind of thread.
    {
        std::atomic<std::size_t> next{0};
        std::vector<std::jthread> pool;
        pool.reserve(workers);
        for (std::uint32_t w = 0; w < workers; ++w)
            pool.emplace_back([&] {
                for (std::size_t i; (i = next.fetch_add(1)) < n;)
                    runCase(i);
            });
    }

    auto &reg = MetricsRegistry::global();
    reg.counter("driver.jobs").inc(n);
    reg.gauge("driver.workers").set(workers);
    for (const DriverResult &r : results)
        reg.histogram("driver.job_wall_ms").sample(r.wallMs);
    // Crystal repository counters publish live from CrystalRepo
    // itself (crystal.* in the metrics registry), shared by every
    // client — batch driver and fleet workers.
    return results;
}

} // namespace jrpm
