/**
 * @file
 * Google-benchmark microbenchmarks of the simulator itself: host
 * cost per simulated cycle in sequential and speculative modes, and
 * microJIT analysis and compilation throughput.  These bound how
 * large an input the table/figure harnesses can afford.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/hostprof.hh"
#include "common/trace.hh"
#include "forge/forge.hh"
#include "workloads/workloads.hh"

namespace jrpm
{
namespace
{

/** Scoped flight-recorder enable for the *Traced benchmark variants;
 *  measures the recording hot path, dropping events as rings wrap. */
struct TraceGuard
{
    TraceGuard()
    {
        Trace::global().configure(8, 1u << 15);
        Trace::global().setEnabled(true);
    }
    ~TraceGuard()
    {
        Trace::global().setEnabled(false);
        Trace::global().clear();
    }
};

void
BM_SequentialSimulation(benchmark::State &state)
{
    Workload w = wl::workloadByName("IDEA");
    w.mainArgs = {300};
    JrpmSystem sys(w);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        RunOutcome out = sys.runSequential({300}, false, nullptr);
        cycles += out.cycles;
        benchmark::DoNotOptimize(out.exitValue);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SequentialSimulation)->Unit(benchmark::kMillisecond);

void
BM_SpeculativeSimulation(benchmark::State &state)
{
    Workload w = wl::workloadByName("IDEA");
    w.mainArgs = {300};
    JrpmSystem sys(w);
    auto sels = sys.selectOnly();
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        RunOutcome out = sys.runTls({300}, sels);
        cycles += out.cycles;
        benchmark::DoNotOptimize(out.exitValue);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpeculativeSimulation)->Unit(benchmark::kMillisecond);

void
BM_SequentialSimulationTraced(benchmark::State &state)
{
    TraceGuard guard;
    Workload w = wl::workloadByName("IDEA");
    w.mainArgs = {300};
    JrpmSystem sys(w);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        RunOutcome out = sys.runSequential({300}, false, nullptr);
        cycles += out.cycles;
        benchmark::DoNotOptimize(out.exitValue);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SequentialSimulationTraced)
    ->Unit(benchmark::kMillisecond);

void
BM_SpeculativeSimulationTraced(benchmark::State &state)
{
    Workload w = wl::workloadByName("IDEA");
    w.mainArgs = {300};
    JrpmSystem sys(w);
    auto sels = sys.selectOnly();
    TraceGuard guard; // enable only for the measured TLS runs
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        RunOutcome out = sys.runTls({300}, sels);
        cycles += out.cycles;
        benchmark::DoNotOptimize(out.exitValue);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpeculativeSimulationTraced)
    ->Unit(benchmark::kMillisecond);

/** Scoped host-profiler enable for the *HostProf variants: measures
 *  the rdtsc-scoped-timer hot path with a clean slot table.  These
 *  variants quantify the *enabled* overhead for DESIGN.md's budget;
 *  the CI gate compares the plain variants (profiler compiled in but
 *  disabled) against the committed trajectory. */
struct HostProfGuard
{
    HostProfGuard()
    {
        hostprof::reset();
        hostprof::setEnabled(true);
    }
    ~HostProfGuard()
    {
        hostprof::setEnabled(false);
        hostprof::flushThread();
        // Opt-in attribution dump: where did host cycles go inside the
        // measured runs?  (stderr so --benchmark_format consumers stay
        // parseable.)
        if (const char *e = std::getenv("JRPM_HOSTPROF_REPORT"))
            if (e[0] == '1')
                std::fprintf(stderr, "%s\n",
                             hostprof::reportJson().c_str());
        hostprof::reset();
    }
};

void
BM_SequentialSimulationHostProf(benchmark::State &state)
{
    HostProfGuard guard;
    Workload w = wl::workloadByName("IDEA");
    w.mainArgs = {300};
    JrpmSystem sys(w);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        RunOutcome out = sys.runSequential({300}, false, nullptr);
        cycles += out.cycles;
        benchmark::DoNotOptimize(out.exitValue);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SequentialSimulationHostProf)
    ->Unit(benchmark::kMillisecond);

void
BM_SpeculativeSimulationHostProf(benchmark::State &state)
{
    Workload w = wl::workloadByName("IDEA");
    w.mainArgs = {300};
    JrpmSystem sys(w);
    auto sels = sys.selectOnly();
    HostProfGuard guard; // enable only for the measured TLS runs
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        RunOutcome out = sys.runTls({300}, sels);
        cycles += out.cycles;
        benchmark::DoNotOptimize(out.exitValue);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpeculativeSimulationHostProf)
    ->Unit(benchmark::kMillisecond);

void
BM_MicroJitCompile(benchmark::State &state)
{
    Workload w = wl::workloadByName("Assignment");
    std::uint64_t bytecodes = 0;
    for (auto _ : state) {
        Jit jit(w.program);
        Machine m;
        jit.compileAll(m.codeSpace(), CompileMode::Tls);
        benchmark::DoNotOptimize(m.codeSpace().totalInsts());
        bytecodes += jit.bytecodeCount();
    }
    state.counters["bytecodes/s"] = benchmark::Counter(
        static_cast<double>(bytecodes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MicroJitCompile)->Unit(benchmark::kMicrosecond);

/** The microJIT's analysis alone (verify, inlining, loop discovery)
 *  over the 26 workloads and 256 forge programs: a return to
 *  quadratic loop discovery shows up here first. */
void
BM_JitLoopAnalysis(benchmark::State &state)
{
    std::vector<BcProgram> progs;
    for (const Workload &w : wl::allWorkloads())
        progs.push_back(w.program);
    for (std::uint64_t seed = 1; seed <= 256; ++seed)
        progs.push_back(forge::render(forge::generate(seed)));
    std::uint64_t bytecodes = 0;
    for (auto _ : state) {
        for (const BcProgram &p : progs) {
            const Jit jit(p);
            benchmark::DoNotOptimize(jit.loopInfos().size());
            bytecodes += jit.bytecodeCount();
        }
    }
    state.counters["bytecodes/s"] = benchmark::Counter(
        static_cast<double>(bytecodes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_JitLoopAnalysis)->Unit(benchmark::kMillisecond);

void
BM_ProfiledSimulation(benchmark::State &state)
{
    Workload w = wl::workloadByName("IDEA");
    w.mainArgs = {300};
    JrpmSystem sys(w);
    for (auto _ : state) {
        TestProfiler prof;
        RunOutcome out = sys.runSequential({300}, true, &prof);
        benchmark::DoNotOptimize(out.exitValue);
    }
}
BENCHMARK(BM_ProfiledSimulation)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace jrpm

BENCHMARK_MAIN();
