/**
 * @file
 * The pipeline ledger harness.  It drives the Jrpm public API over one
 * benchmark workload and prints one JSON document of raw measurements
 * (pass wall times, per-pipeline simulated results, spans); the
 * metrics are computed from it by perfbench/metrics.py.
 *
 *   jrpm_ledger --workload <paper-suite|forge-strict> --seed <n>
 *               --seconds <s> --trace <0|1>
 *
 * Workloads (see perfbench/LEDGER.md):
 *   paper-suite   cold JrpmSystem::run() over the 26 Table 3
 *                 analogues through BatchDriver at jobs=1, oracle off;
 *   forge-strict  forge::runCase() under the strict oracle with the
 *                 forced sweep, on scenarios forge::generate(seed + j),
 *                 through BatchDriver at jobs=1 as custom jobs.
 *
 * A run measures untraced passes until --seconds have elapsed (at
 * least two, so simulated counts can be compared between passes).
 * With --trace 1 it alternates untraced passes with traced passes,
 * which call each module's public functions one at a time inside
 * spans; spans stay in memory and are printed when the run ends.
 *
 * Every workload reports every metric of BENCHMARK.json.  So
 * forge-strict also makes one untimed pass over the Table 3 suite
 * (the model pass, for the simulated-time results), and a traced
 * paper-suite run, whose suite runs with the oracle off, also traces
 * one strict-oracle forge scenario (the probe, for the forge and
 * oracle layers).
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/jrpm.hh"
#include "core/oracle.hh"
#include "driver/driver.hh"
#include "forge/campaign.hh"
#include "forge/forge.hh"
#include "workloads/workloads.hh"

namespace jrpm
{
namespace
{

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * The forge-strict pass is a stratified sample: a case's host cost is
 * about one strict-oracle machine run (a 64 MB image capture) per
 * simulated run, and runCase() makes 3 + (1 if the profile input
 * differs) + (one per JIT-accepted loop) runs.  Scenarios
 * forge::generate(seed + j), j = 0, 1, ..., fill these quotas of
 * cases by run count (the last bucket takes 7 or more), in the
 * proportions of the generator's output over seeds 1-400 (95, 188,
 * 86, 31 cases), so every seed's pass carries the same work mix.
 * Set-up classifies at least kForgeCandidates scenarios (more only
 * while a bucket has fewer candidates than its quota), so its cost
 * does not depend on the seed.  Once, untimed, each bucket then takes
 * for every one of its kForgeCycleTargets the candidate whose
 * oracle-off pipeline simulates the nearest number of cycles, so that
 * a pass's simulated work varies little between seeds either.  The
 * targets are the (2k + 1) / 2q quantiles, k < q = quota, of each
 * bucket's oracle-off pipeline cycles over scenarios generate(1) to
 * generate(20000).
 */
constexpr std::uint32_t kForgeQuota[] = {2, 3, 2, 1}; // 4, 5, 6, 7+ runs
constexpr std::uint64_t kForgeCycleTargets[][3] = {
    {18812, 43738}, {16770, 33591, 59035}, {28170, 65822}, {62281}};
constexpr std::uint32_t kForgeMinRuns = 4;
constexpr std::uint64_t kForgeCandidates = 512;

/**
 * Set-up is timed kSetupReps times before the first pass, then again
 * all through the run: kSetupReps times after every untraced
 * paper-suite pass, kForgeSetupReps times after every untraced
 * forge-strict case.  setup_s is the median of all of them.  Set-up
 * time on a shared host flips between regimes that last seconds, so a
 * median of samples spread over the run is far steadier than one of
 * samples taken together.
 */
constexpr int kSetupReps = 11;
constexpr int kForgeSetupReps = 2;

// ---------------------------------------------------------------------
// JSON output

/** A minimal streaming JSON writer (objects, arrays, scalars). */
class Json
{
  public:
    void
    beginObject(const char *key = nullptr)
    {
        open(key, '{');
    }
    void
    beginArray(const char *key = nullptr)
    {
        open(key, '[');
    }
    void
    end()
    {
        out += closers.back();
        closers.pop_back();
        first = false;
    }
    void
    num(const char *key, double v)
    {
        sep(key);
        out += strfmt("%.17g", v);
    }
    void
    u64(const char *key, std::uint64_t v)
    {
        sep(key);
        out += strfmt("%" PRIu64, v);
    }
    void
    boolean(const char *key, bool v)
    {
        sep(key);
        out += v ? "true" : "false";
    }
    void
    str(const char *key, const std::string &v)
    {
        sep(key);
        quote(v);
    }
    const std::string &text() const { return out; }

  private:
    std::string out;
    std::string closers;
    bool first = true;

    void
    open(const char *key, char c)
    {
        sep(key);
        out += c;
        closers += c == '{' ? '}' : ']';
        first = true;
    }
    void
    sep(const char *key)
    {
        if (!first)
            out += ',';
        first = false;
        if (key) {
            quote(key);
            out += ':';
        }
    }
    void
    quote(const std::string &s)
    {
        out += '"';
        for (const char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
        out += '"';
    }
};

// ---------------------------------------------------------------------
// Spans

/** One timed call into a layer. */
struct Span
{
    std::string name;
    double startMs = 0;
    double endMs = 0;
    int parent = -1;     ///< index of the enclosing span, -1 = root
    int pipeline = -1;   ///< pipeline execution id
};

/** In-memory span log; while not recording it records nothing. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point epoch) : epoch(epoch) {}

    void setRecording(bool on) { recording = on; }

    /** RAII span: opened by the constructor, closed by end() or the
     *  destructor, whichever comes first. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, int pipeline)
            : log(log), id(log.open(name, pipeline))
        {}
        ~Scope() { end(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        void
        end()
        {
            if (id >= 0)
                log.close(id);
            id = -1;
        }

      private:
        SpanLog &log;
        int id;
    };

    const std::vector<Span> &spans() const { return all; }

  private:
    bool recording = false;
    Clock::time_point epoch;
    std::vector<Span> all;
    std::vector<int> stack;

    int
    open(const char *name, int pipeline)
    {
        if (!recording)
            return -1;
        Span s;
        s.name = name;
        s.parent = stack.empty() ? -1 : stack.back();
        s.pipeline = pipeline;
        s.startMs = msBetween(epoch, Clock::now());
        all.push_back(std::move(s));
        stack.push_back(static_cast<int>(all.size()) - 1);
        return stack.back();
    }
    void
    close(int id)
    {
        all[id].endMs = msBetween(epoch, Clock::now());
        while (!stack.empty() && stack.back() != id)
            stack.pop_back();
        if (!stack.empty())
            stack.pop_back();
    }
};

// ---------------------------------------------------------------------
// Shared helpers

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "jrpm_ledger: %s\nusage: jrpm_ledger --workload "
                 "<paper-suite|forge-strict> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        char *endp = nullptr;
        if (k == "--workload") {
            opt.workload = v;
            have[0] = true;
        } else if (k == "--seed") {
            opt.seed = std::strtoull(v, &endp, 10);
            have[1] = *v && !*endp;
        } else if (k == "--seconds") {
            opt.seconds = std::strtod(v, &endp);
            have[2] = *v && !*endp && opt.seconds > 0;
        } else if (k == "--trace") {
            opt.trace = std::strcmp(v, "1") == 0;
            have[3] = opt.trace || std::strcmp(v, "0") == 0;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (argc % 2 != 1 || !have[0] || !have[1] || !have[2] || !have[3])
        usage("missing or malformed argument");
    if (opt.workload != "paper-suite" && opt.workload != "forge-strict")
        usage(("unknown workload " + opt.workload).c_str());
    return opt;
}

/** Deterministic Fisher-Yates shuffle driven by the workload seed. */
template <class T>
void
seededShuffle(std::vector<T> &v, std::uint64_t seed)
{
    Rng rng(seed ^ 0x6c65646765720000ull);
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(static_cast<std::uint32_t>(i))]);
}

/** Simulated cycles and instructions of one machine run. */
void
addRun(std::uint64_t &cycles, std::uint64_t &insts, const RunOutcome &r)
{
    cycles += r.cycles;
    insts += r.insts;
}

bool
sameResult(const RunOutcome &a, const RunOutcome &b)
{
    return a.halted && b.halted && !a.uncaught && !b.uncaught &&
           a.exitValue == b.exitValue && a.vm.output == b.vm.output;
}

bool
distinctProfileInput(const Workload &w)
{
    return !w.profileArgs.empty() && w.profileArgs != w.mainArgs;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
writeArray(Json &js, const char *key, const std::vector<double> &xs)
{
    js.beginArray(key);
    for (const double x : xs)
        js.num(nullptr, x);
    js.end();
}

/** Builds a workload's inputs, timing every build. */
template <class T, class F>
class TimedSetup
{
  public:
    explicit TimedSetup(F build) : build(std::move(build)) {}

    /** Build @p n times; return the last result. */
    T
    repeat(int n = kSetupReps)
    {
        std::optional<T> kept;
        for (int r = 0; r < n; ++r) {
            const auto t0 = Clock::now();
            kept.emplace(build());
            ms.push_back(msBetween(t0, Clock::now()));
        }
        return std::move(*kept);
    }

    void write(Json &js) const { writeArray(js, "setup_ms", ms); }

  private:
    F build;
    std::vector<double> ms;
};

template <class F>
auto
timedSetup(F build)
{
    return TimedSetup<decltype(build()), F>(std::move(build));
}

/** A fresh Jit and CodeSpaces: what one pipeline's three compiles
 *  cost without the TLS-compile memo. */
void
freshCompile(SpanLog &spans, int pid, const Workload &w,
             const JrpmConfig &cfg,
             const std::vector<SelectedStl> &selections,
             std::uint64_t &emitted)
{
    std::vector<StlRequest> reqs;
    for (const auto &sel : selections)
        reqs.push_back({sel.loopId, sel.plan});
    Jit jit(w.program, cfg.jit);
    SpanLog::Scope s(spans, "jit.compile", pid);
    for (const CompileMode mode :
         {CompileMode::Plain, CompileMode::Profiling, CompileMode::Tls}) {
        CodeSpace cs;
        jit.compileAll(cs, mode,
                       mode == CompileMode::Tls
                           ? reqs
                           : std::vector<StlRequest>{});
        emitted += jit.emittedInsts();
    }
}

/** The pipeline's JrpmSystem, built inside a jit.analyze span (its
 *  constructor runs the Jit's loop analysis).  @p w is copied before
 *  the span opens. */
JrpmSystem
analyzed(SpanLog &spans, int pid, Workload w, const JrpmConfig &cfg)
{
    SpanLog::Scope s(spans, "jit.analyze", pid);
    return JrpmSystem(std::move(w), cfg);
}

/** What pipeline steps 0-3 produced. */
struct SeqSteps
{
    RunOutcome plain;     ///< plain run, main input
    RunOutcome plainProf; ///< plain run, profile input (= plain if same)
    RunOutcome annotated; ///< TEST-annotated run, profile input
    double plainOnProfileMs = 0;

    /** Simulated cycles of the plain runs actually made. */
    std::uint64_t
    plainCycles(bool distinct) const
    {
        return plain.cycles + (distinct ? plainProf.cycles : 0);
    }
};

/**
 * Pipeline steps 0-3 from the public API, each call in its span: the
 * plain run(s), the annotated TEST run and Analyzer::select.
 * selectOnly() would repeat the TEST run without handing back its
 * outcome, and its dynamic-nesting filter is private, so the analyzer
 * is called directly.
 */
SeqSteps
runSeqSteps(SpanLog &spans, int pid, JrpmSystem &sys,
            const JrpmConfig &cfg)
{
    SeqSteps out;
    const Workload &load = sys.workload(); // profileArgs filled in
    auto plainRun = [&](const std::vector<Word> &args) {
        const auto t0 = Clock::now();
        SpanLog::Scope s(spans, "tls.seq", pid);
        RunOutcome r = sys.runSequential(args, false, nullptr);
        out.plainOnProfileMs = msBetween(t0, Clock::now());
        return r;
    };
    out.plain = plainRun(load.mainArgs);
    out.plainProf = load.profileArgs == load.mainArgs
                        ? out.plain
                        : plainRun(load.profileArgs);
    TestProfiler prof(cfg.tracer);
    {
        SpanLog::Scope s(spans, "tracer.profiled", pid);
        out.annotated = sys.runSequential(load.profileArgs, true, &prof);
    }
    SpanLog::Scope s(spans, "profile.select", pid);
    Analyzer(cfg.analyzer).select(sys.jit().loopInfos(), prof.profiles());
    return out;
}

/** Per-pipeline bookkeeping shared by every workload's record. */
struct Outcome
{
    bool ok = false;
    bool correct = false;
    std::string error;
    double wallMs = 0;
};

void
writeOutcome(Json &js, const Outcome &o)
{
    js.boolean("ok", o.ok);
    js.boolean("correct", o.ok && o.correct);
    if (!o.error.empty())
        js.str("error", o.error);
    js.num("wall_ms", o.wallMs);
}

/** Run @p body, containing a throw or fatal() as a failed outcome. */
template <class F>
Outcome
contained(F body)
{
    Outcome o;
    const auto t0 = Clock::now();
    try {
        ScopedFatalCapture capture;
        o.correct = body();
        o.ok = true;
    } catch (const std::exception &e) {
        o.error = e.what();
    } catch (...) {
        o.error = "unknown exception";
    }
    o.wallMs = msBetween(t0, Clock::now());
    return o;
}

/** The pass loop: untraced passes (and, when tracing, traced passes
 *  in alternation) until --seconds after @p start, at least two
 *  untraced (one when tracing).  A pass starts only while half of one
 *  like it still fits, so long passes do not overrun the run by a
 *  whole pass.
 *  Spans are recorded in traced passes only. */
template <class U, class T, class B>
void
runPasses(Json &js, const Options &opt, SpanLog &spans,
          Clock::time_point start, U untraced, T traced, B between)
{
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opt.seconds));
    auto fits = [&](Clock::duration like) {
        return Clock::now() + like / 2 < deadline;
    };
    const int minUntraced = opt.trace ? 1 : 2;
    int done = 0;
    Clock::duration lastUntraced{}, lastTraced{};
    js.beginArray("passes");
    while (done < minUntraced || fits(lastUntraced)) {
        auto t0 = Clock::now();
        js.beginObject();
        js.str("kind", "untraced");
        spans.setRecording(false);
        untraced();
        js.end();
        lastUntraced = Clock::now() - t0;
        between();
        if (opt.trace && (done == 0 || fits(lastTraced))) {
            t0 = Clock::now();
            js.beginObject();
            js.str("kind", "traced");
            spans.setRecording(true);
            traced();
            spans.setRecording(false);
            js.end();
            lastTraced = Clock::now() - t0;
        }
        ++done;
    }
    js.end();
}

void
writeSpans(Json &js, const SpanLog &spans)
{
    js.beginArray("spans");
    for (const Span &s : spans.spans()) {
        js.beginObject();
        js.str("name", s.name);
        js.num("start_ms", s.startMs);
        js.num("end_ms", s.endMs);
        js.num("parent", s.parent);
        js.num("pipeline", s.pipeline);
        js.end();
    }
    js.end();
}

// ---------------------------------------------------------------------
// Records

void
writeTlsCounters(Json &js, const JrpmReport &rep)
{
    const ExecStats &st = rep.tls.stats;
    js.u64("seq_insts", rep.seqMain.insts);
    js.u64("tls_insts", rep.tls.insts);
    js.u64("window_insts", st.burstSpans.sum);
    js.u64("sig_hits", st.sigHits);
    js.u64("sig_false_positives", st.sigFalsePositives);
    js.u64("violations", st.violations);
    js.u64("commits", st.commits);
    js.u64("overflow_stalls", st.bufferOverflowStalls);
    js.u64("l1_hits", rep.tls.l1Hits);
    js.u64("l1_misses", rep.tls.l1Misses);
    js.u64("l2_hits", rep.tls.l2Hits);
    js.u64("l2_misses", rep.tls.l2Misses);
    js.u64("gc_cycles", rep.tls.vm.gcCycles);
}

/** Simulated cycles and instructions of a pipeline's machine runs. */
void
pipelineCounts(const Workload &w, const JrpmReport &rep,
               std::uint64_t &cycles, std::uint64_t &insts)
{
    addRun(cycles, insts, rep.seqMain);
    if (distinctProfileInput(w))
        addRun(cycles, insts, rep.seqProfileIn);
    addRun(cycles, insts, rep.profiled);
    addRun(cycles, insts, rep.tls);
}

/** What every workload's untraced record holds of a pipeline's
 *  report: the simulated counts of its machine runs and the TLS
 *  run's counters. */
void
writeReport(Json &js, const Workload &w, const JrpmReport &rep)
{
    std::uint64_t cycles = 0, insts = 0;
    pipelineCounts(w, rep, cycles, insts);
    js.u64("sim_cycles", cycles);
    js.u64("sim_insts", insts);
    js.u64("seq_cycles", rep.seqMain.cycles);
    js.u64("tls_cycles", rep.tls.cycles);
    js.u64("loops_selected", rep.selections.size());
    writeTlsCounters(js, rep);
}

/** A traced pipeline's sequential and speculative runs. */
void
writeTracedRuns(Json &js, const Workload &w, const SeqSteps &seq,
                const RunOutcome &tls, std::uint64_t specCycles,
                std::uint64_t emitted)
{
    js.u64("seq_cycles", seq.plain.cycles);
    js.u64("seq_run_cycles", seq.plainCycles(distinctProfileInput(w)));
    js.u64("tls_cycles", tls.cycles);
    js.u64("spec_cycles", specCycles);
    js.num("plain_on_profile_ms", seq.plainOnProfileMs);
    js.u64("emitted_insts", emitted);
}

// ---------------------------------------------------------------------
// The Table 3 suite

std::vector<Workload>
seededSuite(std::uint64_t seed)
{
    std::vector<Workload> ws = wl::allWorkloads();
    seededShuffle(ws, seed);
    return ws;
}

/**
 * One cold pass over @p suite through BatchDriver at jobs=1 with
 * @p cfg, as the fig8/9/10 harnesses run it: the driver's wall time
 * and overhead, then a record per pipeline with the simulated
 * results the model metrics are computed from.  Each pipeline's
 * selections go to @p selections, if given.
 */
void
suitePass(Json &js, const std::vector<Workload> &suite,
          const JrpmConfig &cfg,
          std::map<std::string, std::vector<SelectedStl>> *selections)
{
    std::vector<DriverJob> jobs;
    for (const Workload &w : suite) {
        DriverJob job;
        job.workload = w;
        job.cfg = cfg;
        jobs.push_back(std::move(job));
    }
    DriverConfig dc;
    dc.jobs = 1;
    BatchDriver driver(dc);
    const auto t0 = Clock::now();
    std::vector<DriverResult> results = driver.run(std::move(jobs));
    const double wall = msBetween(t0, Clock::now());
    double jobsMs = 0;
    for (const DriverResult &res : results)
        jobsMs += res.wallMs;
    js.num("wall_ms", wall);
    js.num("driver_overhead_ms", wall - jobsMs);
    js.beginArray("pipelines");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const DriverResult &res = results[i];
        const JrpmReport &rep = res.report;
        const Workload &w = suite[i];
        js.beginObject();
        js.str("name", w.name);
        js.str("category", w.category);
        Outcome o;
        o.ok = res.ok;
        o.correct = rep.outputsMatch;
        o.error = res.error;
        o.wallMs = res.wallMs;
        writeOutcome(js, o);
        if (res.ok) {
            writeReport(js, w, rep);
            js.num("predicted_tls_cycles", rep.predictedTlsCycles);
            js.num("actual_speedup", rep.actualSpeedup);
            js.num("total_speedup", rep.totalSpeedup);
            js.num("profiling_slowdown", rep.profilingSlowdown);
            if (selections)
                (*selections)[w.name] = rep.selections;
        }
        js.end();
    }
    js.end();
}

// ---------------------------------------------------------------------
// forge cases under the strict oracle

RunDigest
digestOf(const RunOutcome &o)
{
    RunDigest d;
    d.halted = o.halted;
    d.uncaught = o.uncaught;
    d.exitValue = o.exitValue;
    d.output = o.vm.output;
    d.memChecksum = o.memChecksum;
    d.memImage = o.memImage;
    return d;
}

struct ForgeCase
{
    forge::ScenarioSpec spec;
    Workload load;
};

struct ForgeConfigs
{
    JrpmConfig strict;
    JrpmConfig off;

    ForgeConfigs()
    {
        strict.oracle.mode = OracleMode::Strict;
        off = strict;
        off.oracle.mode = OracleMode::Off;
    }
};

/** The 64 MB images a strict run keeps, dropped once compared, so
 *  that a kept report does not hold them. */
void
dropImages(JrpmReport &rep)
{
    for (RunOutcome *r :
         {&rep.seqMain, &rep.seqProfileIn, &rep.profiled, &rep.tls})
        r->memImage.reset();
}

/** One untraced forge::runCase() with the forced sweep. */
struct ForgeRun
{
    Outcome outcome;
    forge::CaseResult result;
    JrpmReport report; ///< without memory images
};

ForgeRun
runForgeCase(const ForgeCase &c, const ForgeConfigs &fc)
{
    ForgeRun r;
    r.outcome = contained([&] {
        r.result = forge::runCase(c.spec, fc.strict, true, &r.report);
        return !r.result.failing(false);
    });
    dropImages(r.report);
    return r;
}

void
writeForgeRun(Json &js, const ForgeCase &c, const ForgeRun &r)
{
    js.u64("scenario_seed", c.spec.seed);
    writeOutcome(js, r.outcome);
    if (!r.result.detail.empty())
        js.str("detail", r.result.detail);
    if (r.outcome.ok) {
        writeReport(js, c.load, r.report);
        js.u64("forced_loops", r.result.forcedLoops);
    }
}

/**
 * forge::runCase() rebuilt from public calls, inside spans under a
 * root span named @p root: the pipeline's steps 0-3 and its TLS run
 * with the selections run() made (@p sel, null when no untraced run
 * made any), the oracle compare, then
 * the forced sweep.  The oracle-off pipeline, whose host time the
 * strict one is set against, and the fresh compile run after the
 * root span closes, so the root span mirrors the untraced work.
 */
void
tracedForgeCase(Json &js, SpanLog &spans, int pid, const char *root,
                const ForgeCase &c, const std::vector<SelectedStl> *sel,
                const ForgeConfigs &fc)
{
    SeqSteps seq;
    RunOutcome tls;
    double imageMb = 0, strictRunMs = 0, offRunMs = 0;
    std::uint64_t emitted = 0, specCycles = 0;
    const Outcome o = contained([&] {
        if (!sel)
            fatal("scenario %llu: no untraced run to take selections from",
                  static_cast<unsigned long long>(c.spec.seed));
        SpanLog::Scope rootSpan(spans, root, pid);
        JrpmSystem sys = analyzed(spans, pid, c.load, fc.strict);
        const auto skip =
            VmRuntime::scratchRegions(fc.strict.vm, fc.strict.sys.numCpus);
        bool clean = false;
        {
            SpanLog::Scope run(spans, "core.run", pid);
            const auto t0 = Clock::now();
            seq = runSeqSteps(spans, pid, sys, fc.strict);
            {
                SpanLog::Scope s(spans, "tls.spec", pid);
                tls = sys.runTls(sys.workload().mainArgs, *sel);
            }
            strictRunMs = msBetween(t0, Clock::now());
            SpanLog::Scope s(spans, "oracle.compare", pid);
            clean = Oracle::compare(fc.strict.oracle, digestOf(seq.plain),
                                    digestOf(tls), skip)
                        .match();
        }
        specCycles = tls.cycles;
        if (seq.plain.halted) {
            SpanLog::Scope sweep(spans, "tls.forced_sweep", pid);
            const RunDigest golden = digestOf(seq.plain);
            for (const auto &li : sys.jit().loopInfos()) {
                SelectedStl one;
                one.loopId = li.loopId;
                RunOutcome forced;
                {
                    SpanLog::Scope s(spans, "tls.spec", pid);
                    forced = sys.runTls(c.load.mainArgs, {one});
                }
                specCycles += forced.cycles;
                SpanLog::Scope s(spans, "oracle.compare", pid);
                clean = Oracle::compare(fc.strict.oracle, golden,
                                        digestOf(forced), skip)
                            .match() &&
                        clean;
            }
        }
        rootSpan.end();
        if (tls.memImage)
            imageMb = static_cast<double>(tls.memImage->size()) /
                      (1024.0 * 1024.0);
        for (RunOutcome *r :
             {&seq.plain, &seq.plainProf, &seq.annotated, &tls})
            r->memImage.reset();
        JrpmSystem plain(c.load, fc.off);
        const auto t0 = Clock::now();
        {
            SpanLog::Scope s(spans, "core.run_oracle_off", pid);
            plain.run();
        }
        offRunMs = msBetween(t0, Clock::now());
        freshCompile(spans, pid, c.load, fc.strict, *sel, emitted);
        return clean;
    });
    js.u64("scenario_seed", c.spec.seed);
    js.num("pipeline", pid);
    writeOutcome(js, o);
    writeTracedRuns(js, c.load, seq, tls, specCycles, emitted);
    js.num("image_mb", imageMb);
    js.num("strict_run_ms", strictRunMs);
    js.num("oracle_off_run_ms", offRunMs);
}

// ---------------------------------------------------------------------
// paper-suite

void
paperSuite(Json &js, const Options &opt, SpanLog &spans)
{
    auto setup = timedSetup([&] { return seededSuite(opt.seed); });
    const std::vector<Workload> suite = setup.repeat();
    JrpmConfig cfg;
    cfg.oracle.mode = OracleMode::Off;

    // The traced TLS run re-uses the selections run() reported, so it
    // is the pipeline's own (the traced Analyzer::select call lacks
    // run()'s private dynamic-nesting filter).
    std::map<std::string, std::vector<SelectedStl>> selections;
    int nextPipeline = 0;

    // The suite runs with the oracle off, so a traced run measures the
    // forge and oracle layers on a probe: scenario forge::generate(seed)
    // under the strict oracle, traced once per traced pass.  Its
    // untraced run, made once, gives the selections and the simulated
    // counts every traced probe must repeat.
    const auto start = Clock::now();
    const ForgeConfigs fc;
    std::optional<ForgeCase> probe;
    ForgeRun probeRef;
    if (opt.trace) {
        forge::ScenarioSpec spec = forge::generate(opt.seed);
        Workload w = forge::scenarioWorkload(spec);
        probe.emplace(ForgeCase{std::move(spec), std::move(w)});
        probeRef = runForgeCase(*probe, fc);
        js.beginObject("probe_ref");
        writeForgeRun(js, *probe, probeRef);
        js.end();
    }

    auto untraced = [&] { suitePass(js, suite, cfg, &selections); };

    auto traced = [&] {
        js.beginArray("pipelines");
        for (const Workload &w : suite) {
            const int pid = nextPipeline++;
            SeqSteps seq;
            RunOutcome tls;
            std::uint64_t emitted = 0;
            const Outcome o = contained([&] {
                const auto sel = selections.find(w.name);
                if (sel == selections.end())
                    fatal("%s: no untraced run to take selections from",
                          w.name.c_str());
                SpanLog::Scope pipe(spans, "pipeline", pid);
                JrpmSystem sys = analyzed(spans, pid, w, cfg);
                seq = runSeqSteps(spans, pid, sys, cfg);
                {
                    SpanLog::Scope s(spans, "tls.spec", pid);
                    tls = sys.runTls(sys.workload().mainArgs,
                                     sel->second);
                }
                pipe.end();
                freshCompile(spans, pid, sys.workload(), cfg,
                             sel->second, emitted);
                return sameResult(seq.plain, tls) &&
                       sameResult(seq.plainProf, seq.annotated);
            });
            js.beginObject();
            js.str("name", w.name);
            js.num("pipeline", pid);
            writeOutcome(js, o);
            writeTracedRuns(js, w, seq, tls, tls.cycles, emitted);
            js.end();
        }
        js.end();

        js.beginArray("probes");
        js.beginObject();
        const auto t0 = Clock::now();
        forge::generate(probe->spec.seed);
        js.num("generate_ms", msBetween(t0, Clock::now()));
        tracedForgeCase(js, spans, nextPipeline++, "probe", *probe,
                        probeRef.outcome.ok ? &probeRef.report.selections
                                            : nullptr,
                        fc);
        js.end();
        js.end();
    };

    runPasses(js, opt, spans, start, untraced, traced,
              [&] { setup.repeat(); });
    setup.write(js);
}

// ---------------------------------------------------------------------
// forge-strict

/** The candidates of one forge-strict set-up, by run-count bucket. */
using ForgePools = std::array<std::vector<ForgeCase>, std::size(kForgeQuota)>;

/** Each bucket's quota: per cycle target, the candidate whose
 *  oracle-off pipeline simulates the nearest number of cycles (see
 *  kForgeQuota; a pipeline that fails counts 0 cycles). */
std::vector<ForgeCase>
stratifiedSample(ForgePools pools, const ForgeConfigs &fc)
{
    std::vector<ForgeCase> out;
    for (std::size_t b = 0; b < pools.size(); ++b) {
        std::vector<std::uint64_t> cycles(pools[b].size(), 0);
        for (std::size_t i = 0; i < pools[b].size(); ++i) {
            const Workload &w = pools[b][i].load;
            std::uint64_t insts = 0;
            contained([&] {
                pipelineCounts(w, JrpmSystem(w, fc.off).run(), cycles[i],
                               insts);
                return true;
            });
        }
        std::vector<bool> taken(pools[b].size(), false);
        for (std::size_t k = 0; k < kForgeQuota[b]; ++k) {
            const std::uint64_t target = kForgeCycleTargets[b][k];
            auto dist = [&](std::size_t i) {
                return cycles[i] > target ? cycles[i] - target
                                          : target - cycles[i];
            };
            std::size_t best = pools[b].size();
            for (std::size_t i = 0; i < pools[b].size(); ++i)
                if (!taken[i] && (best == pools[b].size() ||
                                  dist(i) < dist(best)))
                    best = i;
            taken[best] = true;
            out.push_back(pools[b][best]);
        }
    }
    return out;
}

void
forgeStrict(Json &js, const Options &opt, SpanLog &spans)
{
    const JitConfig jitCfg;
    std::vector<double> generateMs;
    auto setup = timedSetup([&] {
        constexpr std::size_t nb = std::size(kForgeQuota);
        ForgePools pool;
        double gen = 0;
        auto underfilled = [&] {
            for (std::size_t b = 0; b < nb; ++b)
                if (pool[b].size() < kForgeQuota[b])
                    return true;
            return false;
        };
        for (std::uint64_t j = 0; j < kForgeCandidates || underfilled(); ++j) {
            const auto t0 = Clock::now();
            forge::ScenarioSpec spec = forge::generate(opt.seed + j);
            gen += msBetween(t0, Clock::now());
            Workload w = forge::scenarioWorkload(spec);
            const std::size_t runs =
                3 + (distinctProfileInput(w) ? 1 : 0) +
                Jit(w.program, jitCfg).loopInfos().size();
            const std::size_t bucket = std::min<std::size_t>(
                std::max<std::size_t>(runs, kForgeMinRuns) - kForgeMinRuns,
                nb - 1);
            pool[bucket].push_back({std::move(spec), std::move(w)});
        }
        generateMs.push_back(gen);
        return pool;
    });
    const ForgeConfigs fc;
    const std::vector<ForgeCase> cases = stratifiedSample(setup.repeat(), fc);
    std::map<std::uint64_t, std::vector<SelectedStl>> selections;
    int nextPipeline = 0;

    // The model metrics are the Table 3 suite's simulated results, on
    // every workload: one untimed cold pass over the suite, oracle
    // off, inside the run's --seconds.
    const auto start = Clock::now();
    {
        JrpmConfig cfg;
        cfg.oracle.mode = OracleMode::Off;
        js.beginObject("model_pass");
        suitePass(js, seededSuite(opt.seed), cfg, nullptr);
        js.end();
    }

    // Cases run through BatchDriver at jobs=1 as custom jobs, as every
    // forge campaign runs them.  The pass time is the sum of the
    // runCase() times, which leaves out the set-up samples taken in
    // each job after its case.
    auto untraced = [&] {
        std::vector<ForgeRun> runs(cases.size());
        std::vector<DriverJob> jobs(cases.size());
        for (std::size_t i = 0; i < cases.size(); ++i) {
            jobs[i].workload.name = strfmt(
                "forge-seed-%016llx",
                static_cast<unsigned long long>(cases[i].spec.seed));
            jobs[i].custom = [&, i] {
                runs[i] = runForgeCase(cases[i], fc);
                setup.repeat(kForgeSetupReps);
                return JrpmReport{};
            };
        }
        DriverConfig dc;
        dc.jobs = 1;
        BatchDriver driver(dc);
        const auto t0 = Clock::now();
        const std::vector<DriverResult> results =
            driver.run(std::move(jobs));
        const double wall = msBetween(t0, Clock::now());
        double passMs = 0, jobsMs = 0;
        js.beginArray("pipelines");
        for (std::size_t i = 0; i < cases.size(); ++i) {
            ForgeRun &r = runs[i];
            if (!results[i].ok) {
                r.outcome.ok = false;
                r.outcome.error = results[i].error;
            }
            passMs += r.outcome.wallMs;
            jobsMs += results[i].wallMs;
            js.beginObject();
            writeForgeRun(js, cases[i], r);
            js.end();
            if (r.outcome.ok)
                selections[cases[i].spec.seed] = r.report.selections;
        }
        js.end();
        js.num("wall_ms", passMs);
        js.num("driver_overhead_ms", wall - jobsMs);
    };

    auto traced = [&] {
        js.beginArray("pipelines");
        for (const ForgeCase &c : cases) {
            js.beginObject();
            const auto sel = selections.find(c.spec.seed);
            tracedForgeCase(js, spans, nextPipeline++, "case", c,
                            sel == selections.end() ? nullptr
                                                    : &sel->second,
                            fc);
            js.end();
        }
        js.end();
    };

    runPasses(js, opt, spans, start, untraced, traced, [] {});
    setup.write(js);
    writeArray(js, "generate_ms", generateMs);
}

} // namespace
} // namespace jrpm

int
main(int argc, char **argv)
{
    using namespace jrpm;
    const Options opt = parseArgs(argc, argv);
    setQuiet(true);

    SpanLog spans(Clock::now());
    Json js;
    js.beginObject();
    js.str("workload", opt.workload);
    js.u64("seed", opt.seed);
    js.boolean("trace", opt.trace);
    if (opt.workload == "paper-suite")
        paperSuite(js, opt, spans);
    else
        forgeStrict(js, opt, spans);
    js.num("peak_rss_mb", peakRssMb());
    writeSpans(js, spans);
    js.end();
    std::printf("%s\n", js.text().c_str());
    return 0;
}
