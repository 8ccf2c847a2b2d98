/**
 * @file
 * Fault-injection tests: every fault class from the ISSUE 2 fault
 * model must be either *recovered* (the TLS protocol absorbs it and
 * the differential oracle stays clean) or *detected* (the oracle,
 * watchdog or governor flags the run).  The one forbidden outcome is
 * a silent divergence — a corrupted result reported as matching.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/fault.hh"
#include "core/jrpm.hh"

namespace jrpm
{
namespace
{

/**
 * main(n): a[0] = 1; for i in 1..n: a[i] = a[i-1] + i — a genuine
 * loop-carried dependency through memory, so speculation violates on
 * nearly every iteration.  Returns sum(a).
 * Locals: 0=n 1=a 2=i 3=sum.
 */
BcProgram
chainProgram()
{
    BcProgram p;
    BcBuilder b("main", 1, 4, true);
    b.load(0);
    b.emit(Bc::NEWARRAY);
    b.store(1);
    b.load(1);
    b.iconst(0);
    b.iconst(1);
    b.emit(Bc::IASTORE);
    b.iconst(1);
    b.store(2);
    auto TOP = b.newLabel(), EXIT = b.newLabel();
    b.bind(TOP);
    b.load(2);
    b.load(0);
    b.br(Bc::IF_ICMPGE, EXIT);
    b.load(1);
    b.load(2);
    b.load(1);
    b.load(2);
    b.iconst(1);
    b.emit(Bc::ISUB);
    b.emit(Bc::IALOAD);
    b.load(2);
    b.emit(Bc::IADD);
    b.emit(Bc::IASTORE);
    b.iinc(2, 1);
    b.br(Bc::GOTO, TOP);
    b.bind(EXIT);
    b.iconst(0);
    b.store(3);
    b.iconst(0);
    b.store(2);
    auto FT = b.newLabel(), FE = b.newLabel();
    b.bind(FT);
    b.load(2);
    b.load(0);
    b.br(Bc::IF_ICMPGE, FE);
    b.load(3);
    b.load(1);
    b.load(2);
    b.emit(Bc::IALOAD);
    b.emit(Bc::IADD);
    b.store(3);
    b.iinc(2, 1);
    b.br(Bc::GOTO, FT);
    b.bind(FE);
    b.load(3);
    b.emit(Bc::IRET);
    p.methods.push_back(b.finish());
    p.entryMethod = 0;
    return p;
}

/**
 * main(n): independent iterations, a[i] = i*i — no dependencies, so
 * the STL runs undisturbed until a protocol fault breaks it.
 * Locals: 0=n 1=a 2=i 3=sum.
 */
BcProgram
squaresProgram()
{
    BcProgram p;
    BcBuilder b("main", 1, 4, true);
    b.load(0);
    b.emit(Bc::NEWARRAY);
    b.store(1);
    b.iconst(0);
    b.store(2);
    auto TOP = b.newLabel(), EXIT = b.newLabel();
    b.bind(TOP);
    b.load(2);
    b.load(0);
    b.br(Bc::IF_ICMPGE, EXIT);
    b.load(1);
    b.load(2);
    b.load(2);
    b.load(2);
    b.emit(Bc::IMUL);
    b.emit(Bc::IASTORE);
    b.iinc(2, 1);
    b.br(Bc::GOTO, TOP);
    b.bind(EXIT);
    b.iconst(0);
    b.store(3);
    b.iconst(0);
    b.store(2);
    auto FT = b.newLabel(), FE = b.newLabel();
    b.bind(FT);
    b.load(2);
    b.load(0);
    b.br(Bc::IF_ICMPGE, FE);
    b.load(3);
    b.load(1);
    b.load(2);
    b.emit(Bc::IALOAD);
    b.emit(Bc::IXOR);
    b.store(3);
    b.iinc(2, 1);
    b.br(Bc::GOTO, FT);
    b.bind(FE);
    b.load(3);
    b.emit(Bc::IRET);
    p.methods.push_back(b.finish());
    p.entryMethod = 0;
    return p;
}

/**
 * main(n): each iteration stores to 12 cache lines (stride-8 word
 * indices), so an 8-line store buffer overflows every iteration.
 * Requires n*96 array words.  Locals: 0=n 1=a 2=i 3=k 4=sum.
 */
BcProgram
wideProgram()
{
    BcProgram p;
    BcBuilder b("main", 1, 5, true);
    b.load(0);
    b.iconst(96);
    b.emit(Bc::IMUL);
    b.emit(Bc::NEWARRAY);
    b.store(1);
    b.iconst(0);
    b.store(2);
    auto TOP = b.newLabel(), EXIT = b.newLabel();
    b.bind(TOP);
    b.load(2);
    b.load(0);
    b.br(Bc::IF_ICMPGE, EXIT);
    {
        auto IT = b.newLabel(), IE = b.newLabel();
        b.iconst(0);
        b.store(3);
        b.bind(IT);
        b.load(3);
        b.iconst(12);
        b.br(Bc::IF_ICMPGE, IE);
        // a[(i*12+k)*8] = i + k
        b.load(1);
        b.load(2);
        b.iconst(12);
        b.emit(Bc::IMUL);
        b.load(3);
        b.emit(Bc::IADD);
        b.iconst(8);
        b.emit(Bc::IMUL);
        b.load(2);
        b.load(3);
        b.emit(Bc::IADD);
        b.emit(Bc::IASTORE);
        b.iinc(3, 1);
        b.br(Bc::GOTO, IT);
        b.bind(IE);
    }
    b.iinc(2, 1);
    b.br(Bc::GOTO, TOP);
    b.bind(EXIT);
    // checksum over the touched elements
    b.iconst(0);
    b.store(4);
    b.iconst(0);
    b.store(2);
    auto FT = b.newLabel(), FE = b.newLabel();
    b.bind(FT);
    b.load(2);
    b.load(0);
    b.iconst(96);
    b.emit(Bc::IMUL);
    b.br(Bc::IF_ICMPGE, FE);
    b.load(4);
    b.load(1);
    b.load(2);
    b.emit(Bc::IALOAD);
    b.emit(Bc::IADD);
    b.store(4);
    b.iinc(2, 8);
    b.br(Bc::GOTO, FT);
    b.bind(FE);
    b.load(4);
    b.emit(Bc::IRET);
    p.methods.push_back(b.finish());
    p.entryMethod = 0;
    return p;
}

/**
 * main(n): exactly one cross-iteration dependency — iteration 0
 * stores a[0] = 42 *late* (after a spin), every iteration reads a[0]
 * *early*, so slave iterations read stale 0 first and depend on the
 * violation machinery to converge.  Suppressing that one violation
 * must produce a detectable divergence.  Stores the sum to a[1] so
 * the divergence is visible in memory, not just the exit value.
 * Locals: 0=n 1=a 2=i 3=sum 4=r 5=t 6=k.
 */
BcProgram
onceProgram()
{
    BcProgram p;
    BcBuilder b("main", 1, 7, true);
    b.load(0);
    b.emit(Bc::NEWARRAY);
    b.store(1);
    b.iconst(0);
    b.store(3);
    b.iconst(0);
    b.store(2);
    auto TOP = b.newLabel(), EXIT = b.newLabel();
    b.bind(TOP);
    b.load(2);
    b.iconst(8);
    b.br(Bc::IF_ICMPGE, EXIT);
    // r = a[0]   (early read)
    b.load(1);
    b.iconst(0);
    b.emit(Bc::IALOAD);
    b.store(4);
    {
        // if (i == 0) { spin 200; a[0] = 42 }   (late store)
        auto SKIP = b.newLabel();
        b.load(2);
        b.br(Bc::IFNE, SKIP);
        auto ST = b.newLabel(), SE = b.newLabel();
        b.iconst(0);
        b.store(6);
        b.bind(ST);
        b.load(6);
        b.iconst(200);
        b.br(Bc::IF_ICMPGE, SE);
        b.load(5);
        b.iconst(3);
        b.emit(Bc::IMUL);
        b.load(6);
        b.emit(Bc::IADD);
        b.store(5);
        b.iinc(6, 1);
        b.br(Bc::GOTO, ST);
        b.bind(SE);
        b.load(1);
        b.iconst(0);
        b.iconst(42);
        b.emit(Bc::IASTORE);
        b.bind(SKIP);
    }
    // sum += r
    b.load(3);
    b.load(4);
    b.emit(Bc::IADD);
    b.store(3);
    b.iinc(2, 1);
    b.br(Bc::GOTO, TOP);
    b.bind(EXIT);
    b.load(1);
    b.iconst(1);
    b.load(3);
    b.emit(Bc::IASTORE);
    b.load(3);
    b.emit(Bc::IRET);
    p.methods.push_back(b.finish());
    p.entryMethod = 0;
    return p;
}

/**
 * main(n): the chain loop re-entered three times inside an outer
 * repetition loop, so a governor blacklist on the inner loop is
 * exercised on re-entry.  Locals: 0=n 1=a 2=i 3=sum 4=rep.
 */
BcProgram
repeatedChainProgram()
{
    BcProgram p;
    BcBuilder b("main", 1, 5, true);
    b.load(0);
    b.emit(Bc::NEWARRAY);
    b.store(1);
    b.iconst(0);
    b.store(4);
    auto RT = b.newLabel(), RE = b.newLabel();
    b.bind(RT);
    b.load(4);
    b.iconst(3);
    b.br(Bc::IF_ICMPGE, RE);
    // a[0] = rep + 1
    b.load(1);
    b.iconst(0);
    b.load(4);
    b.iconst(1);
    b.emit(Bc::IADD);
    b.emit(Bc::IASTORE);
    {
        auto TOP = b.newLabel(), EXIT = b.newLabel();
        b.iconst(1);
        b.store(2);
        b.bind(TOP);
        b.load(2);
        b.load(0);
        b.br(Bc::IF_ICMPGE, EXIT);
        b.load(1);
        b.load(2);
        b.load(1);
        b.load(2);
        b.iconst(1);
        b.emit(Bc::ISUB);
        b.emit(Bc::IALOAD);
        b.load(2);
        b.emit(Bc::IADD);
        b.emit(Bc::IASTORE);
        b.iinc(2, 1);
        b.br(Bc::GOTO, TOP);
        b.bind(EXIT);
    }
    b.iinc(4, 1);
    b.br(Bc::GOTO, RT);
    b.bind(RE);
    b.iconst(0);
    b.store(3);
    b.iconst(0);
    b.store(2);
    auto FT = b.newLabel(), FE = b.newLabel();
    b.bind(FT);
    b.load(2);
    b.load(0);
    b.br(Bc::IF_ICMPGE, FE);
    b.load(3);
    b.load(1);
    b.load(2);
    b.emit(Bc::IALOAD);
    b.emit(Bc::IADD);
    b.store(3);
    b.iinc(2, 1);
    b.br(Bc::GOTO, FT);
    b.bind(FE);
    b.load(3);
    b.emit(Bc::IRET);
    p.methods.push_back(b.finish());
    p.entryMethod = 0;
    return p;
}

/** Shared harness: run sequential golden + TLS (all loops selected
 *  individually would multiply runtimes; callers pick the loop). */
struct Harness
{
    Workload w;
    JrpmConfig cfg;
    std::unique_ptr<JrpmSystem> sys;
    RunOutcome seq;

    Harness(BcProgram prog, Word n,
            FaultPlan plan = {}, bool governor = false)
    {
        EXPECT_EQ(verify(prog), "");
        w.name = "fault";
        w.program = std::move(prog);
        w.mainArgs = {n};
        cfg.vm.heapBytes = 4u << 20;
        cfg.oracle.mode = OracleMode::Strict;
        // Each test isolates one mechanism; the governor only runs
        // where it is the subject.
        cfg.sys.governor.enabled = governor;
        cfg.faultPlan = std::move(plan);
        sys = std::make_unique<JrpmSystem>(w, cfg);
        seq = sys->runSequential(w.mainArgs, false, nullptr);
        EXPECT_TRUE(seq.halted);
        EXPECT_FALSE(seq.uncaught);
    }

    /** TLS run with every compiler-accepted loop of max depth first
     *  (the interesting inner loop), or a specific loop id. */
    RunOutcome
    tlsOn(std::int32_t loop_id)
    {
        SelectedStl sel;
        sel.loopId = loop_id;
        return sys->runTls(w.mainArgs, {sel});
    }

    /** Deepest compiler-accepted loop (the hand-built inner loop). */
    std::int32_t
    deepestLoop() const
    {
        std::int32_t best = -1;
        std::uint32_t best_depth = 0;
        for (const auto &li : sys->jit().loopInfos()) {
            const JitLoop &l =
                sys->jit().loopNest(li.methodId).byId(li.loopId);
            if (l.depth >= best_depth) {
                best = li.loopId;
                best_depth = l.depth;
            }
        }
        return best;
    }

    /** First (outermost) compiler-accepted loop. */
    std::int32_t
    firstLoop() const
    {
        std::int32_t best = -1;
        std::uint32_t best_depth = ~0u;
        for (const auto &li : sys->jit().loopInfos()) {
            const JitLoop &l =
                sys->jit().loopNest(li.methodId).byId(li.loopId);
            if (l.depth < best_depth) {
                best = li.loopId;
                best_depth = l.depth;
            }
        }
        return best;
    }

    OracleReport
    compare(const RunOutcome &tls) const
    {
        return Oracle::compare(
            cfg.oracle, seq.digest(), tls.digest(),
            VmRuntime::scratchRegions(cfg.vm, cfg.sys.numCpus));
    }
};

TEST(FaultPlanTest, ParseExplicitSpec)
{
    const FaultPlan plan =
        FaultPlan::parse("suppress@1000,shrink@0:4,spike@500:30");
    ASSERT_EQ(plan.events.size(), 3u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::SuppressViolation);
    EXPECT_EQ(plan.events[0].at, 1000u);
    EXPECT_EQ(plan.events[1].kind, FaultKind::ShrinkStoreBuffer);
    EXPECT_EQ(plan.events[1].arg, 4u);
    EXPECT_EQ(plan.events[2].kind, FaultKind::HandlerSpike);
    EXPECT_EQ(plan.events[2].arg, 30u);
    EXPECT_FALSE(plan.describe().empty());
}

TEST(FaultPlanTest, RandomPlanIsDeterministic)
{
    const FaultPlan a = FaultPlan::random(7, 20, 0, 100000);
    const FaultPlan b = FaultPlan::random(7, 20, 0, 100000);
    ASSERT_EQ(a.events.size(), 20u);
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].at, b.events[i].at);
        EXPECT_EQ(a.events[i].arg, b.events[i].arg);
    }
}

TEST(FaultTest, BaselineOracleClean)
{
    Harness h(chainProgram(), 96);
    const RunOutcome tls = h.tlsOn(h.firstLoop());
    ASSERT_TRUE(tls.halted);
    EXPECT_EQ(tls.faultsInjected, 0u);
    const OracleReport rep = h.compare(tls);
    EXPECT_TRUE(rep.match()) << rep.summary();
}

TEST(FaultTest, SpuriousViolationRecovered)
{
    FaultPlan plan = FaultPlan::parse(
        "spurious@500,spurious@1500,spurious@2500");
    Harness h(chainProgram(), 96, std::move(plan));
    const RunOutcome tls = h.tlsOn(h.firstLoop());
    ASSERT_TRUE(tls.halted);
    // Squashing an innocent thread is pure overhead; the protocol
    // must converge to the sequential result regardless.
    const OracleReport rep = h.compare(tls);
    EXPECT_TRUE(rep.match()) << rep.summary();
}

TEST(FaultTest, SuppressedViolationDetectedByOracle)
{
    Harness h(onceProgram(), 8,
              FaultPlan::parse("suppress@0"));
    const RunOutcome tls = h.tlsOn(h.firstLoop());
    ASSERT_TRUE(tls.halted);
    ASSERT_GE(tls.faultsInjected, 1u)
        << "the one real violation was never reached";
    EXPECT_GE(tls.stats.violationsSuppressed, 1u);
    // The victim committed a stale read; the oracle must see it.
    const OracleReport rep = h.compare(tls);
    EXPECT_FALSE(rep.match())
        << "silent divergence: suppressed violation not detected";
}

TEST(FaultTest, CorruptedCommitDetectedByOracle)
{
    Harness h(chainProgram(), 200,
              FaultPlan::parse("corrupt@2000"));
    const RunOutcome tls = h.tlsOn(h.firstLoop());
    ASSERT_TRUE(tls.halted);
    ASSERT_GE(tls.faultsInjected, 1u);
    const OracleReport rep = h.compare(tls);
    // Ground truth from the images themselves: the oracle's verdict
    // must agree (no silent divergence, no false alarm).
    ASSERT_TRUE(h.seq.memImage && tls.memImage);
    const bool images_equal =
        h.compare(tls).diffBytes == 0 &&
        h.seq.exitValue == tls.exitValue;
    EXPECT_EQ(rep.match(), images_equal);
    EXPECT_FALSE(rep.match())
        << "bit flip in a committed line went unnoticed";
}

TEST(FaultTest, DroppedWakeupCaughtByWatchdog)
{
    FaultPlan plan = FaultPlan::parse("drop@0");
    Harness h(squaresProgram(), 2000, std::move(plan));
    h.cfg.sys.watchdog.noProgressCycles = 50'000;
    h.sys = std::make_unique<JrpmSystem>(h.w, h.cfg);
    const RunOutcome tls = h.tlsOn(h.firstLoop());
    ASSERT_GE(tls.faultsInjected, 1u);
    // The lost wakeup leaves an iteration hole no thread will ever
    // commit; the watchdog must convert the hang into a diagnostic
    // failure instead of spinning to the cycle limit.
    EXPECT_TRUE(tls.watchdogFired);
    EXPECT_GE(tls.stats.watchdogFires, 1u);
    EXPECT_TRUE(tls.halted);
    EXPECT_TRUE(tls.uncaught);
    const OracleReport rep = h.compare(tls);
    EXPECT_FALSE(rep.match());
}

TEST(FaultTest, ShrunkenBufferRecoveredThroughOverflow)
{
    Harness h(wideProgram(), 24, FaultPlan::parse("shrink@0:8"));
    const RunOutcome tls = h.tlsOn(h.firstLoop());
    ASSERT_TRUE(tls.halted);
    ASSERT_GE(tls.faultsInjected, 1u);
    // 12 lines per iteration against an 8-line cap: the overflow
    // stall + head write-through path must carry the STL correctly.
    EXPECT_GT(tls.stats.bufferOverflowStalls, 0u);
    const OracleReport rep = h.compare(tls);
    EXPECT_TRUE(rep.match()) << rep.summary();
}

TEST(FaultTest, HandlerSpikeHarmless)
{
    Harness h(chainProgram(), 96, FaultPlan::parse("spike@100:20"));
    const RunOutcome tls = h.tlsOn(h.firstLoop());
    ASSERT_TRUE(tls.halted);
    const OracleReport rep = h.compare(tls);
    EXPECT_TRUE(rep.match()) << rep.summary();
}

TEST(FaultTest, GovernorBlacklistsHopelessLoop)
{
    Harness h(repeatedChainProgram(), 64, {}, /*governor=*/true);
    h.cfg.sys.governor.minSamples = 8;
    h.cfg.sys.governor.maxViolationsPerCommit = 0.5;
    h.sys = std::make_unique<JrpmSystem>(h.w, h.cfg);
    const RunOutcome tls = h.tlsOn(h.deepestLoop());
    ASSERT_TRUE(tls.halted);
    EXPECT_GE(tls.stats.governorAborts, 1u);
    // Re-entries of the blacklisted loop must run solo...
    std::uint64_t solo = 0;
    for (const auto &[id, ls] : tls.stl)
        solo += ls.soloEntries;
    EXPECT_GE(solo, 1u);
    // ...and solo execution must still be correct.
    const OracleReport rep = h.compare(tls);
    EXPECT_TRUE(rep.match()) << rep.summary();
}

} // namespace
} // namespace jrpm
