/**
 * @file
 * End-to-end tests of the microJIT: bytecode programs compiled in all
 * three modes, executed on the machine with the VM runtime, checked
 * for value-correctness and for the expected speculative behaviour
 * (loop discovery, classification, violation-freedom of optimized
 * decompositions).  Loop discovery is also checked against two
 * references: brute-force dominance on hand-built CFGs, and the
 * original quadratic findLoops on every generated, workload and
 * corpus program.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/jrpm.hh"
#include "forge/corpus.hh"
#include "forge/forge.hh"
#include "jit/loops.hh"
#include "workloads/workloads.hh"

namespace jrpm
{
namespace
{

/** int main(int n): a = new int[n]; a[i] = 3i; return sum(a). */
BcProgram
buildFillAndSum()
{
    BcProgram p;
    BcBuilder b("main", 1, 4, true);
    // locals: 0=n 1=a 2=i 3=s
    auto L1 = b.newLabel(), E1 = b.newLabel();
    auto L2 = b.newLabel(), E2 = b.newLabel();
    b.load(0);
    b.emit(Bc::NEWARRAY);
    b.store(1);
    b.iconst(0);
    b.store(2);
    b.bind(L1);
    b.load(2);
    b.load(0);
    b.br(Bc::IF_ICMPGE, E1);
    b.load(1);
    b.load(2);
    b.load(2);
    b.iconst(3);
    b.emit(Bc::IMUL);
    b.emit(Bc::IASTORE);
    b.iinc(2, 1);
    b.br(Bc::GOTO, L1);
    b.bind(E1);
    b.iconst(0);
    b.store(3);
    b.iconst(0);
    b.store(2);
    b.bind(L2);
    b.load(2);
    b.load(0);
    b.br(Bc::IF_ICMPGE, E2);
    b.load(3);
    b.load(1);
    b.load(2);
    b.emit(Bc::IALOAD);
    b.emit(Bc::IADD);
    b.store(3);
    b.iinc(2, 1);
    b.br(Bc::GOTO, L2);
    b.bind(E2);
    b.load(3);
    b.emit(Bc::IRET);
    p.methods.push_back(b.finish());
    p.entryMethod = 0;
    return p;
}

/**
 * int main(int n): carried chain s = ((s*7+i) then extra dependent
 * stages) & mask — the whole iteration depends on the previous one.
 */
BcProgram
buildCarriedChain(int extra_stages = 0)
{
    BcProgram p;
    BcBuilder b("main", 1, 3, true);
    // locals: 0=n 1=i 2=s
    auto L = b.newLabel(), E = b.newLabel();
    b.iconst(0);
    b.store(1);
    b.iconst(1);
    b.store(2);
    b.bind(L);
    b.load(1);
    b.load(0);
    b.br(Bc::IF_ICMPGE, E);
    b.load(2);
    b.iconst(7);
    b.emit(Bc::IMUL);
    b.load(1);
    b.emit(Bc::IADD);
    for (int k = 0; k < extra_stages; ++k) {
        b.iconst(3);
        b.emit(Bc::IMUL);
        b.iconst(k + 1);
        b.emit(Bc::IADD);
    }
    b.iconst(0x7fffff);
    b.emit(Bc::IAND);
    b.store(2);
    b.iinc(1, 1);
    b.br(Bc::GOTO, L);
    b.bind(E);
    b.load(2);
    b.emit(Bc::IRET);
    p.methods.push_back(b.finish());
    p.entryMethod = 0;
    return p;
}

Word
chainReference(Word n, int extra_stages)
{
    Word s = 1;
    for (Word i = 0; i < n; ++i) {
        s = s * 7 + i;
        for (int k = 0; k < extra_stages; ++k)
            s = s * 3 + static_cast<Word>(k + 1);
        s &= 0x7fffff;
    }
    return s;
}

/** Method call + inlining: int sq(int) { return x*x; } summed. */
BcProgram
buildCallSum()
{
    BcProgram p;
    {
        BcBuilder sq("sq", 1, 1, true);
        sq.load(0);
        sq.load(0);
        sq.emit(Bc::IMUL);
        sq.emit(Bc::IRET);
        p.methods.push_back(sq.finish());
    }
    {
        BcBuilder b("main", 1, 3, true);
        auto L = b.newLabel(), E = b.newLabel();
        b.iconst(0);
        b.store(1);
        b.iconst(0);
        b.store(2);
        b.bind(L);
        b.load(1);
        b.load(0);
        b.br(Bc::IF_ICMPGE, E);
        b.load(2);
        b.load(1);
        b.emit(Bc::CALL, 0);
        b.emit(Bc::IADD);
        b.store(2);
        b.iinc(1, 1);
        b.br(Bc::GOTO, L);
        b.bind(E);
        b.load(2);
        b.emit(Bc::IRET);
        p.methods.push_back(b.finish());
        p.entryMethod = 1;
    }
    return p;
}

/** Catching an out-of-bounds store. */
BcProgram
buildBoundsCatch()
{
    BcProgram p;
    BcBuilder b("main", 1, 2, true);
    auto tryB = b.newLabel(), tryE = b.newLabel();
    auto handler = b.newLabel(), out = b.newLabel();
    b.iconst(8);
    b.emit(Bc::NEWARRAY);
    b.store(1);
    b.bind(tryB);
    b.load(1);
    b.load(0);       // index from the argument (out of range)
    b.iconst(42);
    b.emit(Bc::IASTORE);
    b.bind(tryE);
    b.iconst(1);
    b.br(Bc::GOTO, out);
    b.bind(handler);
    b.emit(Bc::POP); // exception value
    b.iconst(2);
    b.bind(out);
    b.emit(Bc::IRET);
    b.addCatch(tryB, tryE, handler, 1 /* bounds */);
    p.methods.push_back(b.finish());
    p.entryMethod = 0;
    return p;
}

Workload
makeWorkload(std::string name, BcProgram prog,
             std::vector<Word> args)
{
    Workload w;
    w.name = std::move(name);
    w.category = "integer";
    w.program = std::move(prog);
    w.mainArgs = std::move(args);
    return w;
}

Word
expectedFillSum(Word n)
{
    return 3 * n * (n - 1) / 2;
}

TEST(JitPlain, FillAndSumComputesCorrectly)
{
    JrpmSystem sys(makeWorkload("fillsum", buildFillAndSum(), {100}));
    RunOutcome out = sys.runSequential({100}, false, nullptr);
    ASSERT_TRUE(out.halted);
    EXPECT_FALSE(out.uncaught);
    EXPECT_EQ(out.exitValue, expectedFillSum(100));
}

TEST(JitPlain, CarriedChainComputesCorrectly)
{
    JrpmSystem sys(makeWorkload("chain", buildCarriedChain(), {50}));
    RunOutcome out = sys.runSequential({50}, false, nullptr);
    ASSERT_TRUE(out.halted);
    EXPECT_EQ(out.exitValue, chainReference(50, 0));
}

TEST(JitPlain, CallsAndInlining)
{
    Word expect = 0;
    for (Word i = 0; i < 20; ++i)
        expect += i * i;

    JrpmSystem sys(makeWorkload("callsum", buildCallSum(), {20}));
    RunOutcome out = sys.runSequential({20}, false, nullptr);
    ASSERT_TRUE(out.halted);
    EXPECT_EQ(out.exitValue, expect);

    // With inlining disabled the result must be identical.
    JrpmConfig cfg;
    cfg.jit.inlineSmallMethods = false;
    JrpmSystem sys2(makeWorkload("callsum", buildCallSum(), {20}),
                    cfg);
    RunOutcome out2 = sys2.runSequential({20}, false, nullptr);
    EXPECT_EQ(out2.exitValue, expect);
    // Inlining removes the call: strictly fewer executed
    // instructions.
    EXPECT_LT(out.insts, out2.insts);
}

TEST(JitPlain, BoundsExceptionCaught)
{
    JrpmSystem sys(makeWorkload("bounds", buildBoundsCatch(), {99}));
    RunOutcome out = sys.runSequential({99}, false, nullptr);
    ASSERT_TRUE(out.halted);
    EXPECT_FALSE(out.uncaught);
    EXPECT_EQ(out.exitValue, 2u); // handler path

    RunOutcome ok = sys.runSequential({3}, false, nullptr);
    EXPECT_EQ(ok.exitValue, 1u); // in-bounds path
}

TEST(JitProfiling, LoopsDiscoveredAndProfiled)
{
    JrpmSystem sys(makeWorkload("fillsum", buildFillAndSum(), {200}));
    auto profiles = sys.profileOnly();
    // Two top-level loops.
    ASSERT_EQ(profiles.size(), 2u);
    for (const auto &[id, prof] : profiles) {
        EXPECT_EQ(prof.iterations, 200u);
        EXPECT_EQ(prof.entries, 1u);
        EXPECT_GT(prof.threadSize.mean(), 5.0);
    }
    // The annotated run still computes the right answer.
    TestProfiler prof;
    RunOutcome out = sys.runSequential({200}, true, &prof);
    EXPECT_EQ(out.exitValue, expectedFillSum(200));
}

TEST(JitProfiling, CarriedDependencySeenByTest)
{
    JrpmSystem sys(makeWorkload("chain", buildCarriedChain(), {300}));
    auto profiles = sys.profileOnly();
    ASSERT_EQ(profiles.size(), 1u);
    const LoopProfile &p = profiles.begin()->second;
    EXPECT_GT(p.depFrequency(), 0.9);
    EXPECT_DOUBLE_EQ(p.arcDistance.mean(), 1.0);
    ArcSite site;
    double frac;
    ASSERT_TRUE(p.dominantArcSite(site, frac));
    EXPECT_TRUE(site.isLocal);
    EXPECT_EQ(localVarSlotOf(static_cast<std::int32_t>(site.id)),
              2u); // local 's'
}

TEST(JitTls, FullPipelineSpeedsUpParallelLoops)
{
    Workload w = makeWorkload("fillsum", buildFillAndSum(), {600});
    JrpmSystem sys(w);
    JrpmReport rep = sys.run();
    ASSERT_TRUE(rep.tls.halted);
    EXPECT_TRUE(rep.outputsMatch);
    EXPECT_EQ(rep.tls.exitValue, expectedFillSum(600));
    ASSERT_GE(rep.selections.size(), 1u);
    EXPECT_GT(rep.actualSpeedup, 1.4)
        << "seq=" << rep.seqMain.cycles << " tls=" << rep.tls.cycles;
    // The fill loop uses a non-communicating inductor and the sum
    // loop a reduction: no RAW violations at all.
    EXPECT_EQ(rep.tls.stats.violations, 0u);
    // Profiling slowdown stays modest (paper: 7.8% average).
    EXPECT_LT(rep.profilingSlowdown, 1.35);
}

TEST(JitTls, CarriedChainStaysCorrectUnderTls)
{
    // Force selection past the analyzer by requesting the loop
    // directly: even a serializing loop must produce the sequential
    // answer under TLS.
    Workload w = makeWorkload("chain", buildCarriedChain(), {120});
    JrpmSystem sys(w);
    const auto &loops = sys.jit().loopInfos();
    ASSERT_EQ(loops.size(), 1u);
    SelectedStl sel;
    sel.loopId = loops[0].loopId;
    RunOutcome out = sys.runTls({120}, {sel});
    ASSERT_TRUE(out.halted);
    EXPECT_EQ(out.exitValue, chainReference(120, 0));
    // The chain serializes: violations and/or heavy waiting occur.
    EXPECT_GT(out.stats.violations + out.stats.commits, 0u);
}

TEST(JitTls, AnalyzerRejectsSerializingChain)
{
    // A long fully-dependent chain: the producing store lands at the
    // very end of each thread, so the predicted speedup collapses
    // and Jrpm leaves the loop sequential.
    Workload w =
        makeWorkload("chain", buildCarriedChain(10), {2000});
    JrpmSystem sys(w);
    auto sels = sys.selectOnly();
    EXPECT_TRUE(sels.empty());
}

TEST(JitTls, InductorAblationCommunicatesAndStillCorrect)
{
    // §4.2.2: without the non-communicating inductor the loop still
    // runs correctly but with violations/serialization.
    Workload w = makeWorkload("fillsum", buildFillAndSum(), {400});
    JrpmConfig cfg;
    cfg.jit.optLocalInductors = false;
    cfg.jit.optReductions = false;
    JrpmSystem sys(w, cfg);
    const auto &loops = sys.jit().loopInfos();
    ASSERT_GE(loops.size(), 2u);
    std::vector<SelectedStl> sels;
    for (const auto &l : loops) {
        SelectedStl s;
        s.loopId = l.loopId;
        sels.push_back(s);
    }
    RunOutcome out = sys.runTls({400}, sels);
    ASSERT_TRUE(out.halted);
    EXPECT_EQ(out.exitValue, expectedFillSum(400));
    EXPECT_GT(out.stats.violations, 0u);

    // With the optimization on, the same selections run cleanly and
    // faster.
    JrpmSystem sys2(w);
    std::vector<SelectedStl> sels2;
    for (const auto &l : sys2.jit().loopInfos()) {
        SelectedStl s;
        s.loopId = l.loopId;
        sels2.push_back(s);
    }
    RunOutcome out2 = sys2.runTls({400}, sels2);
    EXPECT_EQ(out2.exitValue, expectedFillSum(400));
    EXPECT_LT(out2.cycles, out.cycles);
}

TEST(JitTls, ZeroIterationAndOneIterationLoops)
{
    Workload w = makeWorkload("fillsum", buildFillAndSum(), {600});
    JrpmSystem sys(w);
    auto sels = sys.selectOnly();
    ASSERT_GE(sels.size(), 1u);
    for (Word n : {0u, 1u, 2u, 5u}) {
        RunOutcome out = sys.runTls({n}, sels);
        ASSERT_TRUE(out.halted) << "n=" << n;
        EXPECT_EQ(out.exitValue, expectedFillSum(n)) << "n=" << n;
    }
}

// ---------------------------------------------------------------------
// Loop discovery against references.
// ---------------------------------------------------------------------

/**
 * The original findLoops (iterative dominators intersected over
 * bytecode indices, dominance by idom-chain walks), kept verbatim as
 * the reference that the linear-time version must reproduce.
 */
LoopNest
legacyFindLoops(const BcMethod &m, std::int32_t first_loop_id)
{
    const auto n = static_cast<std::int32_t>(m.code.size());
    LoopNest nest;
    if (n == 0)
        return nest;

    // Reachability from entry (instruction-granularity CFG).
    std::vector<bool> reachable(n, false);
    {
        std::vector<std::int32_t> work{0};
        reachable[0] = true;
        for (const auto &c : m.catches) {
            if (!reachable[c.handler]) {
                reachable[c.handler] = true;
                work.push_back(c.handler);
            }
        }
        while (!work.empty()) {
            std::int32_t at = work.back();
            work.pop_back();
            for (std::int32_t s : bcSuccessors(m, at)) {
                if (s < n && !reachable[s]) {
                    reachable[s] = true;
                    work.push_back(s);
                }
            }
        }
    }

    // Predecessors.
    std::vector<std::vector<std::int32_t>> preds(n);
    for (std::int32_t i = 0; i < n; ++i) {
        if (!reachable[i])
            continue;
        for (std::int32_t s : bcSuccessors(m, i))
            if (s < n)
                preds[s].push_back(i);
    }

    // Iterative dominators (methods are small; O(n^2) is fine).
    constexpr std::int32_t kUndef = -1;
    std::vector<std::int32_t> idom(n, kUndef);
    idom[0] = 0;
    // Catch handlers hang off the entry for domination purposes.
    auto intersect = [&](std::int32_t a, std::int32_t b) {
        while (a != b) {
            while (a > b)
                a = idom[a];
            while (b > a)
                b = idom[b];
        }
        return a;
    };
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::int32_t i = 1; i < n; ++i) {
            if (!reachable[i])
                continue;
            std::int32_t nidom = kUndef;
            for (std::int32_t p : preds[i]) {
                if (idom[p] == kUndef)
                    continue;
                nidom = nidom == kUndef ? p : intersect(nidom, p);
            }
            if (nidom == kUndef) {
                // Only reachable through a catch edge: dominated by
                // the entry.
                nidom = 0;
            }
            if (idom[i] != nidom) {
                idom[i] = nidom;
                changed = true;
            }
        }
    }

    auto dominates = [&](std::int32_t a, std::int32_t b) {
        while (true) {
            if (a == b)
                return true;
            if (b == 0)
                return false;
            std::int32_t next = idom[b];
            if (next == b || next == kUndef)
                return false;
            b = next;
        }
    };

    // Back edges and natural loops; merge loops sharing a header.
    std::vector<JitLoop> loops;
    for (std::int32_t i = 0; i < n; ++i) {
        if (!reachable[i])
            continue;
        for (std::int32_t h : bcSuccessors(m, i)) {
            if (h >= n || !dominates(h, i))
                continue;
            // Natural loop of back edge i -> h.
            std::set<std::int32_t> body{h};
            std::vector<std::int32_t> work;
            if (i != h) {
                body.insert(i);
                work.push_back(i);
            }
            while (!work.empty()) {
                std::int32_t at = work.back();
                work.pop_back();
                for (std::int32_t p : preds[at])
                    if (body.insert(p).second)
                        work.push_back(p);
            }
            JitLoop *existing = nullptr;
            for (auto &l : loops)
                if (l.header == h)
                    existing = &l;
            if (existing) {
                existing->body.insert(body.begin(), body.end());
                existing->latches.push_back(i);
            } else {
                JitLoop l;
                l.header = h;
                l.body = std::move(body);
                l.latches.push_back(i);
                loops.push_back(std::move(l));
            }
        }
    }

    // Sort outermost-first (larger bodies first), assign ids and
    // parents.
    std::sort(loops.begin(), loops.end(),
              [](const JitLoop &a, const JitLoop &b) {
                  if (a.body.size() != b.body.size())
                      return a.body.size() > b.body.size();
                  return a.header < b.header;
              });
    for (std::size_t i = 0; i < loops.size(); ++i)
        loops[i].loopId = first_loop_id +
                          static_cast<std::int32_t>(i);
    for (std::size_t i = 0; i < loops.size(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            // The closest enclosing loop is the smallest superset.
            const bool contains = std::includes(
                loops[j].body.begin(), loops[j].body.end(),
                loops[i].body.begin(), loops[i].body.end()) &&
                loops[j].body.size() > loops[i].body.size();
            if (contains) {
                loops[i].parent = loops[j].loopId;
                loops[i].depth = loops[j].depth + 1;
            }
        }
    }

    nest.loops = std::move(loops);
    return nest;
}

/** Bytecodes reachable from the entry and the catch handlers when
 *  @p removed (-1 for none) is taken out of the CFG. */
std::vector<bool>
reachableWithout(const BcMethod &m, std::int32_t removed)
{
    const auto n = static_cast<std::int32_t>(m.code.size());
    std::vector<bool> seen(n, false);
    std::vector<std::int32_t> work;
    auto visit = [&](std::int32_t v) {
        if (v < n && v != removed && !seen[v]) {
            seen[v] = true;
            work.push_back(v);
        }
    };
    visit(0);
    for (const auto &c : m.catches)
        visit(c.handler);
    while (!work.empty()) {
        const std::int32_t at = work.back();
        work.pop_back();
        for (std::int32_t s : bcSuccessors(m, at))
            visit(s);
    }
    return seen;
}

/** One loop of the brute-force reference, keyed by its header. */
struct RefLoop
{
    std::vector<std::int32_t> latches;
    std::set<std::int32_t> body;
};

/**
 * Natural loops by definition: a dominates b iff b is unreachable
 * from the entry and the catch handlers once a is removed; an edge
 * i -> h is a back edge iff h dominates i; a header's body is the
 * header plus everything that reaches one of its latches without
 * passing it.
 */
std::map<std::int32_t, RefLoop>
bruteForceLoops(const BcMethod &m)
{
    const auto n = static_cast<std::int32_t>(m.code.size());
    const std::vector<bool> reachable = reachableWithout(m, -1);
    std::map<std::int32_t, RefLoop> out;
    for (std::int32_t i = 0; i < n; ++i) {
        if (!reachable[i])
            continue;
        for (std::int32_t h : bcSuccessors(m, i)) {
            if (h >= n || reachableWithout(m, h)[i])
                continue;
            RefLoop &l = out[h];
            l.latches.push_back(i);
            l.body.insert(h);
            std::vector<std::int32_t> work;
            if (l.body.insert(i).second)
                work.push_back(i);
            while (!work.empty()) {
                const std::int32_t at = work.back();
                work.pop_back();
                for (std::int32_t p = 0; p < n; ++p) {
                    if (!reachable[p])
                        continue;
                    for (std::int32_t s : bcSuccessors(m, p))
                        if (s == at && l.body.insert(p).second)
                            work.push_back(p);
                }
            }
        }
    }
    return out;
}

/** findLoops' headers, latches and bodies equal the reference's. */
void
expectMatchesBruteForce(const BcMethod &m, const std::string &what)
{
    const LoopNest nest = findLoops(m, 0);
    const std::map<std::int32_t, RefLoop> ref = bruteForceLoops(m);
    ASSERT_EQ(nest.loops.size(), ref.size()) << what;
    for (const JitLoop &l : nest.loops) {
        const auto it = ref.find(l.header);
        ASSERT_NE(it, ref.end()) << what << ": header " << l.header;
        EXPECT_EQ(l.latches, it->second.latches)
            << what << ": header " << l.header;
        EXPECT_EQ(l.body, it->second.body)
            << what << ": header " << l.header;
    }
}

/** A method from (op, imm) pairs; every other field is irrelevant to
 *  loop discovery. */
BcMethod
cfgMethod(std::vector<BcInst> code, std::vector<BcCatch> catches = {})
{
    BcMethod m;
    m.name = "cfg";
    m.code = std::move(code);
    m.catches = std::move(catches);
    return m;
}

constexpr BcInst kNop{Bc::BCNOP, 0, 0};

/**
 * A dominator laid out after the code it dominates: 12 is entered
 * from 3 and dominates 8, 9, 10 and 13, but has the higher bytecode
 * index.  Intersecting idoms by bytecode index loses the back edge
 * 10 -> 12; reverse-postorder numbers keep it.
 */
BcMethod
dominatorAfterDominatedMethod()
{
    std::vector<BcInst> code(14, kNop);
    code[0] = {Bc::GOTO, 3, 0};
    code[3] = {Bc::GOTO, 12, 0};
    code[8] = {Bc::GOTO, 10, 0};
    code[10] = {Bc::GOTO, 12, 0};
    code[12] = {Bc::IFEQ, 8, 0};
    code[13] = {Bc::GOTO, 9, 0};
    return cfgMethod(std::move(code));
}

TEST(LoopDiscovery, DominatorAfterDominatedCodeStillFindsTheLoop)
{
    const BcMethod m = dominatorAfterDominatedMethod();
    const LoopNest nest = findLoops(m, 0);
    ASSERT_EQ(nest.loops.size(), 1u);
    const JitLoop &l = nest.loops[0];
    EXPECT_EQ(l.header, 12);
    EXPECT_EQ(l.latches, std::vector<std::int32_t>{10});
    EXPECT_EQ(l.body, (std::set<std::int32_t>{8, 9, 10, 12, 13}));
    EXPECT_EQ(l.parent, -1);
    EXPECT_EQ(l.depth, 1u);
    expectMatchesBruteForce(m, "dominator after dominated");
    // The layout the bytecode-index intersect got wrong.
    EXPECT_TRUE(legacyFindLoops(m, 0).loops.empty());
}

TEST(LoopDiscovery, HandBuiltCfgsMatchBruteForceDominance)
{
    // Self-loop: 1 -> 1.
    expectMatchesBruteForce(
        cfgMethod({kNop, {Bc::IFEQ, 1, 0}, {Bc::RET, 0, 0}}),
        "self-loop");
    // A loop reachable only through a catch handler (2..3).
    expectMatchesBruteForce(
        cfgMethod({kNop, {Bc::RET, 0, 0}, kNop, {Bc::IFEQ, 2, 0},
                   {Bc::RET, 0, 0}},
                  {BcCatch{0, 1, 2, -1}}),
        "handler-only loop");
    // Unreachable code after a GOTO, itself a cycle (3 <-> 4).
    expectMatchesBruteForce(
        cfgMethod({kNop, {Bc::IFEQ, 0, 0}, {Bc::GOTO, 5, 0}, kNop,
                   {Bc::GOTO, 3, 0}, {Bc::RET, 0, 0}}),
        "unreachable after goto");
    // Two latches (2 and 3) sharing header 1.
    expectMatchesBruteForce(
        cfgMethod({kNop, kNop, {Bc::IFEQ, 1, 0}, {Bc::IFNE, 1, 0},
                   {Bc::RET, 0, 0}}),
        "two latches");
    expectMatchesBruteForce(dominatorAfterDominatedMethod(),
                            "dominator after dominated");
    // Irreducible: the cycle 1 <-> 2 is entered at both, so neither
    // dominates the other and there is no natural loop.
    const BcMethod irreducible = cfgMethod(
        {{Bc::IFEQ, 2, 0}, kNop, {Bc::IFNE, 1, 0}, {Bc::RET, 0, 0}});
    EXPECT_TRUE(findLoops(irreducible, 0).loops.empty());
    expectMatchesBruteForce(irreducible, "irreducible");
}

TEST(LoopDiscovery, NestedBottomTestedLoops)
{
    // while-loops laid out test-last, the inner inside the outer:
    //   0: goto 6 | 1: goto 3 | 2: inner body | 3: if -> 2
    //   4, 5: outer tail | 6: if -> 1 | 7: ret
    const BcMethod m = cfgMethod(
        {{Bc::GOTO, 6, 0}, {Bc::GOTO, 3, 0}, kNop, {Bc::IFEQ, 2, 0},
         kNop, kNop, {Bc::IFNE, 1, 0}, {Bc::RET, 0, 0}});
    expectMatchesBruteForce(m, "nested bottom-tested");
    const LoopNest nest = findLoops(m, 7);
    ASSERT_EQ(nest.loops.size(), 2u);
    const JitLoop &outer = nest.loops[0], &inner = nest.loops[1];
    EXPECT_EQ(outer.loopId, 7);
    EXPECT_EQ(outer.header, 6);
    EXPECT_EQ(outer.body, (std::set<std::int32_t>{1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(outer.parent, -1);
    EXPECT_EQ(outer.depth, 1u);
    EXPECT_EQ(inner.loopId, 8);
    EXPECT_EQ(inner.header, 3);
    EXPECT_EQ(inner.latches, std::vector<std::int32_t>{2});
    EXPECT_EQ(inner.body, (std::set<std::int32_t>{2, 3}));
    EXPECT_EQ(inner.parent, 7);
    EXPECT_EQ(inner.depth, 2u);
}

/** Every field of two nests is identical. */
void
expectSameNest(const LoopNest &got, const LoopNest &want,
               const std::string &what)
{
    ASSERT_EQ(got.loops.size(), want.loops.size()) << what;
    for (std::size_t i = 0; i < got.loops.size(); ++i) {
        const JitLoop &g = got.loops[i], &w = want.loops[i];
        EXPECT_EQ(g.loopId, w.loopId) << what << " loop " << i;
        EXPECT_EQ(g.header, w.header) << what << " loop " << i;
        EXPECT_EQ(g.parent, w.parent) << what << " loop " << i;
        EXPECT_EQ(g.depth, w.depth) << what << " loop " << i;
        EXPECT_EQ(g.body, w.body) << what << " loop " << i;
        EXPECT_EQ(g.latches, w.latches) << what << " loop " << i;
    }
}

/** Both the program as written and the Jit's inlined copy of it. */
void
expectSameAsLegacy(const BcProgram &prog, const std::string &what)
{
    const Jit jit(prog);
    for (const BcProgram *p : {&prog, &jit.program()}) {
        std::int32_t next_id = 3;
        for (const BcMethod &m : p->methods) {
            const LoopNest want = legacyFindLoops(m, next_id);
            expectSameNest(findLoops(m, next_id), want,
                           what + " " + m.name);
            next_id += static_cast<std::int32_t>(want.loops.size());
        }
    }
}

TEST(LoopDiscovery, MatchesLegacyOnForgeWorkloadsAndCorpus)
{
    for (std::uint64_t seed = 1; seed <= 2000; ++seed)
        expectSameAsLegacy(forge::render(forge::generate(seed)),
                           "forge seed " + std::to_string(seed));

    const std::vector<Workload> suite = wl::allWorkloads();
    EXPECT_EQ(suite.size(), 26u);
    for (const Workload &w : suite)
        expectSameAsLegacy(w.program, w.name);

    const std::vector<std::string> files =
        forge::listCorpus(JRPM_FORGE_CORPUS_DIR);
    ASSERT_GE(files.size(), 10u);
    for (const std::string &path : files) {
        forge::CorpusEntry e;
        std::string err;
        ASSERT_TRUE(forge::readCorpusEntry(path, e, &err)) << err;
        expectSameAsLegacy(forge::render(e.spec), path);
    }
}

TEST(LoopDiscovery, MatchesBruteForceOnWorkloads)
{
    for (const Workload &w : wl::allWorkloads())
        for (const BcMethod &m : w.program.methods)
            expectMatchesBruteForce(m, w.name + " " + m.name);
    for (std::uint64_t seed = 1; seed <= 200; ++seed)
        for (const BcMethod &m :
             forge::render(forge::generate(seed)).methods)
            expectMatchesBruteForce(
                m, "forge seed " + std::to_string(seed));
}

} // namespace
} // namespace jrpm
