/**
 * @file
 * Property-based tests over forge-generated scenarios: every program
 * the grammar produces must behave identically sequentially and under
 * forced speculative execution, across every optimization
 * configuration, down to the full final memory image.  The generator
 * itself lives in src/forge (shared with the campaign runner and the
 * shrinker); these tests pin the correctness property it exists to
 * stress.
 */

#include <gtest/gtest.h>

#include "core/jrpm.hh"
#include "core/oracle.hh"
#include "forge/forge.hh"
#include "vm/runtime.hh"

namespace jrpm
{
namespace
{

class RandomTls : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomTls, ForcedSpeculationMatchesSequential)
{
    const forge::ScenarioSpec spec =
        forge::generate(0xfeed0000u + static_cast<unsigned>(GetParam()));
    const Workload w = forge::scenarioWorkload(spec);
    ASSERT_EQ(verify(w.program), "");

    JrpmSystem sys(w);
    RunOutcome seq = sys.runSequential(w.mainArgs, false, nullptr);
    ASSERT_TRUE(seq.halted);
    ASSERT_FALSE(seq.uncaught);

    // Force speculation on EVERY loop the compiler will accept —
    // the analyzer's judgment is irrelevant to the correctness
    // property.  (Drop selections that could dynamically nest.)
    for (const auto &li : sys.jit().loopInfos()) {
        SelectedStl sel;
        sel.loopId = li.loopId;
        RunOutcome tls = sys.runTls(w.mainArgs, {sel});
        ASSERT_TRUE(tls.halted) << "loop " << li.loopId;
        EXPECT_EQ(tls.exitValue, seq.exitValue)
            << "loop " << li.loopId << " seed " << GetParam()
            << " axes " << forge::axesDescribe(spec.axes());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTls, ::testing::Range(0, 24));

/** The same property under every ablation configuration. */
class RandomTlsAblations : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomTlsAblations, AllOptConfigsMatchSequential)
{
    const forge::ScenarioSpec spec =
        forge::generate(0xabba0000u + static_cast<unsigned>(GetParam()));
    const Workload w = forge::scenarioWorkload(spec);
    ASSERT_EQ(verify(w.program), "");

    Word expected = 0;
    bool first = true;
    for (int mask = 0; mask < 16; ++mask) {
        JrpmConfig cfg;
        cfg.jit.optLocalInductors = !(mask & 1);
        cfg.jit.optReductions = !(mask & 2);
        cfg.jit.optLoopInvariantRegs = !(mask & 4);
        cfg.jit.optSyncLocks = !(mask & 8);
        JrpmSystem sys(w, cfg);
        RunOutcome seq =
            sys.runSequential(w.mainArgs, false, nullptr);
        auto sels = sys.selectOnly();
        RunOutcome tls = sys.runTls(w.mainArgs, sels);
        ASSERT_TRUE(tls.halted) << "mask " << mask;
        EXPECT_EQ(tls.exitValue, seq.exitValue) << "mask " << mask;
        if (first) {
            expected = seq.exitValue;
            first = false;
        }
        // The program's sequential semantics must not depend on the
        // optimization configuration at all.
        EXPECT_EQ(seq.exitValue, expected) << "mask " << mask;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTlsAblations,
                         ::testing::Range(0, 8));

/**
 * Differential memory oracle: beyond the exit-value check above, the
 * speculative run must leave the *entire* final memory image (heap,
 * statics) bit-identical to the sequential golden run, for every loop
 * the compiler accepts, across random program shapes.
 */
class OracleFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(OracleFuzz, StrictOracleCleanAcrossSeeds)
{
    const forge::ScenarioSpec spec =
        forge::generate(0x0ac1e000u + static_cast<unsigned>(GetParam()));
    const Workload w = forge::scenarioWorkload(spec);
    ASSERT_EQ(verify(w.program), "");

    JrpmConfig cfg;
    cfg.vm.heapBytes = 4u << 20;
    cfg.oracle.mode = OracleMode::Strict;
    JrpmSystem sys(w, cfg);
    RunOutcome seq = sys.runSequential(w.mainArgs, false, nullptr);
    ASSERT_TRUE(seq.halted);
    ASSERT_FALSE(seq.uncaught);
    ASSERT_TRUE(seq.memImage);

    const auto skip =
        VmRuntime::scratchRegions(cfg.vm, cfg.sys.numCpus);
    for (const auto &li : sys.jit().loopInfos()) {
        SelectedStl sel;
        sel.loopId = li.loopId;
        RunOutcome tls = sys.runTls(w.mainArgs, {sel});
        ASSERT_TRUE(tls.halted) << "loop " << li.loopId;
        const OracleReport rep = Oracle::compare(
            cfg.oracle, seq.digest(), tls.digest(), skip);
        EXPECT_TRUE(rep.match())
            << "loop " << li.loopId << " seed " << GetParam()
            << ": " << rep.summary();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleFuzz, ::testing::Range(0, 16));

} // namespace
} // namespace jrpm
