/**
 * @file
 * Tests of the observability stack: flight-recorder ring mechanics,
 * span reconstruction with violated-window recoloring, Chrome JSON
 * export (re-parsed by a minimal JSON reader), the violation ledger
 * against a hand-assembled STL that is guaranteed to squash, the
 * metrics registry, and an end-to-end check that per-CPU span
 * accounting reproduces the Fig. 10 ExecStats buckets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/hostprof.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/obs.hh"
#include "common/trace.hh"
#include "core/jrpm.hh"
#include "core/report_json.hh"
#include "cpu/stats.hh"
#include "forge/campaign.hh"
#include "forge/forge.hh"
#include "tls/machine.hh"
#include "workloads/workloads.hh"

namespace jrpm
{
namespace
{

constexpr Addr kStackTop = 0x80000;
constexpr Addr kArrayBase = 0x1000;
constexpr std::int32_t kLoopId = 7;

SystemConfig
testConfig()
{
    SystemConfig cfg;
    cfg.memBytes = 1u << 20;
    return cfg;
}

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON reader, just enough to re-parse the
// exporter's output and prove it is well-formed.
// ---------------------------------------------------------------------

struct Json
{
    enum Kind { Null, Bool, Num, Str, Arr, Obj } kind = Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    const Json &
    operator[](const std::string &key) const
    {
        static const Json missing;
        auto it = obj.find(key);
        return it == obj.end() ? missing : it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s(text) {}

    bool
    parse(Json &out)
    {
        ok = true;
        value(out);
        ws();
        return ok && i == s.size();
    }

  private:
    const std::string &s;
    std::size_t i = 0;
    bool ok = true;

    void ws() { while (i < s.size() && std::isspace(
        static_cast<unsigned char>(s[i]))) ++i; }

    bool
    eat(char c)
    {
        ws();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return false;
    }

    void
    value(Json &out)
    {
        ws();
        if (i >= s.size()) {
            ok = false;
            return;
        }
        const char c = s[i];
        if (c == '{')
            object(out);
        else if (c == '[')
            array(out);
        else if (c == '"')
            string(out);
        else if (c == 't' || c == 'f')
            boolean(out);
        else if (c == 'n')
            null(out);
        else
            number(out);
    }

    void
    object(Json &out)
    {
        out.kind = Json::Obj;
        ok = ok && eat('{');
        if (eat('}'))
            return;
        do {
            Json key;
            ws();
            if (i >= s.size() || s[i] != '"') {
                ok = false;
                return;
            }
            string(key);
            ok = ok && eat(':');
            value(out.obj[key.str]);
            if (!ok)
                return;
        } while (eat(','));
        ok = ok && eat('}');
    }

    void
    array(Json &out)
    {
        out.kind = Json::Arr;
        ok = ok && eat('[');
        if (eat(']'))
            return;
        do {
            out.arr.emplace_back();
            value(out.arr.back());
            if (!ok)
                return;
        } while (eat(','));
        ok = ok && eat(']');
    }

    void
    string(Json &out)
    {
        out.kind = Json::Str;
        ok = ok && eat('"');
        while (ok && i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size()) {
                    ok = false;
                    return;
                }
                switch (s[i]) {
                  case '"': out.str += '"'; break;
                  case '\\': out.str += '\\'; break;
                  case 'n': out.str += '\n'; break;
                  case 't': out.str += '\t'; break;
                  case 'u':
                    if (i + 4 >= s.size()) {
                        ok = false;
                        return;
                    }
                    out.str += '?'; // escapes only carry control chars
                    i += 4;
                    break;
                  default: ok = false; return;
                }
                ++i;
            } else {
                out.str += s[i++];
            }
        }
        ok = ok && eat('"');
    }

    void
    boolean(Json &out)
    {
        out.kind = Json::Bool;
        if (s.compare(i, 4, "true") == 0) {
            out.b = true;
            i += 4;
        } else if (s.compare(i, 5, "false") == 0) {
            out.b = false;
            i += 5;
        } else {
            ok = false;
        }
    }

    void
    null(Json &out)
    {
        out.kind = Json::Null;
        if (s.compare(i, 4, "null") == 0)
            i += 4;
        else
            ok = false;
    }

    void
    number(Json &out)
    {
        out.kind = Json::Num;
        const std::size_t start = i;
        if (i < s.size() && (s[i] == '-' || s[i] == '+'))
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '-' || s[i] == '+'))
            ++i;
        if (i == start) {
            ok = false;
            return;
        }
        out.num = std::stod(s.substr(start, i - start));
    }
};

// ---------------------------------------------------------------------
// Ring-buffer mechanics (direct record() calls work in both trace
// build configurations; only the macros compile out).
// ---------------------------------------------------------------------

class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Trace::global().configure(4, 64);
        Trace::global().setEnabled(true);
    }

    void
    TearDown() override
    {
        Trace::global().setEnabled(false);
        Trace::global().clear();
    }
};

TEST_F(TraceTest, RecordsAndReadsBackInOrder)
{
    Trace &tr = Trace::global();
    for (Cycle ts = 0; ts < 10; ++ts)
        tr.record(2, TraceEvt::VmTrap, ts,
                  static_cast<std::int32_t>(ts));
    const auto evs = tr.events(2);
    ASSERT_EQ(evs.size(), 10u);
    for (std::size_t k = 0; k < evs.size(); ++k) {
        EXPECT_EQ(evs[k].ts, k);
        EXPECT_EQ(evs[k].kind, TraceEvt::VmTrap);
        EXPECT_EQ(evs[k].track, 2u);
    }
    EXPECT_EQ(tr.totalRecorded(), 10u);
    EXPECT_EQ(tr.dropped(), 0u);
    EXPECT_TRUE(tr.events(0).empty());
}

TEST_F(TraceTest, WraparoundKeepsNewestEvents)
{
    Trace &tr = Trace::global();
    for (Cycle ts = 0; ts < 100; ++ts)
        tr.record(1, TraceEvt::MemStall, ts);
    const auto evs = tr.events(1);
    ASSERT_EQ(evs.size(), 64u);       // ring capacity
    EXPECT_EQ(evs.front().ts, 36u);   // oldest surviving event
    EXPECT_EQ(evs.back().ts, 99u);
    for (std::size_t k = 1; k < evs.size(); ++k)
        EXPECT_EQ(evs[k].ts, evs[k - 1].ts + 1);
    EXPECT_EQ(tr.totalRecorded(), 100u);
    EXPECT_EQ(tr.dropped(), 36u);
}

TEST_F(TraceTest, DisabledAndUnknownTracksRecordNothing)
{
    Trace &tr = Trace::global();
    tr.setEnabled(false);
    tr.record(0, TraceEvt::VmTrap, 1);
    EXPECT_EQ(tr.totalRecorded(), 0u);
    tr.setEnabled(true);
    tr.record(200, TraceEvt::VmTrap, 1); // no such cpu track
    EXPECT_EQ(tr.totalRecorded(), 0u);
    tr.record(Trace::kHostTrack, TraceEvt::VmTrap, 1);
    EXPECT_EQ(tr.events(Trace::kHostTrack).size(), 1u);
}

TEST_F(TraceTest, PhasesOffsetLaterRunsPastEarlierOnes)
{
    Trace &tr = Trace::global();
    tr.beginPhase("first");
    tr.record(0, TraceEvt::StateChange, 0,
              static_cast<std::int32_t>(TraceState::Serial));
    tr.record(0, TraceEvt::StateChange, 10,
              static_cast<std::int32_t>(TraceState::Idle));
    // A second machine run restarts its cycle counter at 0; the
    // phase offset must keep it past everything recorded so far.
    tr.beginPhase("second");
    tr.record(0, TraceEvt::StateChange, 0,
              static_cast<std::int32_t>(TraceState::Serial));
    const auto evs = tr.events(0);
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].ts, 0u);
    EXPECT_EQ(evs[1].ts, 10u);
    EXPECT_EQ(evs[2].ts, 11u);
    ASSERT_EQ(tr.phases().size(), 2u);
    EXPECT_EQ(tr.phases()[0].second, "first");
    EXPECT_EQ(tr.phases()[1].first, 11u);
}

TEST_F(TraceTest, MacroCompilesOutWhenConfiguredOff)
{
    JRPM_TRACE(0, TraceEvt::VmTrap, 5, 1);
#if JRPM_TRACE_ENABLED
    EXPECT_TRUE(JRPM_TRACE_ON());
    EXPECT_EQ(Trace::global().totalRecorded(), 1u);
#else
    EXPECT_FALSE(JRPM_TRACE_ON());
    EXPECT_EQ(Trace::global().totalRecorded(), 0u);
#endif
}

// ---------------------------------------------------------------------
// Span reconstruction.
// ---------------------------------------------------------------------

void
recordState(std::uint8_t track, Cycle ts, TraceState s)
{
    Trace::global().record(track, TraceEvt::StateChange, ts,
                           static_cast<std::int32_t>(s));
}

TEST_F(TraceTest, SpansFollowStateChanges)
{
    recordState(0, 0, TraceState::Serial);
    recordState(0, 40, TraceState::SpecRun);
    recordState(0, 70, TraceState::Serial);
    recordState(1, 40, TraceState::SpecWait);
    const auto spans = Trace::global().spans();
    std::vector<TraceSpan> t0, t1;
    for (const auto &s : spans)
        (s.track == 0 ? t0 : t1).push_back(s);
    ASSERT_EQ(t0.size(), 3u);
    EXPECT_EQ(t0[0].state, TraceState::Serial);
    EXPECT_EQ(t0[0].begin, 0u);
    EXPECT_EQ(t0[0].end, 40u);
    EXPECT_EQ(t0[1].state, TraceState::SpecRun);
    EXPECT_EQ(t0[1].length(), 30u);
    // Final open span closed at the last recorded timestamp + 1.
    EXPECT_EQ(t0[2].end, 71u);
    ASSERT_EQ(t1.size(), 1u);
    EXPECT_EQ(t1[0].state, TraceState::SpecWait);
    EXPECT_EQ(t1[0].begin, 40u);
}

TEST_F(TraceTest, ViolatedWindowRecolorsAndSplitsSpans)
{
    // run [0,10) wait [10,15), then the thread is squashed with a
    // window covering [5,15): the run span must split at 5.
    recordState(0, 0, TraceState::SpecRun);
    recordState(0, 10, TraceState::SpecWait);
    Trace::global().record(0, TraceEvt::ViolatedWindow, 15, 0, 10);
    recordState(0, 15, TraceState::SpecRun);
    recordState(0, 20, TraceState::Idle);
    auto spans = Trace::global().spans();
    std::vector<TraceSpan> t0;
    for (const auto &s : spans)
        if (s.track == 0)
            t0.push_back(s);
    ASSERT_EQ(t0.size(), 5u);
    EXPECT_EQ(t0[0].state, TraceState::SpecRun);
    EXPECT_EQ(t0[0].end, 5u);
    EXPECT_EQ(t0[1].state, TraceState::SpecRunViolated);
    EXPECT_EQ(t0[1].begin, 5u);
    EXPECT_EQ(t0[1].end, 10u);
    EXPECT_EQ(t0[2].state, TraceState::SpecWaitViolated);
    EXPECT_EQ(t0[2].end, 15u);
    EXPECT_EQ(t0[3].state, TraceState::SpecRun);
    EXPECT_EQ(t0[3].begin, 15u);
    EXPECT_EQ(t0[4].state, TraceState::Idle);
}

// ---------------------------------------------------------------------
// Chrome JSON export.
// ---------------------------------------------------------------------

TEST_F(TraceTest, ChromeJsonParsesBackWithLedgerAndSpans)
{
    Trace &tr = Trace::global();
    recordState(0, 0, TraceState::Serial);
    recordState(0, 50, TraceState::Idle);
    tr.record(1, TraceEvt::MemStall, 12, 1, kArrayBase, 50);
    tr.record(Trace::kHostTrack, TraceEvt::JitCompile, 0, 0, 99, 3);
    ViolationRecord rec;
    rec.cycle = 33;
    rec.addr = 0x2a;
    rec.storeSite = 7;
    rec.loopId = kLoopId;
    rec.storeCpu = 2;
    rec.victimCpu = 3;
    rec.victimIteration = 5;
    rec.victimProgress = 17;
    tr.recordViolation(rec);

    Json root;
    ASSERT_TRUE(JsonParser(tr.exportChromeJson()).parse(root));
    const Json &evs = root["traceEvents"];
    ASSERT_EQ(evs.kind, Json::Arr);

    std::size_t meta = 0, complete = 0, instants = 0;
    for (const Json &e : evs.arr) {
        ASSERT_EQ(e.kind, Json::Obj);
        const std::string ph = e["ph"].str;
        if (ph == "M") {
            ++meta;
        } else if (ph == "X") {
            ++complete;
            EXPECT_EQ(e["name"].str, "serial");
            EXPECT_EQ(e["dur"].num, 50.0);
        } else if (ph == "i") {
            ++instants;
        }
    }
    EXPECT_EQ(meta, 5u);       // 4 cpu tracks + host
    EXPECT_EQ(complete, 1u);   // the Idle span is not exported
    EXPECT_EQ(instants, 2u);   // mem_stall + jit_compile

    const Json &ledger = root["violationLedger"];
    ASSERT_EQ(ledger.kind, Json::Arr);
    ASSERT_EQ(ledger.arr.size(), 1u);
    EXPECT_EQ(ledger.arr[0]["addr"].str, "0x2a");
    EXPECT_EQ(ledger.arr[0]["victimCpu"].num, 3.0);
    EXPECT_EQ(ledger.arr[0]["victimProgress"].num, 17.0);
    EXPECT_EQ(root["droppedEvents"].num, 0.0);
    EXPECT_EQ(root["droppedViolations"].num, 0.0);
}

// ---------------------------------------------------------------------
// Machine integration: a hand-assembled STL whose iterations
// communicate the inductor through memory, guaranteeing RAW squashes.
// ---------------------------------------------------------------------

/**
 * `void f(int *a, int n)`: a[i]++ with i carried through the stack
 * (the pre-§4.2.2 decomposition, Fig. 4), so every speculative
 * iteration violates on the inductor store.
 */
std::uint32_t
buildCommunicatedStl(CodeSpace &cs)
{
    Asm a("stl_comm");
    const int FRAME = 64;
    auto SLAVE = a.newLabel();
    auto RESTART = a.newLabel();
    auto INIT = a.newLabel();
    auto TOP = a.newLabel();
    auto SHUTDOWN = a.newLabel();

    a.aluRI(Op::ADDIU, R_SP, R_SP, -FRAME);
    a.store(Op::SW, R_RA, R_SP, FRAME - 4);
    a.store(Op::SW, R_FP, R_SP, FRAME - 8);
    a.aluRI(Op::ADDIU, R_FP, R_SP, FRAME);
    a.store(Op::SW, R_A0, R_FP, -16);
    a.store(Op::SW, R_A1, R_FP, -20);
    a.store(Op::SW, R_ZERO, R_FP, -12);

    a.mtc2(R_FP, Cp2Reg::SavedFp);
    a.scopT(ScopCmd::EnableSpec, RESTART, kLoopId);
    a.scopT(ScopCmd::WakeSlaves, SLAVE);
    a.jump(INIT);

    a.bind(SLAVE);
    a.mfc2(R_FP, Cp2Reg::SavedFp);
    a.aluRI(Op::ADDIU, R_SP, R_FP, -FRAME);
    a.jump(INIT);

    a.bind(RESTART);
    a.scop(ScopCmd::ResetCache);
    a.smem(SmemCmd::KillBuffer);
    a.mfc2(R_FP, Cp2Reg::SavedFp);
    a.aluRI(Op::ADDIU, R_SP, R_FP, -FRAME);
    a.jump(INIT);

    a.bind(INIT);
    a.load(Op::LW, R_S0, R_FP, -16);
    a.load(Op::LW, R_S2, R_FP, -20);
    a.load(Op::LW, R_S1, R_FP, -12); // carried i: the violation source

    a.bind(TOP);
    a.branch(Op::BGE, R_S1, R_S2, SHUTDOWN);
    a.aluRI(Op::SLL, R_T0, R_S1, 2);
    a.aluRR(Op::ADDU, R_T0, R_T0, R_S0);
    a.load(Op::LW, R_T1, R_T0, 0);
    a.aluRI(Op::ADDIU, R_T1, R_T1, 1);
    a.store(Op::SW, R_T1, R_T0, 0);

    a.aluRI(Op::ADDIU, R_S1, R_S1, 1);
    a.store(Op::SW, R_S1, R_FP, -12);
    a.scop(ScopCmd::WaitHead);
    a.smem(SmemCmd::CommitBufferAndHead);
    a.scop(ScopCmd::AdvanceCache);
    a.jump(INIT);

    a.bind(SHUTDOWN);
    a.scop(ScopCmd::WaitHead);
    a.smem(SmemCmd::CommitBuffer);
    a.scop(ScopCmd::DisableSpec);
    a.scop(ScopCmd::KillSlaves);

    a.load(Op::LW, R_RA, R_FP, -4);
    a.load(Op::LW, R_T0, R_FP, -8);
    a.move(R_SP, R_FP);
    a.move(R_FP, R_T0);
    a.jr(R_RA);

    a.setFrameBytes(FRAME);
    return cs.install(a.finish());
}

TEST(TraceMachine, ViolationLedgerAttributesSquashes)
{
    Trace &tr = Trace::global();
    tr.configure(4, 1u << 16);
    tr.setEnabled(true);

    Machine m(testConfig());
    const std::uint32_t id = buildCommunicatedStl(m.codeSpace());
    const int n = 40;
    for (int i = 0; i < n; ++i)
        m.memory().writeWord(kArrayBase + 4 * i, 0);
    m.start(id, {kArrayBase, n}, kStackTop);
    ASSERT_TRUE(m.run(1'000'000));
    for (int i = 0; i < n; ++i)
        ASSERT_EQ(m.memory().readWord(kArrayBase + 4 * i), 1u);

    tr.setEnabled(false);

#if !JRPM_TRACE_ENABLED
    // A trace-disabled build must emit no events at all even with the
    // recorder switched on.
    EXPECT_EQ(tr.totalRecorded(), 0u);
    EXPECT_TRUE(tr.violations().empty());
    tr.clear();
    GTEST_SKIP() << "trace compiled out";
#else
    EXPECT_GT(m.stats().violations, 0u);
    EXPECT_EQ(tr.dropped(), 0u);

    ASSERT_FALSE(tr.violations().empty());
    EXPECT_EQ(tr.violations().size() + tr.violationsDropped(),
              m.stats().violations);
    for (const ViolationRecord &v : tr.violations()) {
        EXPECT_EQ(v.loopId, kLoopId);
        EXPECT_LT(v.storeCpu, 4u);
        EXPECT_LT(v.victimCpu, 4u);
        EXPECT_NE(v.storeSite, 0u);
        // Squashes come from the loop's data: either the carried
        // inductor's stack slot or an a[i] element.
        const bool frameSlot = v.addr == kStackTop - 12;
        const bool arrayElem =
            v.addr >= kArrayBase && v.addr < kArrayBase + 4 * 40;
        EXPECT_TRUE(frameSlot || arrayElem)
            << "unexpected violation addr " << v.addr;
    }

    // Event streams line up with the architectural counters.
    std::uint64_t commits = 0, violatedEvts = 0, stlEntries = 0;
    for (std::uint8_t t = 0; t < 4; ++t) {
        for (const TraceEvent &e : tr.events(t)) {
            if (e.kind == TraceEvt::ThreadCommit)
                ++commits;
            else if (e.kind == TraceEvt::ThreadViolated)
                ++violatedEvts;
            else if (e.kind == TraceEvt::StlEntry)
                ++stlEntries;
        }
    }
    EXPECT_EQ(commits, m.stats().commits);
    EXPECT_EQ(violatedEvts, m.stats().violations);
    EXPECT_EQ(stlEntries, m.stats().stlEntries);
    tr.clear();
#endif
}

// ---------------------------------------------------------------------
// End-to-end: spans must reproduce the Fig. 10 ExecStats buckets.
// ---------------------------------------------------------------------

TEST(TraceMachine, SpanAccountingMatchesExecStats)
{
#if !JRPM_TRACE_ENABLED
    GTEST_SKIP() << "trace compiled out";
#else
    Workload w = wl::workloadByName("IDEA");
    w.mainArgs = {300};
    JrpmSystem sys(w);
    // Profile + select with the recorder off: only the TLS run below
    // must land in the trace.
    auto sels = sys.selectOnly();
    ASSERT_FALSE(sels.empty());

    Trace &tr = Trace::global();
    tr.configure(sys.config().sys.numCpus, 1u << 20);
    tr.setEnabled(true);
    RunOutcome out = sys.runTls({300}, sels);
    tr.setEnabled(false);
    ASSERT_TRUE(out.halted);
    ASSERT_EQ(tr.dropped(), 0u);

    const double share = 1.0 / sys.config().sys.numCpus;
    double serial = 0, runUsed = 0, waitUsed = 0, overhead = 0,
           runViolated = 0, waitViolated = 0;
    for (const TraceSpan &s : tr.spans()) {
        const double len = static_cast<double>(s.length());
        switch (s.state) {
          case TraceState::Idle: break;
          case TraceState::Serial: serial += len; break;
          case TraceState::SerialOverhead: overhead += len; break;
          case TraceState::SpecRun: runUsed += len * share; break;
          case TraceState::SpecWait: waitUsed += len * share; break;
          case TraceState::SpecOverhead:
            overhead += len * share;
            break;
          case TraceState::SpecRunViolated:
            runViolated += len * share;
            break;
          case TraceState::SpecWaitViolated:
            waitViolated += len * share;
            break;
        }
    }
    tr.clear();

    const ExecStats &st = out.stats;
    const double tol = 0.01 * st.total();
    EXPECT_NEAR(serial, st.serial, tol);
    EXPECT_NEAR(runUsed, st.runUsed, tol);
    EXPECT_NEAR(waitUsed, st.waitUsed, tol);
    EXPECT_NEAR(overhead, st.overhead, tol);
    EXPECT_NEAR(runViolated, st.runViolated, tol);
    EXPECT_NEAR(waitViolated, st.waitViolated, tol);
    const double sum = serial + runUsed + waitUsed + overhead +
                       runViolated + waitViolated;
    EXPECT_NEAR(sum, st.total(), tol);
#endif
}

// ---------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------

TEST(Metrics, GetOrCreateReturnsStableReferences)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.clear();
    Counter &c = reg.counter("tls.commits");
    c.inc();
    c.inc(4);
    EXPECT_EQ(reg.counter("tls.commits").value(), 5u);
    EXPECT_EQ(&reg.counter("tls.commits"), &c);

    reg.gauge("vm.live_objects").set(12.5);
    EXPECT_DOUBLE_EQ(reg.gauge("vm.live_objects").value(), 12.5);

    HistogramMetric &h = reg.histogram("tls.loop7.thread_cycles");
    h.sample(10.0);
    h.sample(30.0);
    EXPECT_EQ(h.summary().count(), 2u);
    EXPECT_DOUBLE_EQ(h.summary().mean(), 20.0);

    EXPECT_EQ(reg.size(), 3u);
    reg.reset();
    EXPECT_EQ(reg.size(), 3u); // registrations survive a reset
    EXPECT_EQ(reg.counter("tls.commits").value(), 0u);
    reg.clear();
}

TEST(Metrics, DumpJsonParsesBack)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.clear();
    reg.counter("a.count").inc(7);
    reg.gauge("b.gauge").set(2.5);
    reg.histogram("c.hist").sample(4.0);

    Json root;
    ASSERT_TRUE(JsonParser(reg.dumpJson()).parse(root));
    ASSERT_EQ(root.kind, Json::Obj);
    EXPECT_EQ(root["a.count"]["value"].num, 7.0);
    EXPECT_EQ(root["a.count"]["kind"].str, "counter");
    EXPECT_EQ(root["b.gauge"]["value"].num, 2.5);
    EXPECT_EQ(root["c.hist"]["count"].num, 1.0);

    const std::string text = reg.dumpText();
    EXPECT_NE(text.find("a.count"), std::string::npos);
    EXPECT_NE(text.find("7"), std::string::npos);
    reg.clear();
}

// ---------------------------------------------------------------------
// ExecStats violation-address diagnostics.
// ---------------------------------------------------------------------

TEST(ExecStatsViolations, AddressTableIsBoundedAndRanked)
{
    ExecStats st;
    for (std::uint64_t a = 0; a < 200; ++a)
        st.noteViolation(a);
    EXPECT_EQ(st.violations, 200u);
    EXPECT_EQ(st.violationAddrs.size(), ExecStats::kMaxViolationAddrs);
    EXPECT_EQ(st.violationAddrsDropped,
              200 - ExecStats::kMaxViolationAddrs);

    // Re-hitting a tracked address still counts after the cap.
    st.noteViolation(5);
    st.noteViolation(5);
    st.noteViolation(9);
    const auto top = st.topViolationAddrs(10);
    ASSERT_EQ(top.size(), 10u);
    EXPECT_EQ(top[0].first, 5u);
    EXPECT_EQ(top[0].second, 3u);
    EXPECT_EQ(top[1].first, 9u);
    EXPECT_EQ(top[1].second, 2u);
    for (std::size_t k = 1; k < top.size(); ++k)
        EXPECT_GE(top[k - 1].second, top[k].second);
}

// ---------------------------------------------------------------------
// Chrome JSON round-trip through the core report parser: the exporter
// and jsonParse() must agree on the format, not merely the test-local
// reader above.
// ---------------------------------------------------------------------

TEST_F(TraceTest, ChromeJsonRoundTripsThroughCoreParser)
{
    Trace &tr = Trace::global();
    recordState(0, 0, TraceState::Serial);
    recordState(0, 50, TraceState::SpecRun);
    recordState(0, 80, TraceState::Idle);
    recordState(1, 10, TraceState::SpecWait);
    recordState(1, 30, TraceState::Idle);
    tr.record(Trace::kHostTrack, TraceEvt::JitCompile, 5, 0, 42, 1);
    tr.record(2, TraceEvt::MemStall, 20, 1, kArrayBase, 8);

    JsonValue root;
    std::string err;
    ASSERT_TRUE(jsonParse(tr.exportChromeJson(), root, &err)) << err;
    const JsonValue &evs = root["traceEvents"];
    ASSERT_EQ(evs.kind, JsonValue::Kind::Array);
    ASSERT_FALSE(evs.items.empty());

    std::size_t metadata = 0;
    std::map<double, std::vector<std::pair<double, double>>> byTid;
    for (const JsonValue &e : evs.items) {
        ASSERT_EQ(e.kind, JsonValue::Kind::Object);
        // Every event carries the fixed process id and a numeric
        // thread id (the track).
        ASSERT_EQ(e["pid"].kind, JsonValue::Kind::Number);
        EXPECT_EQ(e["pid"].number(), 0.0);
        ASSERT_EQ(e["tid"].kind, JsonValue::Kind::Number);
        const std::string &ph = e["ph"].str;
        if (ph == "M") {
            ++metadata;
            EXPECT_EQ(e["name"].str, "thread_name");
            EXPECT_EQ(e["args"]["name"].kind,
                      JsonValue::Kind::String);
        } else if (ph == "X") {
            ASSERT_EQ(e["ts"].kind, JsonValue::Kind::Number);
            ASSERT_EQ(e["dur"].kind, JsonValue::Kind::Number);
            byTid[e["tid"].number()].emplace_back(e["ts"].number(),
                                                  e["dur"].number());
        }
    }
    EXPECT_EQ(metadata, 5u); // 4 cpu tracks + host

    // The exporter emits one flat lane per tid, so span nesting is
    // valid exactly when siblings on a lane never overlap.
    std::size_t spanCount = 0;
    for (auto &[tid, xs] : byTid) {
        std::sort(xs.begin(), xs.end());
        for (std::size_t k = 1; k < xs.size(); ++k)
            EXPECT_GE(xs[k].first, xs[k - 1].first + xs[k - 1].second)
                << "overlapping spans on tid " << tid;
        spanCount += xs.size();
    }
    EXPECT_EQ(spanCount, 3u); // serial + spec_run on cpu0, wait on 1
}

// ---------------------------------------------------------------------
// Host-side self-profiler.
// ---------------------------------------------------------------------

#if JRPM_HOSTPROF_ENABLED

/** Burn host time until the TSC has advanced by `ticks`. */
void
spinTicks(std::uint64_t ticks)
{
    const std::uint64_t t0 = hostprof::now();
    while (hostprof::now() - t0 < ticks) {
    }
}

const hostprof::SlotSnapshot &
slotByName(const std::vector<hostprof::SlotSnapshot> &snap,
           const std::string &name)
{
    for (const auto &s : snap)
        if (s.name == name)
            return s;
    static const hostprof::SlotSnapshot missing;
    ADD_FAILURE() << "no slot named " << name;
    return missing;
}

TEST(HostProf, NestedScopesSplitSelfAndChildTime)
{
    constexpr std::uint64_t kSpin = 200'000;
    hostprof::reset();
    hostprof::setEnabled(true);
    {
        hostprof::ScopedHostTimer outer(hostprof::HostSlot::MachineRun);
        spinTicks(kSpin);
        {
            hostprof::ScopedHostTimer inner(hostprof::HostSlot::Commit);
            spinTicks(kSpin);
        }
    }
    hostprof::setEnabled(false);
    hostprof::flushThread();

    const auto snap = hostprof::snapshot();
    const auto &run = slotByName(snap, "machine_run");
    const auto &commit = slotByName(snap, "commit");
    EXPECT_EQ(run.count, 1u);
    EXPECT_EQ(commit.count, 1u);
    EXPECT_GE(commit.tsc, kSpin);
    EXPECT_GE(run.tsc, commit.tsc + kSpin);
    // The inner scope's whole time is the outer's child time, so the
    // split is exact, not approximate.
    EXPECT_EQ(run.self, run.tsc - commit.tsc);
    EXPECT_EQ(commit.self, commit.tsc);
    hostprof::reset();
}

TEST(HostProf, DefaultSystemLeavesProfilerStateAlone)
{
    hostprof::reset();
    hostprof::setEnabled(false);
    Workload w = wl::workloadByName("IDEA");
    {
        JrpmSystem plain(w); // profiler off: analysis not timed
    }
    hostprof::flushThread();
    EXPECT_EQ(slotByName(hostprof::snapshot(), "jit_analyze").count, 0u);

    // A caller that armed the profiler keeps it armed across a
    // system built with the default (off) configuration.
    hostprof::setEnabled(true);
    {
        JrpmSystem plain(w);
    }
    EXPECT_TRUE(hostprof::enabled());
    hostprof::setEnabled(false);
    hostprof::flushThread();
    EXPECT_EQ(slotByName(hostprof::snapshot(), "jit_analyze").count, 1u);
    hostprof::reset();
}

TEST(HostProf, DisabledTimersRecordNothing)
{
    hostprof::reset();
    hostprof::setEnabled(false);
    {
        JRPM_HPROF(MachineRun);
        JRPM_HPROF(Commit);
        spinTicks(10'000);
    }
    hostprof::flushThread();
    for (const auto &s : hostprof::snapshot()) {
        EXPECT_EQ(s.count, 0u) << s.name;
        EXPECT_EQ(s.tsc, 0u) << s.name;
    }
}

TEST(HostProf, PipelineAttributionCoversRunWallTime)
{
    hostprof::tscHz(); // calibrate outside the measured window
    hostprof::reset();

    Workload w = wl::workloadByName("IDEA");
    w.mainArgs = {300};
    JrpmConfig cfg;
    cfg.obs.hostprofEnabled = true;
    JrpmSystem sys(w, cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const JrpmReport rep = sys.run();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    hostprof::setEnabled(false);
    EXPECT_TRUE(rep.tls.halted);

    // The constructor's Jit analysis runs before run(), outside the
    // pipeline slot, and is counted for this first pipeline too.
    const auto snap = hostprof::snapshot();
    EXPECT_EQ(slotByName(snap, "jit_analyze").count, 1u);
    EXPECT_EQ(slotByName(snap, "jit_analyze").parent, -1);

    double pipeline = 0.0, sumSelf = 0.0;
    for (const auto &s : snap) {
        if (s.name == "pipeline")
            pipeline = s.totalSec;
        if (s.name != "jit_analyze")
            sumSelf += s.selfSec;
    }
    // The observatory's acceptance bar: attributed host time covers
    // at least 95% of the measured wall time of run().
    EXPECT_GE(pipeline, 0.95 * wall)
        << "pipeline " << pipeline << "s of wall " << wall << "s";
    EXPECT_LE(pipeline, 1.10 * wall); // gross TSC miscalibration
    // Exclusive times partition the single root exactly; allow 1%
    // for tick-to-seconds rounding per slot.
    EXPECT_NEAR(sumSelf, pipeline, 0.01 * pipeline + 1e-9);
    hostprof::reset();
}

TEST(HostProf, ForcedSweepRunsUnderARootSlot)
{
    hostprof::reset();
    JrpmConfig cfg;
    cfg.obs.hostprofEnabled = true;
    cfg.oracle.mode = OracleMode::Strict;
    cfg.vm.heapBytes = 4u << 20;
    const forge::CaseResult cr = forge::runCase(
        forge::generate(0x5eed), cfg, /*forced_sweep=*/true);
    hostprof::setEnabled(false);
    ASSERT_TRUE(cr.ok) << cr.error;
    ASSERT_GT(cr.forcedLoops, 0u);

    // The sweep's runTls calls happen after run() closes the pipeline
    // slot; they must still land under a root, so no slot's
    // inclusive time exceeds the roots' sum.
    const auto snap = hostprof::snapshot();
    EXPECT_EQ(slotByName(snap, "forced_sweep").count, 1u);
    EXPECT_EQ(slotByName(snap, "forced_sweep").parent, -1);
    std::uint64_t roots = 0;
    for (const auto &s : snap)
        if (s.parent < 0)
            roots += s.tsc;
    for (const auto &s : snap)
        EXPECT_LE(s.tsc, roots) << s.name;
    hostprof::reset();
}

#endif // JRPM_HOSTPROF_ENABLED

// ---------------------------------------------------------------------
// Throttled-warning suppression counts through the metrics registry.
// ---------------------------------------------------------------------

TEST(LogMetrics, ThrottledWarningsExportSuppressionCounts)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.clear();
    setQuiet(true); // metrics must count even when silenced
    for (int i = 0; i < 25; ++i)
        warnThrottled("unit.noisy", "synthetic warning %d", i);
    warnThrottled("unit.rare", "one-off warning");
    EXPECT_EQ(reg.counter("log.throttled.unit.noisy").value(), 25u);
    EXPECT_EQ(reg.counter("log.throttled.unit.rare").value(), 1u);

    logReportSuppressed();
    // 5 printed verbatim, 20 suppressed; a key under the verbatim
    // budget publishes no suppression count.
    EXPECT_EQ(reg.counter("log.suppressed.unit.noisy").value(), 20u);
    EXPECT_EQ(reg.counter("log.suppressed.unit.rare").value(), 0u);

    // Reporting drains the throttle table: a fresh burst is verbatim
    // again and adds nothing to the suppression count.
    warnThrottled("unit.noisy", "after drain");
    EXPECT_EQ(reg.counter("log.throttled.unit.noisy").value(), 26u);
    logReportSuppressed();
    EXPECT_EQ(reg.counter("log.suppressed.unit.noisy").value(), 20u);

    setQuiet(false);
    reg.clear();
}

// ---------------------------------------------------------------------
// Failure-path output flush (obs failsafe).
// ---------------------------------------------------------------------

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(ObsFailsafe, FlushWritesPartialOutputsOnceThenDisarms)
{
    Trace &tr = Trace::global();
    tr.configure(2, 64);
    tr.setEnabled(true);
    tr.record(0, TraceEvt::VmTrap, 3, 1);
    tr.setEnabled(false);
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.clear();
    reg.counter("obs.partial").inc(9);

    const std::string tpath = "obs_failsafe_trace.json";
    const std::string mpath = "obs_failsafe_metrics.json";
    std::remove(tpath.c_str());
    std::remove(mpath.c_str());

    obs::setFailsafeOutputs(tpath, mpath);
    obs::failsafeFlush();

    JsonValue troot, mroot;
    std::string err;
    ASSERT_TRUE(jsonParse(slurp(tpath), troot, &err)) << err;
    EXPECT_EQ(troot["traceEvents"].kind, JsonValue::Kind::Array);
    ASSERT_TRUE(jsonParse(slurp(mpath), mroot, &err)) << err;
    EXPECT_EQ(mroot["obs.partial"]["value"].number(), 9.0);

    // A second flush is a no-op: the first one disarmed.
    std::remove(tpath.c_str());
    std::remove(mpath.c_str());
    obs::failsafeFlush();
    EXPECT_TRUE(slurp(tpath).empty());
    EXPECT_TRUE(slurp(mpath).empty());

    // An explicit disarm (the success path) also suppresses output.
    obs::setFailsafeOutputs(tpath, mpath);
    obs::disarmFailsafe();
    obs::failsafeFlush();
    EXPECT_TRUE(slurp(tpath).empty());
    EXPECT_TRUE(slurp(mpath).empty());

    tr.clear();
    reg.clear();
}

} // namespace
} // namespace jrpm
