#include "crystal.hh"

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/metrics.hh"

namespace fs = std::filesystem;

namespace jrpm
{

namespace
{

/** Publish one repository event into the shared metrics registry.
 *  Name lookup per event is fine here: every caller just did file
 *  I/O, which dwarfs one map probe. */
void
bump(const char *name)
{
    MetricsRegistry::global().counter(name).inc();
}

} // namespace

const char *
warmModeName(WarmMode mode)
{
    switch (mode) {
      case WarmMode::Cold: return "cold";
      case WarmMode::Warm: return "warm";
      case WarmMode::Auto: return "auto";
    }
    return "?";
}

WarmMode
parseWarmMode(const std::string &name)
{
    if (name == "cold")
        return WarmMode::Cold;
    if (name == "warm")
        return WarmMode::Warm;
    if (name == "auto")
        return WarmMode::Auto;
    fatal("unknown warm mode '%s' (expected cold|warm|auto)",
          name.c_str());
}

// ---- fingerprinting ---------------------------------------------------

std::uint64_t
hashProgram(const BcProgram &prog)
{
    Fnv1a h;
    h.u32(prog.entryMethod).u32(prog.numStatics);
    h.u64(prog.classes.size());
    for (const BcClass &c : prog.classes)
        h.str(c.name).u32(c.payloadWords);
    h.u64(prog.methods.size());
    for (const BcMethod &m : prog.methods) {
        h.str(m.name).u32(m.numArgs).u32(m.numLocals);
        h.boolean(m.returnsValue).boolean(m.isSynchronized);
        h.u64(m.code.size());
        for (const BcInst &inst : m.code)
            h.byte(static_cast<std::uint8_t>(inst.op))
                .i32(inst.imm)
                .i32(inst.imm2);
        h.u64(m.catches.size());
        for (const BcCatch &c : m.catches)
            h.i32(c.begin).i32(c.end).i32(c.handler).i32(c.kind);
    }
    return h.value();
}

std::uint64_t
hashArgs(const std::vector<Word> &args)
{
    Fnv1a h;
    h.u64(args.size());
    for (Word w : args)
        h.u32(w);
    return h.value();
}

std::uint64_t
hashAnalyzerConfig(const AnalyzerConfig &an, const TracerConfig &tr)
{
    Fnv1a h;
    h.u32(an.numCpus);
    h.u32(an.handlers.startup)
        .u32(an.handlers.shutdown)
        .u32(an.handlers.eoi)
        .u32(an.handlers.restart);
    h.f64(an.minItersPerEntry)
        .f64(an.eoiBlockCycles)
        .f64(an.minCommitInterval)
        .f64(an.maxOverflowFrequency)
        .f64(an.minPredictedSpeedup)
        .f64(an.syncDepFrequency)
        .f64(an.syncArcLengthRatio)
        .f64(an.multilevelEntryRatio);
    h.u32(tr.numBanks)
        .u32(tr.lineBytes)
        .u32(tr.loadBufferLines)
        .u32(tr.storeBufferLines)
        .u32(tr.startHistory)
        .u64(tr.timestampCapacity)
        .boolean(tr.allowBankStealing);
    return h.value();
}

std::uint64_t
crystalFingerprint(std::uint64_t program_hash, std::uint64_t args_hash,
                   std::uint64_t config_hash)
{
    return Fnv1a()
        .u32(kCrystalSchemaVersion)
        .u64(program_hash)
        .u64(args_hash)
        .u64(config_hash)
        .value();
}

// ---- serialization ----------------------------------------------------

namespace
{

constexpr const char *kMagic = "jrpm-crystal";

/** Hex-float formatting: doubles round-trip exactly through %a. */
std::string
d2s(double v)
{
    return strfmt("%a", v);
}

void
putStat(std::string &out, const char *name, const SampleStat &s)
{
    out += strfmt("stat %s %" PRIu64 " %s %s %s %s %s\n", name,
                  s.count(), d2s(s.sum()).c_str(),
                  d2s(s.mean()).c_str(), d2s(s.m2()).c_str(),
                  d2s(s.min()).c_str(), d2s(s.max()).c_str());
}

/** Token reader over the serialized text; sets fail on any misparse
 *  (including premature end — i.e. truncation). */
struct Reader
{
    std::istringstream in;
    bool fail = false;
    std::string what;

    explicit Reader(const std::string &text) : in(text) {}

    void
    err(const std::string &msg)
    {
        if (!fail)
            what = msg;
        fail = true;
    }

    std::string
    word()
    {
        std::string t;
        if (fail || !(in >> t))
            err("unexpected end of entry");
        return t;
    }

    /** Consume a fixed keyword token. */
    void
    expect(const char *kw)
    {
        const std::string t = word();
        if (!fail && t != kw)
            err(strfmt("expected '%s', got '%s'", kw, t.c_str()));
    }

    std::uint64_t
    u64()
    {
        const std::string t = word();
        if (fail)
            return 0;
        errno = 0;
        char *end = nullptr;
        const std::uint64_t v = std::strtoull(t.c_str(), &end, 0);
        if (errno || end == t.c_str() || *end)
            err("bad integer '" + t + "'");
        return v;
    }

    std::int64_t
    i64()
    {
        const std::string t = word();
        if (fail)
            return 0;
        errno = 0;
        char *end = nullptr;
        const std::int64_t v = std::strtoll(t.c_str(), &end, 0);
        if (errno || end == t.c_str() || *end)
            err("bad integer '" + t + "'");
        return v;
    }

    double
    f64()
    {
        const std::string t = word();
        if (fail)
            return 0;
        errno = 0;
        char *end = nullptr;
        const double v = std::strtod(t.c_str(), &end);
        if (errno || end == t.c_str() || *end)
            err("bad float '" + t + "'");
        return v;
    }

    bool
    b()
    {
        const std::uint64_t v = u64();
        if (!fail && v > 1)
            err("bad bool");
        return v == 1;
    }

    SampleStat
    stat(const char *name)
    {
        expect("stat");
        expect(name);
        const std::uint64_t count = u64();
        const double sum = f64(), mean = f64(), m2 = f64(),
                     mn = f64(), mx = f64();
        if (fail)
            return {};
        return SampleStat::fromRaw(count, sum, mean, m2, mn, mx);
    }

    /** Length-prefixed string: "<len> <bytes...>". */
    std::string
    lstr()
    {
        const std::uint64_t n = u64();
        if (fail)
            return {};
        if (n > (1u << 20)) {
            err("string too long");
            return {};
        }
        in.get(); // the single separating space
        std::string s(n, '\0');
        in.read(s.data(), static_cast<std::streamsize>(n));
        if (in.gcount() != static_cast<std::streamsize>(n)) {
            err("truncated string");
            return {};
        }
        return s;
    }
};

} // namespace

std::string
CrystalEntry::serialize() const
{
    std::string out;
    out += strfmt("%s v%u\n", kMagic, schemaVersion);
    out += strfmt("workload %zu %s\n", workload.size(),
                  workload.c_str());
    out += strfmt("program %016" PRIx64 " args %016" PRIx64
                  " config %016" PRIx64 "\n",
                  programHash, argsHash, configHash);
    out += strfmt("predicted %s slowdown %s profcycles %" PRIu64 "\n",
                  d2s(predictedSpeedup).c_str(),
                  d2s(profilingSlowdown).c_str(), profilingCycles);

    out += strfmt("profiles %zu\n", profiles.size());
    for (const auto &[id, p] : profiles) {
        out += strfmt("loop %d entries %" PRIu64 " iters %" PRIu64
                      " skipped %" PRIu64 " dep %" PRIu64
                      " overflow %" PRIu64 "\n",
                      id, p.entries, p.iterations, p.skippedEntries,
                      p.depThreads, p.overflowThreads);
        putStat(out, "threadSize", p.threadSize);
        putStat(out, "arcDistance", p.arcDistance);
        putStat(out, "arcStoreOffset", p.arcStoreOffset);
        putStat(out, "arcLoadOffset", p.arcLoadOffset);
        putStat(out, "loadLines", p.loadLines);
        putStat(out, "storeLines", p.storeLines);
        out += strfmt("arcs %zu\n", p.arcSites.size());
        for (const auto &[site, count] : p.arcSites)
            out += strfmt("arc %d %u %" PRIu64 "\n",
                          site.isLocal ? 1 : 0, site.id, count);
    }

    out += strfmt("selections %zu\n", selections.size());
    for (const SelectedStl &sel : selections) {
        const StlPrediction &pr = sel.prediction;
        out += strfmt("sel %d\n", sel.loopId);
        out += strfmt(
            "pred %d %s %s %s %s %s %s %s %s %s %s %s %d\n",
            pr.loopId, d2s(pr.avgThreadSize).c_str(),
            d2s(pr.itersPerEntry).c_str(),
            d2s(pr.coverageCycles).c_str(),
            d2s(pr.depFrequency).c_str(),
            d2s(pr.avgArcDistance).c_str(),
            d2s(pr.avgArcSlack).c_str(),
            d2s(pr.overflowFrequency).c_str(),
            d2s(pr.avgLoadLines).c_str(),
            d2s(pr.avgStoreLines).c_str(),
            d2s(pr.predictedSpeedup).c_str(),
            d2s(pr.predictedTlsCycles).c_str(),
            pr.eligible ? 1 : 0);
        out += strfmt("reason %zu %s\n", pr.reason.size(),
                      pr.reason.c_str());
        out += strfmt("plan %d %d %d %d %d\n",
                      sel.plan.syncLock ? 1 : 0, sel.plan.syncLocalVar,
                      sel.plan.multilevel ? 1 : 0,
                      sel.plan.multilevelInner,
                      sel.plan.hoistHandlers ? 1 : 0);
    }

    // Trailing integrity checksum over everything above: a truncated
    // or bit-flipped file cannot reproduce it.
    out += strfmt("end %016" PRIx64 "\n",
                  fnv1a(out.data(), out.size()));
    return out;
}

bool
CrystalEntry::deserialize(const std::string &text, CrystalEntry &out,
                          std::string *err)
{
    auto failWith = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };

    // Verify the trailing checksum first: it covers every byte up to
    // and including the newline before the "end" line.
    const std::size_t endAt = text.rfind("\nend ");
    if (endAt == std::string::npos)
        return failWith("missing end record (truncated?)");
    const std::size_t bodyLen = endAt + 1;
    char *stop = nullptr;
    const std::uint64_t want =
        std::strtoull(text.c_str() + endAt + 5, &stop, 16);
    if (stop == text.c_str() + endAt + 5)
        return failWith("unreadable end checksum");
    // The end record must be the newline-terminated last line, so a
    // file missing even its final byte is rejected.
    if (std::string(stop) != "\n")
        return failWith("trailing bytes after end record (truncated "
                        "or appended)");
    if (fnv1a(text.data(), bodyLen) != want)
        return failWith("content checksum mismatch (corrupted)");

    Reader r(text.substr(0, bodyLen));
    CrystalEntry e;

    r.expect(kMagic);
    const std::string ver = r.word();
    if (!r.fail && ver != strfmt("v%u", kCrystalSchemaVersion))
        return failWith("schema version mismatch: found " + ver +
                        strfmt(", expected v%u",
                               kCrystalSchemaVersion));
    e.schemaVersion = kCrystalSchemaVersion;

    r.expect("workload");
    e.workload = r.lstr();
    r.expect("program");
    e.programHash = std::strtoull(r.word().c_str(), nullptr, 16);
    r.expect("args");
    e.argsHash = std::strtoull(r.word().c_str(), nullptr, 16);
    r.expect("config");
    e.configHash = std::strtoull(r.word().c_str(), nullptr, 16);
    r.expect("predicted");
    e.predictedSpeedup = r.f64();
    r.expect("slowdown");
    e.profilingSlowdown = r.f64();
    r.expect("profcycles");
    e.profilingCycles = r.u64();

    r.expect("profiles");
    const std::uint64_t np = r.u64();
    if (r.fail || np > 100000)
        return failWith(r.fail ? r.what : "absurd profile count");
    for (std::uint64_t i = 0; i < np && !r.fail; ++i) {
        LoopProfile p;
        r.expect("loop");
        p.loopId = static_cast<std::int32_t>(r.i64());
        r.expect("entries");
        p.entries = r.u64();
        r.expect("iters");
        p.iterations = r.u64();
        r.expect("skipped");
        p.skippedEntries = r.u64();
        r.expect("dep");
        p.depThreads = r.u64();
        r.expect("overflow");
        p.overflowThreads = r.u64();
        p.threadSize = r.stat("threadSize");
        p.arcDistance = r.stat("arcDistance");
        p.arcStoreOffset = r.stat("arcStoreOffset");
        p.arcLoadOffset = r.stat("arcLoadOffset");
        p.loadLines = r.stat("loadLines");
        p.storeLines = r.stat("storeLines");
        r.expect("arcs");
        const std::uint64_t na = r.u64();
        if (r.fail || na > 1000000)
            return failWith(r.fail ? r.what : "absurd arc count");
        for (std::uint64_t a = 0; a < na && !r.fail; ++a) {
            r.expect("arc");
            ArcSite site;
            site.isLocal = r.b();
            site.id = static_cast<std::uint32_t>(r.u64());
            p.arcSites[site] = r.u64();
        }
        e.profiles[p.loopId] = std::move(p);
    }

    r.expect("selections");
    const std::uint64_t ns = r.u64();
    if (r.fail || ns > 100000)
        return failWith(r.fail ? r.what : "absurd selection count");
    for (std::uint64_t i = 0; i < ns && !r.fail; ++i) {
        SelectedStl sel;
        r.expect("sel");
        sel.loopId = static_cast<std::int32_t>(r.i64());
        StlPrediction &pr = sel.prediction;
        r.expect("pred");
        pr.loopId = static_cast<std::int32_t>(r.i64());
        pr.avgThreadSize = r.f64();
        pr.itersPerEntry = r.f64();
        pr.coverageCycles = r.f64();
        pr.depFrequency = r.f64();
        pr.avgArcDistance = r.f64();
        pr.avgArcSlack = r.f64();
        pr.overflowFrequency = r.f64();
        pr.avgLoadLines = r.f64();
        pr.avgStoreLines = r.f64();
        pr.predictedSpeedup = r.f64();
        pr.predictedTlsCycles = r.f64();
        pr.eligible = r.b();
        r.expect("reason");
        pr.reason = r.lstr();
        r.expect("plan");
        sel.plan.syncLock = r.b();
        sel.plan.syncLocalVar = static_cast<std::int32_t>(r.i64());
        sel.plan.multilevel = r.b();
        sel.plan.multilevelInner =
            static_cast<std::int32_t>(r.i64());
        sel.plan.hoistHandlers = r.b();
        e.selections.push_back(std::move(sel));
    }

    if (r.fail)
        return failWith(r.what);
    out = std::move(e);
    return true;
}

// ---- repository -------------------------------------------------------

namespace
{

/** RAII advisory flock() on the repository lock file.  A fleet of
 *  worker processes warming from one shared directory must not read
 *  an entry mid-rename or race two writers on the same tmp name; the
 *  in-process mutex alone cannot see across fork boundaries.  A -1 fd
 *  (lock file unavailable) degrades to a no-op. */
struct ScopedFlock
{
    int fd;

    ScopedFlock(int fd, int op) : fd(fd)
    {
        if (fd >= 0)
            while (::flock(fd, op) != 0 && errno == EINTR) {}
    }

    ~ScopedFlock()
    {
        if (fd >= 0)
            ::flock(fd, LOCK_UN);
    }
};

/** Writer temp files older than this are considered abandoned by a
 *  crashed process and swept.  Generous: a live store holds its tmp
 *  file for milliseconds. */
constexpr auto kStaleTmpAge = std::chrono::seconds(60);

} // namespace

CrystalRepo::CrystalRepo(std::string dir) : root(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(root, ec);
    if (ec)
        fatal("cannot create crystal repository '%s': %s",
              root.c_str(), ec.message().c_str());
    lockFd = ::open((root + "/.lock").c_str(),
                    O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (lockFd < 0)
        warn("crystal: cannot create '%s/.lock'; inter-process "
             "locking disabled",
             root.c_str());

    // Sweep stale "*.tmp.*" leftovers from writers that died between
    // open and rename.  Only files quietly aging for a while are
    // removed: a concurrent live store's fresh tmp file survives.
    ScopedFlock iplock(lockFd, LOCK_EX);
    const auto now = fs::file_time_type::clock::now();
    for (const auto &de : fs::directory_iterator(root, ec)) {
        const std::string name = de.path().filename().string();
        if (name.find(".tmp.") == std::string::npos)
            continue;
        std::error_code tec;
        const auto mtime = fs::last_write_time(de.path(), tec);
        if (tec || now - mtime < kStaleTmpAge)
            continue;
        if (fs::remove(de.path(), tec) && !tec) {
            warn("crystal: swept stale temp file '%s'",
                 name.c_str());
            ++counters.tmpSwept;
            bump("crystal.tmp_swept");
        }
    }
}

CrystalRepo::~CrystalRepo()
{
    if (lockFd >= 0)
        ::close(lockFd);
}

std::string
CrystalRepo::pathFor(std::uint64_t fingerprint) const
{
    return root + "/" + strfmt("%016" PRIx64, fingerprint) +
           ".crystal";
}

bool
CrystalRepo::lookup(std::uint64_t fingerprint, CrystalEntry &out)
{
    std::lock_guard<std::mutex> lock(mu);
    const std::string path = pathFor(fingerprint);
    ScopedFlock iplock(lockFd, LOCK_SH);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        ++counters.misses;
        bump("crystal.misses");
        return false;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    const bool readError = std::ferror(f);
    std::fclose(f);
    std::string why;
    CrystalEntry e;
    if (readError || !CrystalEntry::deserialize(text, e, &why)) {
        warn("crystal: rejecting %s: %s", path.c_str(),
             readError ? "read error" : why.c_str());
        ++counters.rejects;
        ++counters.misses;
        bump("crystal.rejects");
        bump("crystal.misses");
        // Quarantine the unreadable file: rename it aside so the
        // next lookup goes straight to a clean miss (and re-store)
        // instead of re-parsing the same poison on every case of a
        // fleet campaign.  Keep the bytes for forensics.
        if (!readError &&
            std::rename(path.c_str(), (path + ".corrupt").c_str())
                == 0) {
            warn("crystal: quarantined corrupt entry as '%s.corrupt'",
                 path.c_str());
            ++counters.quarantined;
            bump("crystal.quarantined");
        }
        return false;
    }
    ++counters.hits;
    bump("crystal.hits");
    out = std::move(e);
    return true;
}

bool
CrystalRepo::store(const CrystalEntry &entry)
{
    std::lock_guard<std::mutex> lock(mu);
    const std::string path = pathFor(entry.fingerprint());
    ScopedFlock iplock(lockFd, LOCK_EX);
    // Unique per process *and* per store, so fleet workers sharing a
    // directory never collide on the temp name.
    const std::string tmp =
        path + strfmt(".tmp.%016" PRIx64,
                      Fnv1a()
                          .str(path)
                          .u64(counters.stores)
                          .u64(static_cast<std::uint64_t>(::getpid()))
                          .value());
    const std::string text = entry.serialize();
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("crystal: cannot write '%s'", tmp.c_str());
        return false;
    }
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("crystal: failed to persist '%s'", path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    ++counters.stores;
    bump("crystal.stores");
    return true;
}

bool
CrystalRepo::invalidate(std::uint64_t fingerprint)
{
    std::lock_guard<std::mutex> lock(mu);
    ScopedFlock iplock(lockFd, LOCK_EX);
    const bool existed =
        std::remove(pathFor(fingerprint).c_str()) == 0;
    if (existed) {
        ++counters.invalidations;
        bump("crystal.invalidations");
    }
    return existed;
}

std::vector<std::uint64_t>
CrystalRepo::list() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::uint64_t> out;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(root, ec)) {
        const std::string name = de.path().filename().string();
        if (name.size() != 16 + 8 ||
            name.compare(16, 8, ".crystal") != 0)
            continue;
        char *end = nullptr;
        const std::uint64_t fp =
            std::strtoull(name.c_str(), &end, 16);
        if (end == name.c_str() + 16)
            out.push_back(fp);
    }
    return out;
}

CrystalStats
CrystalRepo::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

} // namespace jrpm
