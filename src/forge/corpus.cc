#include "corpus.hh"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/hash.hh"
#include "common/logging.hh"
#include "crystal/crystal.hh"

namespace jrpm
{
namespace forge
{

namespace
{

constexpr const char *kMagic = "jrpm-forge";

/** Whitespace-token reader; any misparse (including premature end,
 *  i.e. truncation) latches fail. */
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

    std::int32_t
    i32()
    {
        const std::string t = word();
        if (fail)
            return 0;
        errno = 0;
        char *end = nullptr;
        const long v = std::strtol(t.c_str(), &end, 0);
        if (errno || end == t.c_str() || *end)
            err("bad integer '" + t + "'");
        return static_cast<std::int32_t>(v);
    }
};

} // namespace

std::string
CorpusEntry::fileName() const
{
    return strfmt("forge-%016llx.scenario",
                  static_cast<unsigned long long>(
                      spec.fingerprint()));
}

std::string
serializeCorpusEntry(const CorpusEntry &entry)
{
    const ScenarioSpec &s = entry.spec;
    std::string out;
    out += strfmt("%s v%u\n", kMagic, s.version);
    out += strfmt("seed 0x%016" PRIx64 "\n", s.seed);
    out += strfmt("axes 0x%x %s\n", s.axes(),
                  axesDescribe(s.axes()).c_str());
    out += strfmt("n %d\n", s.n);
    out += "init";
    for (std::int32_t v : s.init)
        out += strfmt(" %d", v);
    out += "\n";
    out += strfmt("stmts %zu\n", s.body.size());
    for (const ForgeStmt &st : s.body)
        out += strfmt("s %s %d %d %d %d\n", stmtKindName(st.kind),
                      st.p[0], st.p[1], st.p[2], st.p[3]);
    out += strfmt("proghash 0x%016" PRIx64 "\n", entry.programHash);
    if (entry.haveExit)
        out += strfmt("exit 0x%08x\n", entry.expectedExit);
    else
        out += "exit none\n";
    // Trailing integrity checksum over everything above.
    out += strfmt("check 0x%016" PRIx64 "\n",
                  fnv1a(out.data(), out.size()));
    return out;
}

bool
deserializeCorpusEntry(const std::string &text, CorpusEntry &out,
                       std::string *err, CorpusError *kind)
{
    if (kind)
        *kind = CorpusError::None;
    auto failKind = [&](CorpusError k, const std::string &why) {
        if (err)
            *err = why;
        if (kind)
            *kind = k;
        return false;
    };
    auto failWith = [&](const std::string &why) {
        return failKind(CorpusError::Format, why);
    };

    // Verify the trailing checksum first: it covers every byte up
    // to the final "check" line, so truncation and bit rot are
    // rejected before any field is trusted.
    const std::size_t pos = text.rfind("check ");
    if (pos == std::string::npos || pos == 0)
        return failWith("missing end checksum");
    {
        Reader tail(text.substr(pos));
        tail.expect("check");
        const std::uint64_t stored = tail.u64();
        if (tail.fail)
            return failWith("unreadable end checksum");
        if (stored != fnv1a(text.data(), pos))
            return failWith("content checksum mismatch (corrupted)");
    }

    Reader r(text.substr(0, pos));
    r.expect(kMagic);
    const std::string ver = r.word();
    if (!r.fail && ver != strfmt("v%u", kForgeVersion))
        return failKind(
            CorpusError::Version,
            strfmt("forge version mismatch (file %s, generator v%u)",
                   ver.c_str(), kForgeVersion));

    CorpusEntry e;
    e.spec.version = kForgeVersion;
    r.expect("seed");
    e.spec.seed = r.u64();
    r.expect("axes");
    const std::uint64_t axes = r.u64();
    r.word(); // human-readable axis list
    // A same-version entry whose axes mask has bits outside kAllAxes
    // was written by a grammar with axes this build doesn't have;
    // dropping the bits would silently replay a different scenario.
    if (!r.fail && (axes & ~static_cast<std::uint64_t>(kAllAxes)))
        return failKind(
            CorpusError::FutureAxes,
            strfmt("axes mask 0x%llx has unknown axis bits 0x%llx "
                   "(this build knows 0x%x); refusing to replay",
                   static_cast<unsigned long long>(axes),
                   static_cast<unsigned long long>(
                       axes & ~static_cast<std::uint64_t>(kAllAxes)),
                   kAllAxes));
    r.expect("n");
    e.spec.n = r.i32();
    r.expect("init");
    for (std::int32_t &v : e.spec.init)
        v = r.i32();
    r.expect("stmts");
    const std::uint64_t count = r.u64();
    if (r.fail)
        return failWith(r.what);
    if (count > 4096)
        return failWith("implausible statement count");
    for (std::uint64_t i = 0; i < count; ++i) {
        r.expect("s");
        const std::string kind = r.word();
        ForgeStmt st;
        if (!r.fail && !stmtKindByName(kind, st.kind))
            return failWith("unknown statement kind '" + kind + "'");
        for (std::int32_t &p : st.p)
            p = r.i32();
        if (r.fail)
            return failWith(r.what);
        e.spec.body.push_back(st);
    }
    r.expect("proghash");
    e.programHash = r.u64();
    r.expect("exit");
    const std::string exit_tok = r.word();
    if (!r.fail && exit_tok != "none") {
        errno = 0;
        char *end = nullptr;
        const std::uint64_t v =
            std::strtoull(exit_tok.c_str(), &end, 0);
        if (errno || end == exit_tok.c_str() || *end)
            return failWith("bad exit checksum");
        e.expectedExit = static_cast<Word>(v);
        e.haveExit = true;
    }
    if (r.fail)
        return failWith(r.what);
    out = std::move(e);
    return true;
}

std::string
writeCorpusEntry(const std::string &dir, const CorpusEntry &entry)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + entry.fileName();
    // Write-then-rename: a writer killed mid-write leaves only a
    // "*.scenario.tmp" file, which listCorpus() never picks up, never
    // a half-written entry under the real name.
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        warn("cannot open corpus file '%s'", tmp.c_str());
        return "";
    }
    const std::string text = serializeCorpusEntry(entry);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
        std::fflush(f) == 0;
    std::fclose(f);
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot persist corpus file '%s'", path.c_str());
        std::remove(tmp.c_str());
        return "";
    }
    return path;
}

bool
readCorpusEntry(const std::string &path, CorpusEntry &out,
                std::string *err, CorpusError *kind)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (err)
            *err = "cannot open '" + path + "'";
        if (kind)
            *kind = CorpusError::Format;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return deserializeCorpusEntry(ss.str(), out, err, kind);
}

std::vector<std::string>
listCorpus(const std::string &dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &de :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!de.is_regular_file())
            continue;
        const std::string p = de.path().string();
        if (p.size() > 9 &&
            p.compare(p.size() - 9, 9, ".scenario") == 0)
            out.push_back(p);
    }
    std::sort(out.begin(), out.end());
    return out;
}

CorpusEntry
makeCorpusEntry(const ScenarioSpec &spec, bool with_exit)
{
    CorpusEntry e;
    e.spec = spec;
    e.spec.version = kForgeVersion;
    e.programHash = hashProgram(render(e.spec));
    if (with_exit) {
        const Workload w = scenarioWorkload(e.spec);
        JrpmConfig cfg;
        cfg.vm.heapBytes = 4u << 20;
        JrpmSystem sys(w, cfg);
        const RunOutcome seq =
            sys.runSequential(w.mainArgs, false, nullptr);
        if (!seq.halted || seq.uncaught)
            warn("forge corpus entry %s does not halt cleanly",
                 e.fileName().c_str());
        e.expectedExit = seq.exitValue;
        e.haveExit = true;
    }
    return e;
}

} // namespace forge
} // namespace jrpm
