#include "report_json.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace jrpm
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

namespace
{

const char *
b2s(bool v)
{
    return v ? "true" : "false";
}

std::string
spanHistJson(const SpanHist &h)
{
    std::string j = strfmt("{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                           ",\"max\":%" PRIu64 ",\"mean\":%.17g,"
                           "\"log2Buckets\":[",
                           h.count, h.sum, h.max, h.mean());
    // Trim trailing zero buckets; the reader treats absent as zero.
    std::size_t last = 0;
    for (std::size_t i = 0; i < SpanHist::kBuckets; ++i)
        if (h.log2Buckets[i])
            last = i + 1;
    for (std::size_t i = 0; i < last; ++i)
        j += strfmt(i ? ",%" PRIu64 : "%" PRIu64, h.log2Buckets[i]);
    j += "]}";
    return j;
}

template <std::size_t N>
std::string
causeMapJson(const std::array<std::uint64_t, N> &counts,
             const char *(*name)(std::size_t))
{
    std::string j = "{";
    bool first = true;
    for (std::size_t i = 0; i < N; ++i) {
        if (!counts[i])
            continue;
        if (!first)
            j += ',';
        first = false;
        j += strfmt("\"%s\":%" PRIu64, name(i), counts[i]);
    }
    j += "}";
    return j;
}

std::string
telemetryJson(const ExecStats &st)
{
    std::string j = strfmt(
        "{\"sigHits\":%" PRIu64 ",\"sigFalsePositives\":%" PRIu64
        ",\"forwardedLoads\":%" PRIu64
        ",\"commits\":%" PRIu64 ",\"stlEntries\":%" PRIu64
        ",\"overflowStalls\":%" PRIu64 ",",
        st.sigHits, st.sigFalsePositives, st.forwardedLoads, st.commits,
        st.stlEntries, st.bufferOverflowStalls);
    j += strfmt("\"squashCauses\":%s,",
                causeMapJson(st.squashCauses, squashCauseName)
                    .c_str());
    j += strfmt("\"violationsByClass\":%s,",
                causeMapJson(st.violationsByClass, addrClassName)
                    .c_str());
    j += strfmt("\"forwardDistance\":%s,",
                spanHistJson(st.forwardDistance).c_str());
    j += strfmt("\"storeBufOccupancy\":%s}",
                spanHistJson(st.storeBufOccupancy).c_str());
    return j;
}

std::string
runJson(const RunOutcome &o)
{
    return strfmt("{\"halted\":%s,\"uncaught\":%s,\"exitValue\":%u,"
                  "\"cycles\":%" PRIu64 ",\"insts\":%" PRIu64
                  ",\"violations\":%" PRIu64 ",\"watchdog\":%s,"
                  "\"faultsInjected\":%u,\"telemetry\":%s}",
                  b2s(o.halted), b2s(o.uncaught), o.exitValue,
                  o.cycles, o.insts, o.stats.violations,
                  b2s(o.watchdogFired), o.faultsInjected,
                  telemetryJson(o.stats).c_str());
}

std::string
loopJson(std::int32_t loop_id, const StlRuntimeStats &ls)
{
    std::string j = strfmt(
        "{\"loopId\":%d,\"entries\":%" PRIu64 ",\"commits\":%" PRIu64
        ",\"violations\":%" PRIu64 ",\"cyclesInside\":%" PRIu64
        ",\"overflowStalls\":%" PRIu64 ",\"soloEntries\":%" PRIu64
        ",\"sigHits\":%" PRIu64 ",\"sigFalsePositives\":%" PRIu64
        ",\"forwardedLoads\":%" PRIu64 ",",
        loop_id, ls.entries, ls.commits, ls.violations,
        ls.cyclesInside, ls.overflowStalls, ls.soloEntries, ls.sigHits,
        ls.sigFalsePositives, ls.forwardedLoads);
    j += strfmt("\"squashCauses\":%s,",
                causeMapJson(ls.squashCauses, squashCauseName)
                    .c_str());
    j += strfmt("\"violationsByClass\":%s,",
                causeMapJson(ls.violationsByClass, addrClassName)
                    .c_str());
    j += strfmt("\"forwardDistance\":%s,",
                spanHistJson(ls.forwardDistance).c_str());
    j += strfmt("\"storeBufOccupancy\":%s}",
                spanHistJson(ls.storeBufOccupancy).c_str());
    return j;
}

/** Recursive-descent parser over the grammar reportJson() emits. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, const JsonLimits &lim)
        : s(text), limits(lim)
    {
    }

    bool
    parse(JsonValue &out, std::string *err)
    {
        bool ok;
        if (s.size() > limits.maxBytes) {
            error("input exceeds byte budget");
            ok = false;
        } else {
            ok = value(out) && (skipWs(), pos == s.size());
        }
        if (!ok && err)
            *err = fail.empty()
                       ? strfmt("trailing garbage at byte %zu", pos)
                       : fail;
        return ok;
    }

  private:
    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool
    error(const char *what)
    {
        if (fail.empty())
            fail = strfmt("%s at byte %zu", what, pos);
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (s.compare(pos, n, word) != 0)
            return error("bad literal");
        pos += n;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (pos >= s.size() || s[pos] != '"')
            return error("expected string");
        ++pos;
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= s.size())
                return error("dangling escape");
            const char e = s[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'u': {
                if (pos + 4 > s.size())
                    return error("short \\u escape");
                const unsigned cp = static_cast<unsigned>(
                    std::strtoul(s.substr(pos, 4).c_str(), nullptr,
                                 16));
                pos += 4;
                // reportJson() only emits \u00xx control bytes.
                out += static_cast<char>(cp & 0xff);
                break;
              }
              default:
                return error("unknown escape");
            }
        }
        if (pos >= s.size())
            return error("unterminated string");
        ++pos; // closing quote
        return true;
    }

    /** Decrements the container depth on scope exit, whatever path
     *  value() returns through. */
    struct DepthGuard
    {
        std::uint32_t &depth;
        explicit DepthGuard(std::uint32_t &d) : depth(++d) {}
        ~DepthGuard() { --depth; }
    };

    bool
    value(JsonValue &out)
    {
        skipWs();
        if (pos >= s.size())
            return error("unexpected end of input");
        const char c = s[pos];
        if ((c == '{' || c == '[') && depth >= limits.maxDepth)
            return error("nesting too deep");
        if (c == '{') {
            DepthGuard guard(depth);
            ++pos;
            out.kind = JsonValue::Kind::Object;
            skipWs();
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!string(key))
                    return false;
                skipWs();
                if (pos >= s.size() || s[pos] != ':')
                    return error("expected ':'");
                ++pos;
                if (!value(out.fields[key]))
                    return false;
                skipWs();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == '}') {
                    ++pos;
                    return true;
                }
                return error("expected ',' or '}'");
            }
        }
        if (c == '[') {
            DepthGuard guard(depth);
            ++pos;
            out.kind = JsonValue::Kind::Array;
            skipWs();
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return true;
            }
            for (;;) {
                out.items.emplace_back();
                if (!value(out.items.back()))
                    return false;
                skipWs();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == ']') {
                    ++pos;
                    return true;
                }
                return error("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return string(out.str);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::Bool;
            out.b = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            out.b = false;
            return literal("false");
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::Null;
            return literal("null");
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            // Validate against the strict JSON number grammar
            // before handing the span to strtod: strtod alone also
            // accepts hex ("0x10"), "inf"/"nan" and leading zeros,
            // none of which reportJson() ever emits and none of
            // which a wire peer may smuggle in.
            const std::size_t start = pos;
            std::size_t p = pos;
            auto digits = [&]() {
                const std::size_t d0 = p;
                while (p < s.size() && s[p] >= '0' && s[p] <= '9')
                    ++p;
                return p > d0;
            };
            if (s[p] == '-')
                ++p;
            if (p < s.size() && s[p] == '0') {
                ++p; // a leading zero must stand alone
                if (p < s.size() && s[p] >= '0' && s[p] <= '9')
                    return error("leading zero in number");
            } else if (!digits()) {
                return error("bad number");
            }
            if (p < s.size() && s[p] == '.') {
                ++p;
                if (!digits())
                    return error("bad number");
            }
            if (p < s.size() && (s[p] == 'e' || s[p] == 'E')) {
                ++p;
                if (p < s.size() && (s[p] == '+' || s[p] == '-'))
                    ++p;
                if (!digits())
                    return error("bad number");
            }
            char *end = nullptr;
            out.kind = JsonValue::Kind::Number;
            out.num = std::strtod(s.c_str() + start, &end);
            if (end != s.c_str() + p)
                return error("bad number");
            pos = p;
            return true;
        }
        return error("unexpected character");
    }

    const std::string &s;
    const JsonLimits limits;
    std::size_t pos = 0;
    std::uint32_t depth = 0;
    std::string fail;
};

const JsonValue kNullJson;

} // namespace

const JsonValue &
JsonValue::operator[](const std::string &key) const
{
    auto it = fields.find(key);
    return it == fields.end() ? kNullJson : it->second;
}

const JsonValue &
JsonValue::at(std::size_t i) const
{
    return i < items.size() ? items[i] : kNullJson;
}

bool
jsonParse(const std::string &text, JsonValue &out, std::string *err,
          const JsonLimits &limits)
{
    out = JsonValue();
    return JsonParser(text, limits).parse(out, err);
}

std::string
reportJson(const JrpmReport &rep)
{
    std::string j = "{";
    j += strfmt("\"name\":\"%s\",", jsonEscape(rep.name).c_str());
    j += strfmt("\"fingerprint\":\"%016" PRIx64 "\",",
                rep.fingerprint);
    j += strfmt("\"warmStart\":%s,\"demoted\":%s,",
                b2s(rep.warmStart), b2s(rep.demoted));

    j += strfmt("\"seqMain\":%s,", runJson(rep.seqMain).c_str());
    j += strfmt("\"tls\":%s,", runJson(rep.tls).c_str());

    j += strfmt("\"profilingSlowdown\":%.17g,"
                "\"predictedTlsCycles\":%.17g,"
                "\"actualSpeedup\":%.17g,\"totalSpeedup\":%.17g,",
                rep.profilingSlowdown, rep.predictedTlsCycles,
                rep.actualSpeedup, rep.totalSpeedup);
    j += strfmt("\"outputsMatch\":%s,", b2s(rep.outputsMatch));
    j += strfmt("\"oracle\":{\"compared\":%s,\"match\":%s},",
                b2s(rep.oracle.compared), b2s(rep.oracle.match()));

    const PhaseBreakdown &ph = rep.phases;
    j += strfmt("\"phases\":{\"compile\":%" PRIu64
                ",\"profiling\":%" PRIu64 ",\"recompile\":%" PRIu64
                ",\"application\":%" PRIu64 ",\"gc\":%" PRIu64
                ",\"total\":%" PRIu64 "},",
                ph.compile, ph.profiling, ph.recompile,
                ph.application, ph.gc, ph.total());

    j += "\"selections\":[";
    bool first = true;
    for (const SelectedStl &sel : rep.selections) {
        if (!first)
            j += ',';
        first = false;
        j += strfmt("{\"loopId\":%d,\"predictedSpeedup\":%.17g,"
                    "\"coverageCycles\":%.17g,"
                    "\"itersPerEntry\":%.17g,"
                    "\"plan\":{\"syncLock\":%s,\"multilevel\":%s,"
                    "\"hoistHandlers\":%s}}",
                    sel.loopId, sel.prediction.predictedSpeedup,
                    sel.prediction.coverageCycles,
                    sel.prediction.itersPerEntry,
                    b2s(sel.plan.syncLock), b2s(sel.plan.multilevel),
                    b2s(sel.plan.hoistHandlers));
    }
    j += "],";

    // Per-loop dependence telemetry of the TLS run.
    j += "\"loops\":[";
    first = true;
    for (const auto &[loop_id, ls] : rep.tls.stl) {
        if (!first)
            j += ',';
        first = false;
        j += loopJson(loop_id, ls);
    }
    j += "]}";
    return j;
}

std::string
reportsJson(const std::vector<JrpmReport> &reps)
{
    std::string j = "[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        j += i ? ",\n" : "\n";
        j += reportJson(reps[i]);
    }
    j += "\n]\n";
    return j;
}

bool
writeReportsJson(const std::string &path,
                 const std::vector<JrpmReport> &reps)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot open report output '%s'", path.c_str());
        return false;
    }
    const std::string j = reportsJson(reps);
    const bool ok = std::fwrite(j.data(), 1, j.size(), f) == j.size();
    std::fclose(f);
    return ok;
}

} // namespace jrpm
