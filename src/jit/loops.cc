#include "loops.hh"

#include <algorithm>

#include "common/logging.hh"

namespace jrpm
{

BcSuccs
bcSuccessors(const BcMethod &m, std::int32_t at)
{
    BcSuccs out;
    const BcInst &inst = m.code[at];
    const auto n = static_cast<std::int32_t>(m.code.size());
    if (bcIsBranch(inst.op))
        out.to[out.count++] = inst.imm;
    if (!bcIsTerminator(inst.op) && at + 1 < n)
        out.to[out.count++] = at + 1;
    return out;
}

std::int32_t
LoopNest::innermostAt(std::int32_t bc) const
{
    std::int32_t best = -1;
    std::uint32_t best_depth = 0;
    for (const auto &l : loops) {
        if (l.body.count(bc) && l.depth >= best_depth) {
            best = l.loopId;
            best_depth = l.depth;
        }
    }
    return best;
}

const JitLoop &
LoopNest::byId(std::int32_t loop_id) const
{
    if (const JitLoop *l = tryById(loop_id))
        return *l;
    panic("unknown loop id %d", loop_id);
}

const JitLoop *
LoopNest::tryById(std::int32_t loop_id) const
{
    for (const auto &l : loops)
        if (l.loopId == loop_id)
            return &l;
    return nullptr;
}

std::string
describeLoop(const JitLoop &loop)
{
    return strfmt("loop %d (header bc %d, depth %u, %zu bytecodes)",
                  loop.loopId, loop.header, loop.depth,
                  loop.body.size());
}

LoopNest
findLoops(const BcMethod &m, std::int32_t first_loop_id)
{
    const auto n = static_cast<std::int32_t>(m.code.size());
    LoopNest nest;
    if (n == 0)
        return nest;

    // Flat CFG, built once: the in-range successors of each bytecode.
    std::vector<BcSuccs> succ(n);
    for (std::int32_t i = 0; i < n; ++i)
        for (std::int32_t s : bcSuccessors(m, i))
            if (s < n)
                succ[i].to[succ[i].count++] = s;

    // Roots: the entry and every catch handler.  They hang off a
    // virtual root, so nothing outside a handler dominates it.
    std::vector<char> isRoot(n, 0);
    isRoot[0] = 1;
    for (const auto &c : m.catches)
        isRoot[c.handler] = 1;

    // Depth-first postorder from the roots.  num[v] is v's
    // reverse-postorder number: 0 is the virtual root, 1..r the
    // reachable bytecodes, -1 the unreachable ones.
    std::vector<std::int32_t> num(n, -1);
    std::vector<std::int32_t> post;
    post.reserve(n);
    {
        std::vector<std::pair<std::int32_t, std::uint32_t>> stack;
        for (std::int32_t root = 0; root < n; ++root) {
            if (!isRoot[root] || num[root] == 0)
                continue;
            num[root] = 0;
            stack.push_back({root, 0});
            while (!stack.empty()) {
                auto &[v, next] = stack.back();
                if (next == succ[v].count) {
                    post.push_back(v);
                    stack.pop_back();
                    continue;
                }
                const std::int32_t s = succ[v].to[next++];
                if (num[s] == -1) {
                    num[s] = 0;
                    stack.push_back({s, 0});
                }
            }
        }
    }
    const auto r = static_cast<std::int32_t>(post.size());
    std::vector<std::int32_t> node(r + 1, -1); // RPO number -> bytecode
    for (std::int32_t j = 0; j < r; ++j) {
        num[post[j]] = r - j;
        node[r - j] = post[j];
    }

    // Predecessors along reachable edges, CSR: preds[predAt[v] ..
    // predAt[v + 1]) in ascending source order.
    std::vector<std::int32_t> predAt(n + 1, 0);
    for (std::int32_t i = 0; i < n; ++i)
        if (num[i] > 0)
            for (std::int32_t s : succ[i])
                ++predAt[s + 1];
    for (std::int32_t i = 0; i < n; ++i)
        predAt[i + 1] += predAt[i];
    std::vector<std::int32_t> preds(predAt[n]);
    {
        std::vector<std::int32_t> fill(predAt.begin(), predAt.end() - 1);
        for (std::int32_t i = 0; i < n; ++i)
            if (num[i] > 0)
                for (std::int32_t s : succ[i])
                    preds[fill[s]++] = i;
    }

    // Immediate dominators over RPO numbers (Cooper, Harvey and
    // Kennedy, "A Simple, Fast Dominance Algorithm"): a dominator
    // always has the lower RPO number, whatever the bytecode layout.
    constexpr std::int32_t kUndef = -1;
    std::vector<std::int32_t> idom(r + 1, kUndef);
    idom[0] = 0;
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
        for (std::int32_t k = 1; k <= r; ++k) {
            const std::int32_t v = node[k];
            std::int32_t d = isRoot[v] ? 0 : kUndef;
            for (std::int32_t j = predAt[v]; j < predAt[v + 1]; ++j) {
                const std::int32_t p = num[preds[j]];
                if (idom[p] == kUndef)
                    continue;
                d = d == kUndef ? p : intersect(p, d);
            }
            if (idom[k] != d) {
                idom[k] = d;
                changed = true;
            }
        }
    }

    // Dominator-tree intervals: a dominates b iff b's preorder number
    // falls in [pre[a], pre[a] + size[a]).  A parent's RPO number is
    // below its children's, so one pass each way suffices.
    std::vector<std::int32_t> size(r + 1, 1), pre(r + 1, 0),
        nextPre(r + 1, 1);
    for (std::int32_t k = r; k >= 1; --k)
        size[idom[k]] += size[k];
    for (std::int32_t k = 1; k <= r; ++k) {
        pre[k] = nextPre[idom[k]];
        nextPre[idom[k]] += size[k];
        nextPre[k] = pre[k] + 1;
    }
    auto dominates = [&](std::int32_t a, std::int32_t b) {
        const std::int32_t ka = num[a], kb = num[b];
        return pre[ka] <= pre[kb] && pre[kb] < pre[ka] + size[ka];
    };

    // Back edges, grouped by header in order of discovery.
    std::vector<JitLoop> loops;
    std::vector<std::int32_t> loopOf(n, -1); // header -> loops index
    for (std::int32_t i = 0; i < n; ++i) {
        if (num[i] <= 0)
            continue;
        for (std::int32_t h : succ[i]) {
            if (!dominates(h, i))
                continue;
            if (loopOf[h] < 0) {
                loopOf[h] = static_cast<std::int32_t>(loops.size());
                loops.emplace_back().header = h;
            }
            loops[loopOf[h]].latches.push_back(i);
        }
    }

    // Natural-loop bodies: the header plus everything that reaches a
    // latch without passing the header.  One walk per header gives
    // the union over its back edges.
    std::vector<std::int32_t> mark(n, -1), members, work;
    for (std::int32_t li = 0;
         li < static_cast<std::int32_t>(loops.size()); ++li) {
        JitLoop &l = loops[li];
        members.assign(1, l.header);
        mark[l.header] = li;
        for (std::int32_t latch : l.latches) {
            if (mark[latch] != li) {
                mark[latch] = li;
                members.push_back(latch);
                work.push_back(latch);
            }
        }
        while (!work.empty()) {
            const std::int32_t at = work.back();
            work.pop_back();
            for (std::int32_t j = predAt[at]; j < predAt[at + 1]; ++j) {
                const std::int32_t p = preds[j];
                if (mark[p] != li) {
                    mark[p] = li;
                    members.push_back(p);
                    work.push_back(p);
                }
            }
        }
        std::sort(members.begin(), members.end());
        l.body.insert(members.begin(), members.end());
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

} // namespace jrpm
