#include "code_space.hh"

#include "common/logging.hh"

namespace jrpm
{

std::uint32_t
CodeSpace::install(NativeCode code)
{
    if (methods.size() >= 4096)
        panic("code space full (4096 methods)");
    if (code.insts.size() >= (1u << 20))
        panic("method %s too large (%zu insts)", code.name.c_str(),
              code.insts.size());
    code.methodId = static_cast<std::uint32_t>(methods.size());
    methods.push_back(std::move(code));
    ++gen;
    return methods.back().methodId;
}

void
CodeSpace::replace(std::uint32_t method_id, NativeCode code)
{
    if (method_id >= methods.size())
        panic("replace of unknown method %u", method_id);
    code.methodId = method_id;
    methods[method_id] = std::move(code);
    ++gen;
}

const NativeCode &
CodeSpace::method(std::uint32_t method_id) const
{
    if (method_id >= methods.size())
        panic("unknown method id %u", method_id);
    return methods[method_id];
}

NativeCode &
CodeSpace::method(std::uint32_t method_id)
{
    if (method_id >= methods.size())
        panic("unknown method id %u", method_id);
    return methods[method_id];
}

std::size_t
CodeSpace::totalInsts() const
{
    std::size_t n = 0;
    for (const auto &m : methods)
        n += m.insts.size();
    return n;
}

} // namespace jrpm
