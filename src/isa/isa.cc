#include "isa.hh"

#include <sstream>

#include "common/logging.hh"

namespace jrpm
{

namespace
{

const char *const kRegNames[NUM_REGS] = {
    "$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3",
    "$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7",
    "$s0", "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7",
    "$t8", "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra",
};

const char *
opName(Op op)
{
    switch (op) {
      case Op::ADDU: return "addu";
      case Op::SUBU: return "subu";
      case Op::MUL: return "mul";
      case Op::DIV: return "div";
      case Op::DIVU: return "divu";
      case Op::REM: return "rem";
      case Op::REMU: return "remu";
      case Op::AND: return "and";
      case Op::OR: return "or";
      case Op::XOR: return "xor";
      case Op::NOR: return "nor";
      case Op::SLLV: return "sllv";
      case Op::SRLV: return "srlv";
      case Op::SRAV: return "srav";
      case Op::SLT: return "slt";
      case Op::SLTU: return "sltu";
      case Op::ADDIU: return "addiu";
      case Op::ANDI: return "andi";
      case Op::ORI: return "ori";
      case Op::XORI: return "xori";
      case Op::SLTI: return "slti";
      case Op::SLTIU: return "sltiu";
      case Op::LUI: return "lui";
      case Op::SLL: return "sll";
      case Op::SRL: return "srl";
      case Op::SRA: return "sra";
      case Op::FADD: return "add.s";
      case Op::FSUB: return "sub.s";
      case Op::FMUL: return "mul.s";
      case Op::FDIV: return "div.s";
      case Op::FNEG: return "neg.s";
      case Op::FCLT: return "c.lt.s";
      case Op::FCLE: return "c.le.s";
      case Op::FCEQ: return "c.eq.s";
      case Op::CVTSW: return "cvt.s.w";
      case Op::CVTWS: return "cvt.w.s";
      case Op::LW: return "lw";
      case Op::LB: return "lb";
      case Op::LBU: return "lbu";
      case Op::LH: return "lh";
      case Op::LHU: return "lhu";
      case Op::SW: return "sw";
      case Op::SB: return "sb";
      case Op::SH: return "sh";
      case Op::LWNV: return "lwnv";
      case Op::BEQ: return "beq";
      case Op::BNE: return "bne";
      case Op::BLEZ: return "blez";
      case Op::BGTZ: return "bgtz";
      case Op::BLTZ: return "bltz";
      case Op::BGEZ: return "bgez";
      case Op::BGE: return "bge";
      case Op::BLT: return "blt";
      case Op::J: return "j";
      case Op::JAL: return "jal";
      case Op::JR: return "jr";
      case Op::MFC2: return "mfc2";
      case Op::MTC2: return "mtc2";
      case Op::SCOP: return "scop_cmd";
      case Op::SMEM: return "smem_cmd";
      case Op::SLOOP: return "sloop";
      case Op::EOI: return "eoi";
      case Op::ENDLOOP: return "eloop";
      case Op::LWLANN: return "lwl";
      case Op::SWLANN: return "swl";
      case Op::TRAP: return "trap";
      case Op::NOP: return "nop";
      case Op::HALT: return "halt";
    }
    return "?";
}

const char *
scopCmdName(ScopCmd c)
{
    switch (c) {
      case ScopCmd::EnableSpec: return "enable_spec";
      case ScopCmd::DisableSpec: return "disable_spec";
      case ScopCmd::WakeSlaves: return "wake_slaves";
      case ScopCmd::KillSlaves: return "kill_slaves";
      case ScopCmd::ResetCache: return "reset_cache";
      case ScopCmd::AdvanceCache: return "advance_cache";
      case ScopCmd::WaitHead: return "wait_head";
      case ScopCmd::SwitchBegin: return "switch_begin";
      case ScopCmd::SwitchEnable: return "switch_enable";
      case ScopCmd::SwitchShutdown: return "switch_shutdown";
    }
    return "?";
}

const char *
smemCmdName(SmemCmd c)
{
    switch (c) {
      case SmemCmd::CommitBuffer: return "commit_buffer";
      case SmemCmd::CommitBufferAndHead: return "commit_buffer_and_head";
      case SmemCmd::KillBuffer: return "kill_buffer";
    }
    return "?";
}

const char *
cp2RegName(Cp2Reg r)
{
    switch (r) {
      case Cp2Reg::SavedFp: return "saved_fp";
      case Cp2Reg::SavedGp: return "saved_gp";
      case Cp2Reg::Iteration: return "iteration";
      case Cp2Reg::CpuId: return "cpu_id";
      case Cp2Reg::NumCpus: return "num_cpus";
      case Cp2Reg::SavedW0: return "saved_w0";
      case Cp2Reg::SavedW1: return "saved_w1";
      case Cp2Reg::SavedW2: return "saved_w2";
      case Cp2Reg::SavedW3: return "saved_w3";
    }
    return "?";
}

} // namespace

const char *
regName(std::uint8_t r)
{
    if (r >= NUM_REGS)
        panic("bad register number %u", r);
    return kRegNames[r];
}

bool
isLoad(Op op)
{
    switch (op) {
      case Op::LW:
      case Op::LB:
      case Op::LBU:
      case Op::LH:
      case Op::LHU:
      case Op::LWNV:
        return true;
      default:
        return false;
    }
}

bool
isStore(Op op)
{
    switch (op) {
      case Op::SW:
      case Op::SB:
      case Op::SH:
        return true;
      default:
        return false;
    }
}

std::string
disassemble(const Inst &i)
{
    std::ostringstream out;
    out << opName(i.op) << " ";
    switch (i.op) {
      case Op::ADDU: case Op::SUBU: case Op::MUL: case Op::DIV:
      case Op::DIVU: case Op::REM: case Op::REMU: case Op::AND:
      case Op::OR: case Op::XOR: case Op::NOR: case Op::SLLV:
      case Op::SRLV: case Op::SRAV: case Op::SLT: case Op::SLTU:
      case Op::FADD: case Op::FSUB: case Op::FMUL: case Op::FDIV:
      case Op::FCLT: case Op::FCLE: case Op::FCEQ:
        out << regName(i.rd) << ", " << regName(i.rs) << ", "
            << regName(i.rt);
        break;
      case Op::FNEG: case Op::CVTSW: case Op::CVTWS:
        out << regName(i.rd) << ", " << regName(i.rs);
        break;
      case Op::ADDIU: case Op::ANDI: case Op::ORI: case Op::XORI:
      case Op::SLTI: case Op::SLTIU: case Op::SLL: case Op::SRL:
      case Op::SRA:
        out << regName(i.rd) << ", " << regName(i.rs) << ", " << i.imm;
        break;
      case Op::LUI:
        out << regName(i.rd) << ", " << i.imm;
        break;
      case Op::LW: case Op::LB: case Op::LBU: case Op::LH:
      case Op::LHU: case Op::LWNV:
        out << regName(i.rd) << ", " << i.imm << "(" << regName(i.rs)
            << ")";
        break;
      case Op::SW: case Op::SB: case Op::SH:
        out << regName(i.rt) << ", " << i.imm << "(" << regName(i.rs)
            << ")";
        break;
      case Op::BEQ: case Op::BNE: case Op::BGE: case Op::BLT:
        out << regName(i.rs) << ", " << regName(i.rt) << ", "
            << i.target;
        break;
      case Op::BLEZ: case Op::BGTZ: case Op::BLTZ: case Op::BGEZ:
        out << regName(i.rs) << ", " << i.target;
        break;
      case Op::J:
        out << i.target;
        break;
      case Op::JAL:
        out << "method#" << i.imm;
        break;
      case Op::JR:
        out << regName(i.rs);
        break;
      case Op::MFC2:
        out << regName(i.rd) << ", "
            << cp2RegName(static_cast<Cp2Reg>(i.imm));
        break;
      case Op::MTC2:
        out << regName(i.rs) << ", "
            << cp2RegName(static_cast<Cp2Reg>(i.imm));
        break;
      case Op::SCOP:
        out << scopCmdName(static_cast<ScopCmd>(i.imm));
        break;
      case Op::SMEM:
        out << smemCmdName(static_cast<SmemCmd>(i.imm));
        break;
      case Op::SLOOP:
        out << i.imm << ", " << static_cast<int>(i.rt);
        break;
      case Op::EOI: case Op::ENDLOOP:
        out << i.imm;
        break;
      case Op::LWLANN: case Op::SWLANN:
        out << "v" << i.imm;
        break;
      case Op::TRAP:
        out << i.imm;
        break;
      case Op::NOP: case Op::HALT:
        break;
    }
    return out.str();
}

std::string
NativeCode::disassembleAll() const
{
    std::ostringstream out;
    out << name << ":\n";
    for (std::size_t pc = 0; pc < insts.size(); ++pc)
        out << "  " << pc << ":\t" << disassemble(insts[pc]) << "\n";
    return out.str();
}

Asm::Asm(std::string name)
{
    code.name = std::move(name);
}

Asm::Label
Asm::newLabel()
{
    labelPos.push_back(-1);
    return static_cast<Label>(labelPos.size() - 1);
}

void
Asm::bind(Label l)
{
    if (l < 0 || static_cast<std::size_t>(l) >= labelPos.size())
        panic("bind of unknown label %d", l);
    if (labelPos[l] != -1)
        panic("label %d bound twice", l);
    labelPos[l] = here();
}

void
Asm::emit(const Inst &inst)
{
    if (finished)
        panic("emit after finish");
    code.insts.push_back(inst);
}

void
Asm::aluRR(Op op, std::uint8_t rd, std::uint8_t rs, std::uint8_t rt)
{
    emit({op, rd, rs, rt, 0, 0});
}

void
Asm::aluRI(Op op, std::uint8_t rd, std::uint8_t rs, std::int32_t imm)
{
    emit({op, rd, rs, 0, imm, 0});
}

void
Asm::li(std::uint8_t rd, std::int32_t value)
{
    if (value >= -32768 && value <= 32767) {
        aluRI(Op::ADDIU, rd, R_ZERO, value);
    } else {
        aluRI(Op::LUI, rd, 0, static_cast<std::int32_t>(
            (static_cast<std::uint32_t>(value) >> 16) & 0xffff));
        if (value & 0xffff)
            aluRI(Op::ORI, rd, rd, value & 0xffff);
    }
}

void
Asm::move(std::uint8_t rd, std::uint8_t rs)
{
    aluRR(Op::OR, rd, rs, R_ZERO);
}

void
Asm::load(Op op, std::uint8_t rd, std::uint8_t base, std::int32_t off)
{
    if (!isLoad(op))
        panic("load() with non-load opcode");
    emit({op, rd, base, 0, off, 0});
}

void
Asm::store(Op op, std::uint8_t rt, std::uint8_t base, std::int32_t off)
{
    if (!isStore(op))
        panic("store() with non-store opcode");
    emit({op, 0, base, rt, off, 0});
}

void
Asm::branch(Op op, std::uint8_t rs, std::uint8_t rt, Label l)
{
    fixups.emplace_back(here(), l);
    emit({op, 0, rs, rt, 0, -1});
}

void
Asm::jump(Label l)
{
    fixups.emplace_back(here(), l);
    emit({Op::J, 0, 0, 0, 0, -1});
}

void
Asm::jal(std::uint32_t method_id)
{
    emit({Op::JAL, 0, 0, 0, static_cast<std::int32_t>(method_id), 0});
}

void
Asm::jr(std::uint8_t rs)
{
    emit({Op::JR, 0, rs, 0, 0, 0});
}

void
Asm::mfc2(std::uint8_t rd, Cp2Reg reg)
{
    emit({Op::MFC2, rd, 0, 0, static_cast<std::int32_t>(reg), 0});
}

void
Asm::mtc2(std::uint8_t rs, Cp2Reg reg)
{
    emit({Op::MTC2, 0, rs, 0, static_cast<std::int32_t>(reg), 0});
}

void
Asm::scop(ScopCmd cmd)
{
    emit({Op::SCOP, 0, 0, 0, static_cast<std::int32_t>(cmd), 0, 0});
}

void
Asm::scopT(ScopCmd cmd, Label target, std::int32_t stl_id)
{
    fixups.emplace_back(here(), target);
    emit({Op::SCOP, 0, 0, 0, static_cast<std::int32_t>(cmd), -1,
          stl_id});
}

void
Asm::smem(SmemCmd cmd)
{
    emit({Op::SMEM, 0, 0, 0, static_cast<std::int32_t>(cmd), 0});
}

void
Asm::trap(TrapId id)
{
    emit({Op::TRAP, 0, 0, 0, static_cast<std::int32_t>(id), 0});
}

void
Asm::sloop(std::int32_t loop_id, std::uint8_t lvar_slots)
{
    emit({Op::SLOOP, 0, 0, lvar_slots, loop_id, 0});
}

void
Asm::eoi(std::int32_t loop_id)
{
    emit({Op::EOI, 0, 0, 0, loop_id, 0});
}

void
Asm::eloop(std::int32_t loop_id)
{
    emit({Op::ENDLOOP, 0, 0, 0, loop_id, 0});
}

void
Asm::lwlann(std::int32_t slot)
{
    emit({Op::LWLANN, 0, 0, 0, slot, 0});
}

void
Asm::swlann(std::int32_t slot)
{
    emit({Op::SWLANN, 0, 0, 0, slot, 0});
}

void
Asm::nop()
{
    emit({Op::NOP, 0, 0, 0, 0, 0});
}

void
Asm::halt()
{
    emit({Op::HALT, 0, 0, 0, 0, 0});
}

void
Asm::addCatch(Label begin, Label end, Label handler, std::int32_t kind)
{
    pendingCatches.push_back({begin, end, handler, kind});
}

void
Asm::noteSavedReg(std::uint8_t reg, std::int32_t fp_offset)
{
    code.savedRegs.emplace_back(reg, fp_offset);
}

void
Asm::setFrameBytes(std::uint32_t bytes)
{
    code.frameBytes = bytes;
}

std::int32_t
Asm::positionOf(Label l) const
{
    if (l < 0 || static_cast<std::size_t>(l) >= labelPos.size() ||
        labelPos[l] == -1)
        panic("positionOf unbound label %d in %s", l,
              code.name.c_str());
    return labelPos[l];
}

void
Asm::addCatchRaw(std::int32_t begin, std::int32_t end,
                 std::int32_t handler, std::int32_t kind)
{
    code.catches.push_back({begin, end, handler, kind});
}

Inst &
Asm::lastInst()
{
    if (code.insts.empty())
        panic("lastInst on empty code in %s", code.name.c_str());
    return code.insts.back();
}

NativeCode
Asm::finish()
{
    if (finished)
        panic("finish called twice");
    finished = true;
    for (const auto &[pc, label] : fixups) {
        if (labelPos[label] == -1)
            panic("unbound label %d in %s", label, code.name.c_str());
        code.insts[pc].target = labelPos[label];
    }
    for (const auto &pc : pendingCatches) {
        if (labelPos[pc.begin] == -1 || labelPos[pc.end] == -1 ||
            labelPos[pc.handler] == -1)
            panic("unbound catch label in %s", code.name.c_str());
        code.catches.push_back({labelPos[pc.begin], labelPos[pc.end],
                                labelPos[pc.handler], pc.kind});
    }
    return std::move(code);
}

} // namespace jrpm
