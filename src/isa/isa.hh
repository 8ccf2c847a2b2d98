/**
 * @file
 * The simulated MIPS-like instruction set of the Hydra CMP.
 *
 * Instructions are plain structs rather than binary encodings: Jrpm's
 * results depend on instruction *timing and semantics*, not on bit
 * layouts.  The set mirrors the subset of MIPS the paper's figures use,
 * plus Hydra's speculation-control extensions (Fig. 4), the
 * non-violating load `lwnv` (Fig. 6), and the TEST annotation
 * instructions of Table 2 (`sloop`, `eoi`, `eloop`, `lwl`, `swl`).
 */

#ifndef JRPM_ISA_ISA_HH
#define JRPM_ISA_ISA_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace jrpm
{

/** Architectural register numbers (MIPS conventions). */
enum Reg : std::uint8_t
{
    R_ZERO = 0, R_AT = 1, R_V0 = 2, R_V1 = 3,
    R_A0 = 4, R_A1 = 5, R_A2 = 6, R_A3 = 7,
    R_T0 = 8, R_T1 = 9, R_T2 = 10, R_T3 = 11,
    R_T4 = 12, R_T5 = 13, R_T6 = 14, R_T7 = 15,
    R_S0 = 16, R_S1 = 17, R_S2 = 18, R_S3 = 19,
    R_S4 = 20, R_S5 = 21, R_S6 = 22, R_S7 = 23,
    R_T8 = 24, R_T9 = 25, R_K0 = 26, R_K1 = 27,
    R_GP = 28, R_SP = 29, R_FP = 30, R_RA = 31,
    NUM_REGS = 32,
};

/** Printable name of an architectural register. */
const char *regName(std::uint8_t r);

/** Opcodes of the simulated ISA. */
enum class Op : std::uint8_t
{
    // ALU register-register.
    ADDU, SUBU, MUL, DIV, DIVU, REM, REMU,
    AND, OR, XOR, NOR,
    SLLV, SRLV, SRAV, SLT, SLTU,
    // ALU register-immediate (imm in Inst::imm).
    ADDIU, ANDI, ORI, XORI, SLTI, SLTIU, LUI,
    SLL, SRL, SRA,
    // IEEE-754 single precision on integer registers (bit patterns).
    FADD, FSUB, FMUL, FDIV, FNEG,
    FCLT, FCLE, FCEQ,      // compares; write 0/1 to rd
    CVTSW,                 // int -> float
    CVTWS,                 // float -> int (truncating)
    // Memory: address = reg[rs] + imm.
    LW, LB, LBU, LH, LHU,
    SW, SB, SH,
    LWNV,                  // load word, non-violating (Fig. 6)
    // Control: target is an absolute instruction index in the method.
    BEQ, BNE,              // compare rs, rt
    BLEZ, BGTZ, BLTZ, BGEZ, // compare rs against zero
    BGE, BLT,              // reg-reg compare pseudo-ops (paper Fig. 3/5)
    J,                     // unconditional, method-local
    JAL,                   // direct call: imm = callee method id
    JR,                    // indirect jump through rs (returns)
    // Speculation coprocessor (CP2).
    MFC2, MTC2,            // imm selects a Cp2Reg
    SCOP,                  // speculation-control command (imm = ScopCmd)
    SMEM,                  // store-buffer command (imm = SmemCmd)
    // TEST annotation instructions (Table 2); no-ops unless profiling.
    SLOOP,                 // imm = loop id, rt = local-var slot count
    EOI,                   // imm = loop id
    ENDLOOP,               // imm = loop id (eloop)
    LWLANN,                // imm = local-var slot; annotates a local load
    SWLANN,                // imm = local-var slot; annotates a local store
    // Runtime interface.
    TRAP,                  // imm = TrapId; calls into the VM runtime
    NOP,
    HALT,                  // stop this CPU (end of program)
};

/** CP2 (speculation coprocessor) register numbers. */
enum class Cp2Reg : std::uint8_t
{
    SavedFp = 0,      ///< master's $fp, read by slaves at startup
    SavedGp = 1,      ///< master's $gp
    Iteration = 2,    ///< per-CPU speculative-thread iteration counter
    CpuId = 3,        ///< index of this CPU
    NumCpus = 4,      ///< number of CPUs participating in the STL
    SavedW0 = 5,      ///< scratch slots the compiler may use for
    SavedW1 = 6,      ///<   broadcasting STL init values
    SavedW2 = 7,
    SavedW3 = 8,
};

/** Speculation-control commands (Fig. 4's scop_cmd operands). */
enum class ScopCmd : std::uint8_t
{
    EnableSpec,     ///< master: turn TLS on
    DisableSpec,    ///< head: turn TLS off
    WakeSlaves,     ///< master: start slave CPUs at the STL entry
    KillSlaves,     ///< head: stop all other CPUs
    ResetCache,     ///< clear this CPU's L1 speculation tag bits
    AdvanceCache,   ///< end of iteration: clear tags, bump iteration
    WaitHead,       ///< stall until this CPU holds the head iteration
    // Multilevel STL decompositions (§4.2.6, Fig. 7): the head CPU of
    // the outer STL temporarily retargets speculation onto an inner
    // loop, then restores the outer decomposition.
    SwitchBegin,    ///< wait head, commit, park peers, push context
    SwitchEnable,   ///< begin inner STL with this CPU as master
    SwitchShutdown, ///< end inner STL, pop and resume the outer one
};

/** Store-buffer commands (Fig. 4's smem_cmd operands). */
enum class SmemCmd : std::uint8_t
{
    CommitBuffer,        ///< drain speculative stores to memory
    CommitBufferAndHead, ///< drain and pass head to the next iteration
    KillBuffer,          ///< discard speculative stores (restart path)
};

/** Identifiers for VM runtime services reachable via TRAP. */
enum class TrapId : std::uint16_t
{
    AllocObject,    ///< a0 = class id, a1 = payload words; v0 = ref
    AllocArray,     ///< a0 = element words(1), a1 = length; v0 = ref
    MonitorEnter,   ///< a0 = object ref
    MonitorExit,    ///< a0 = object ref
    Throw,          ///< a0 = exception object ref (or kind tag)
    PrintInt,       ///< a0 = value (debug/demo I/O; not speculable)
    GcSafepoint,    ///< may trigger a collection (non-speculative only)
    Yield,          ///< scheduling hint; no-op
};

/**
 * One simulated instruction.  Field use depends on the opcode; unused
 * fields are zero.  Branch/jump targets are absolute instruction
 * indexes within the owning method, resolved by the assembler.
 */
struct Inst
{
    Op op = Op::NOP;
    std::uint8_t rd = 0;    ///< destination register
    std::uint8_t rs = 0;    ///< first source register
    std::uint8_t rt = 0;    ///< second source register
    std::int32_t imm = 0;   ///< immediate / command / method id / slot
    std::int32_t target = 0; ///< branch target (instruction index)
    std::int32_t aux = 0;   ///< secondary operand (e.g. STL loop id)
};

/** Disassemble one instruction for debugging and the examples. */
std::string disassemble(const Inst &inst);

/** True if the opcode reads simulated data memory. */
bool isLoad(Op op);

/** True if the opcode writes simulated data memory. */
bool isStore(Op op);

/**
 * A compiled method's native code: a flat instruction vector plus
 * metadata the runtime needs (frame size, exception table).
 */
class NativeCode
{
  public:
    /** Try-region entry mapping covered code to a catch handler. */
    struct CatchEntry
    {
        std::int32_t beginPc;   ///< first covered instruction
        std::int32_t endPc;     ///< one past the last covered one
        std::int32_t handlerPc; ///< dispatch target
        std::int32_t kind;      ///< exception kind filter (-1 = any)
    };

    std::string name;           ///< method name (diagnostics)
    std::uint32_t methodId = 0; ///< index in the code space
    std::uint32_t frameBytes = 0; ///< stack frame size in bytes
    std::vector<Inst> insts;
    std::vector<CatchEntry> catches;
    /**
     * Callee-saved registers this method spills in its prologue, as
     * (register, offset-from-$fp) pairs.  The exception unwinder uses
     * this to restore caller state when popping the frame.
     */
    std::vector<std::pair<std::uint8_t, std::int32_t>> savedRegs;

    /** Disassemble the whole method. */
    std::string disassembleAll() const;
};

/**
 * Builder-assembler for NativeCode with forward-reference labels.
 *
 * The JIT back end and the unit tests both emit code through this
 * class; it owns label bookkeeping and resolves targets on finish().
 */
class Asm
{
  public:
    explicit Asm(std::string name);

    /** Opaque label handle. */
    using Label = std::int32_t;

    /** Create an unbound label. */
    Label newLabel();

    /** Bind a label to the current position. */
    void bind(Label l);

    /** Current instruction index. */
    std::int32_t here() const { return static_cast<std::int32_t>(
        code.insts.size()); }

    /** Append a raw instruction (no label resolution). */
    void emit(const Inst &inst);

    // --- convenience emitters -------------------------------------
    void aluRR(Op op, std::uint8_t rd, std::uint8_t rs, std::uint8_t rt);
    void aluRI(Op op, std::uint8_t rd, std::uint8_t rs, std::int32_t imm);
    /** Load a 32-bit constant (expands to LUI/ORI or ADDIU). */
    void li(std::uint8_t rd, std::int32_t value);
    void move(std::uint8_t rd, std::uint8_t rs);
    void load(Op op, std::uint8_t rd, std::uint8_t base, std::int32_t off);
    void store(Op op, std::uint8_t rt, std::uint8_t base,
               std::int32_t off);
    void branch(Op op, std::uint8_t rs, std::uint8_t rt, Label l);
    void jump(Label l);
    void jal(std::uint32_t method_id);
    void jr(std::uint8_t rs);
    void mfc2(std::uint8_t rd, Cp2Reg reg);
    void mtc2(std::uint8_t rs, Cp2Reg reg);
    void scop(ScopCmd cmd);
    /** SCOP with a code target (restart pc / slave entry) + STL id. */
    void scopT(ScopCmd cmd, Label target, std::int32_t stl_id = 0);
    void smem(SmemCmd cmd);
    void trap(TrapId id);
    void sloop(std::int32_t loop_id, std::uint8_t lvar_slots);
    void eoi(std::int32_t loop_id);
    void eloop(std::int32_t loop_id);
    void lwlann(std::int32_t slot);
    void swlann(std::int32_t slot);
    void nop();
    void halt();

    /** Add a catch entry (labels resolved on finish()). */
    void addCatch(Label begin, Label end, Label handler,
                  std::int32_t kind);

    /** Record a callee-saved register spilled at fp+offset. */
    void noteSavedReg(std::uint8_t reg, std::int32_t fp_offset);

    /** Set the frame size recorded in the finished method. */
    void setFrameBytes(std::uint32_t bytes);

    /** Position a bound label resolved to (panics if unbound). */
    std::int32_t positionOf(Label l) const;

    /** Add a catch entry with already-resolved instruction indexes. */
    void addCatchRaw(std::int32_t begin, std::int32_t end,
                     std::int32_t handler, std::int32_t kind);

    /** Mutable access to the most recently emitted instruction. */
    Inst &lastInst();

    /** Resolve all labels and return the finished method. */
    NativeCode finish();

  private:
    struct PendingCatch
    {
        Label begin, end, handler;
        std::int32_t kind;
    };

    NativeCode code;
    std::vector<std::int32_t> labelPos;   ///< -1 while unbound
    /** (instruction index, label) fixups for branch/jump targets. */
    std::vector<std::pair<std::int32_t, Label>> fixups;
    std::vector<PendingCatch> pendingCatches;
    bool finished = false;
};

} // namespace jrpm

#endif // JRPM_ISA_ISA_HH
