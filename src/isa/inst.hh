/**
 * @file
 * The guest mini-ISA.
 *
 * A small 64-bit RISC instruction set, rich enough to express real
 * multithreaded programs (spin locks, barriers, lock-free queues) whose
 * timing feeds back into the memory system.  Instructions are kept in
 * decoded form; the "program counter" is an instruction index.
 *
 * Registers: x0..x31, with x0 hard-wired to zero (RISC-style).
 * Memory operands are byte-addressed; loads/stores are 1/2/4/8 bytes,
 * naturally aligned, zero-extending.
 */

#pragma once

#include <cstdint>

#include "base/types.hh"

namespace fenceless::isa
{

/** Number of architectural integer registers. */
inline constexpr unsigned num_regs = 32;

/** Register index type. */
using RegId = std::uint8_t;

/** Conventional register names used by the assembler and runtime. */
enum Reg : RegId
{
    x0 = 0,  //!< hard-wired zero
    ra = 1,  //!< return address (JAL link)
    sp = 2,  //!< stack pointer
    gp = 3,  //!< global pointer
    tp = 4,  //!< thread id (loaded at startup by convention)
    t0 = 5, t1 = 6, t2 = 7, t3 = 8, t4 = 9, t5 = 10, t6 = 11,
    a0 = 12, a1 = 13, a2 = 14, a3 = 15, a4 = 16, a5 = 17,
    s0 = 18, s1 = 19, s2 = 20, s3 = 21, s4 = 22, s5 = 23,
    s6 = 24, s7 = 25, s8 = 26, s9 = 27, s10 = 28, s11 = 29,
    t7 = 30, t8 = 31,
};

/** Operation codes. */
enum class Op : std::uint8_t
{
    // ALU register-register
    Add, Sub, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu, Mul, Divu, Remu,
    // ALU register-immediate
    Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti, Sltiu,
    // Load a 64-bit immediate
    Li,
    // Memory
    Load,     //!< rd <- mem[rs1 + imm]  (size bytes, zero-extended)
    Store,    //!< mem[rs1 + imm] <- rs2 (size bytes)
    // Atomics (address in rs1, no displacement, size bytes)
    AmoSwap,  //!< rd <- mem; mem <- rs2
    AmoAdd,   //!< rd <- mem; mem <- mem + rs2
    AmoCas,   //!< rd <- mem; if (mem == rs2) mem <- rs3
    // Fences
    Fence,    //!< ordering barrier; kind in Inst::fence
    // Control (targets are absolute instruction indices, in imm)
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    Jal,      //!< rd <- pc + 1; pc <- imm
    Jalr,     //!< rd <- pc + 1; pc <- rs1 + imm
    // System
    CsrRead,  //!< rd <- csr (which csr in Inst::csr)
    Halt,     //!< thread finished
    Nop,
    Pause,    //!< spin-loop hint (timing: one idle cycle)
};

/** Fence flavours; baseline cost depends on the consistency model. */
enum class FenceKind : std::uint8_t
{
    Full,    //!< orders everything (e.g. Dekker, barrier publish)
    Acquire, //!< orders an acquiring load/AMO before later accesses
    Release, //!< orders earlier accesses before a releasing store
};

/** Readable control/status registers. */
enum class Csr : std::uint8_t
{
    Tid,      //!< this hardware thread's id (0-based)
    NumCores, //!< number of cores in the system
    Cycle,    //!< current cycle count
    InstRet,  //!< instructions retired by this core
};

/** One decoded instruction. */
struct Inst
{
    Op op = Op::Nop;
    RegId rd = 0;
    RegId rs1 = 0;
    RegId rs2 = 0;
    RegId rs3 = 0;
    std::uint8_t size = 8; //!< memory access size in bytes
    FenceKind fence = FenceKind::Full;
    Csr csr = Csr::Tid;
    std::int64_t imm = 0;

    bool isLoad() const { return op == Op::Load; }
    bool isStore() const { return op == Op::Store; }

    bool
    isAmo() const
    {
        return op == Op::AmoSwap || op == Op::AmoAdd || op == Op::AmoCas;
    }

    bool isMem() const { return isLoad() || isStore() || isAmo(); }
};

/** @return the mnemonic for @p op. */
const char *opName(Op op);

/**
 * Shared ALU semantics used by both the functional interpreter and the
 * timing core, so they cannot diverge.
 *
 * @param op   an ALU operation (register-register or register-immediate)
 * @param a    first operand value
 * @param b    second operand value (register or immediate, pre-selected)
 * @return the result value
 */
std::uint64_t aluOp(Op op, std::uint64_t a, std::uint64_t b);

/** Shared branch-taken decision for conditional branches. */
bool branchTaken(Op op, std::uint64_t a, std::uint64_t b);

/**
 * Apply an AMO to an old memory value.
 *
 * @return the new memory value (may equal @p old_value for a failed CAS).
 */
std::uint64_t amoApply(const Inst &inst, std::uint64_t old_value,
                       std::uint64_t rs2_value, std::uint64_t rs3_value);

/** Opcode-only form of amoApply, for callers that pre-read operands. */
std::uint64_t amoApplyOp(Op op, std::uint64_t old_value,
                         std::uint64_t rs2_value,
                         std::uint64_t rs3_value);

} // namespace fenceless::isa
