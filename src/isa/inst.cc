#include "isa/inst.hh"

#include "base/logging.hh"

namespace fenceless::isa
{

const char *
opName(Op op)
{
    switch (op) {
      case Op::Add: return "add";
      case Op::Sub: return "sub";
      case Op::And: return "and";
      case Op::Or: return "or";
      case Op::Xor: return "xor";
      case Op::Sll: return "sll";
      case Op::Srl: return "srl";
      case Op::Sra: return "sra";
      case Op::Slt: return "slt";
      case Op::Sltu: return "sltu";
      case Op::Mul: return "mul";
      case Op::Divu: return "divu";
      case Op::Remu: return "remu";
      case Op::Addi: return "addi";
      case Op::Andi: return "andi";
      case Op::Ori: return "ori";
      case Op::Xori: return "xori";
      case Op::Slli: return "slli";
      case Op::Srli: return "srli";
      case Op::Srai: return "srai";
      case Op::Slti: return "slti";
      case Op::Sltiu: return "sltiu";
      case Op::Li: return "li";
      case Op::Load: return "ld";
      case Op::Store: return "st";
      case Op::AmoSwap: return "amoswap";
      case Op::AmoAdd: return "amoadd";
      case Op::AmoCas: return "amocas";
      case Op::Fence: return "fence";
      case Op::Beq: return "beq";
      case Op::Bne: return "bne";
      case Op::Blt: return "blt";
      case Op::Bge: return "bge";
      case Op::Bltu: return "bltu";
      case Op::Bgeu: return "bgeu";
      case Op::Jal: return "jal";
      case Op::Jalr: return "jalr";
      case Op::CsrRead: return "csrr";
      case Op::Halt: return "halt";
      case Op::Nop: return "nop";
      case Op::Pause: return "pause";
    }
    return "?";
}

std::uint64_t
aluOp(Op op, std::uint64_t a, std::uint64_t b)
{
    using s64 = std::int64_t;
    switch (op) {
      case Op::Add: case Op::Addi: return a + b;
      case Op::Sub: return a - b;
      case Op::And: case Op::Andi: return a & b;
      case Op::Or: case Op::Ori: return a | b;
      case Op::Xor: case Op::Xori: return a ^ b;
      case Op::Sll: case Op::Slli: return a << (b & 63);
      case Op::Srl: case Op::Srli: return a >> (b & 63);
      case Op::Sra: case Op::Srai:
        return static_cast<std::uint64_t>(static_cast<s64>(a)
                                          >> (b & 63));
      case Op::Slt: case Op::Slti:
        return static_cast<s64>(a) < static_cast<s64>(b) ? 1 : 0;
      case Op::Sltu: case Op::Sltiu:
        return a < b ? 1 : 0;
      case Op::Mul: return a * b;
      case Op::Divu: return b == 0 ? ~std::uint64_t{0} : a / b;
      case Op::Remu: return b == 0 ? a : a % b;
      default:
        panic("aluOp on non-ALU opcode ", opName(op));
    }
}

bool
branchTaken(Op op, std::uint64_t a, std::uint64_t b)
{
    using s64 = std::int64_t;
    switch (op) {
      case Op::Beq: return a == b;
      case Op::Bne: return a != b;
      case Op::Blt: return static_cast<s64>(a) < static_cast<s64>(b);
      case Op::Bge: return static_cast<s64>(a) >= static_cast<s64>(b);
      case Op::Bltu: return a < b;
      case Op::Bgeu: return a >= b;
      default:
        panic("branchTaken on non-branch opcode ", opName(op));
    }
}

std::uint64_t
amoApplyOp(Op op, std::uint64_t old_value, std::uint64_t rs2_value,
           std::uint64_t rs3_value)
{
    switch (op) {
      case Op::AmoSwap:
        return rs2_value;
      case Op::AmoAdd:
        return old_value + rs2_value;
      case Op::AmoCas:
        return old_value == rs2_value ? rs3_value : old_value;
      default:
        panic("amoApply on non-AMO opcode ", opName(op));
    }
}

std::uint64_t
amoApply(const Inst &inst, std::uint64_t old_value, std::uint64_t rs2_value,
         std::uint64_t rs3_value)
{
    return amoApplyOp(inst.op, old_value, rs2_value, rs3_value);
}

} // namespace fenceless::isa
