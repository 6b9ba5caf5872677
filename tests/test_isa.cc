/**
 * @file
 * Unit tests for the guest ISA: ALU/branch/AMO semantics, the
 * assembler (labels, data layout), and the functional interpreter /
 * reference executor.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "isa/interp.hh"

using namespace fenceless;
using namespace fenceless::isa;

TEST(Alu, Arithmetic)
{
    EXPECT_EQ(aluOp(Op::Add, 2, 3), 5u);
    EXPECT_EQ(aluOp(Op::Sub, 2, 3), static_cast<std::uint64_t>(-1));
    EXPECT_EQ(aluOp(Op::Mul, 7, 6), 42u);
    EXPECT_EQ(aluOp(Op::Divu, 42, 6), 7u);
    EXPECT_EQ(aluOp(Op::Divu, 1, 0), ~std::uint64_t{0});
    EXPECT_EQ(aluOp(Op::Remu, 43, 6), 1u);
    EXPECT_EQ(aluOp(Op::Remu, 43, 0), 43u);
}

TEST(Alu, Logic)
{
    EXPECT_EQ(aluOp(Op::And, 0xf0, 0x3c), 0x30u);
    EXPECT_EQ(aluOp(Op::Or, 0xf0, 0x0f), 0xffu);
    EXPECT_EQ(aluOp(Op::Xor, 0xff, 0x0f), 0xf0u);
}

TEST(Alu, Shifts)
{
    EXPECT_EQ(aluOp(Op::Sll, 1, 8), 256u);
    EXPECT_EQ(aluOp(Op::Srl, 256, 8), 1u);
    EXPECT_EQ(aluOp(Op::Sra, static_cast<std::uint64_t>(-256), 8),
              static_cast<std::uint64_t>(-1));
    // shift amounts are mod 64
    EXPECT_EQ(aluOp(Op::Sll, 1, 65), 2u);
}

TEST(Alu, Compare)
{
    EXPECT_EQ(aluOp(Op::Slt, static_cast<std::uint64_t>(-1), 0), 1u);
    EXPECT_EQ(aluOp(Op::Sltu, static_cast<std::uint64_t>(-1), 0), 0u);
    EXPECT_EQ(aluOp(Op::Slt, 3, 3), 0u);
}

TEST(Branch, Conditions)
{
    EXPECT_TRUE(branchTaken(Op::Beq, 5, 5));
    EXPECT_FALSE(branchTaken(Op::Beq, 5, 6));
    EXPECT_TRUE(branchTaken(Op::Bne, 5, 6));
    EXPECT_TRUE(branchTaken(Op::Blt, static_cast<std::uint64_t>(-1), 0));
    EXPECT_FALSE(branchTaken(Op::Bltu, static_cast<std::uint64_t>(-1),
                             0));
    EXPECT_TRUE(branchTaken(Op::Bge, 0, 0));
    EXPECT_TRUE(branchTaken(Op::Bgeu, static_cast<std::uint64_t>(-1),
                            1));
}

TEST(Amo, Semantics)
{
    Inst swap;
    swap.op = Op::AmoSwap;
    EXPECT_EQ(amoApply(swap, 10, 99, 0), 99u);

    Inst add;
    add.op = Op::AmoAdd;
    EXPECT_EQ(amoApply(add, 10, 5, 0), 15u);

    Inst cas;
    cas.op = Op::AmoCas;
    EXPECT_EQ(amoApply(cas, 10, 10, 77), 77u); // expected matches
    EXPECT_EQ(amoApply(cas, 10, 11, 77), 10u); // expected differs
}

TEST(Assembler, DataLayout)
{
    Assembler as;
    const Addr w = as.word("w", 42);
    const Addr arr = as.array("arr", 4, 7);
    const Addr padded = as.paddedWord("p", 9);
    as.halt();
    Program prog = as.finish();

    EXPECT_EQ(prog.symbol("w"), w);
    EXPECT_EQ(prog.symbol("arr"), arr);
    EXPECT_EQ(padded % 64, 0u);
    EXPECT_GE(w, 0x1000u); // low page unused

    FlatMemory mem;
    loadImage(prog, mem);
    EXPECT_EQ(mem.read64(w), 42u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(mem.read64(arr + i * 8), 7u);
    EXPECT_EQ(mem.read64(padded), 9u);
}

TEST(Assembler, ForwardAndBackwardLabels)
{
    Assembler as;
    as.li(t0, 3);
    as.label("loop");
    as.addi(t0, t0, -1);
    as.bne(t0, x0, "loop");   // backward
    as.jump("end");           // forward
    as.li(t1, 99);            // skipped
    as.label("end");
    as.halt();
    Program prog = as.finish();

    ReferenceExecutor exec(prog, 1);
    EXPECT_TRUE(exec.run());
    EXPECT_EQ(exec.thread(0).reg(t0), 0u);
    EXPECT_EQ(exec.thread(0).reg(t1), 0u);
}

TEST(Interp, LoadsAndStores)
{
    Assembler as;
    const Addr v = as.word("v", 0x1122334455667788ULL);
    const Addr w = as.word("out", 0);
    as.li(a0, v);
    as.ld(t0, a0);
    as.ld(t1, a0, 0, 4);
    as.ld(t2, a0, 0, 1);
    as.li(a1, w);
    as.st(t0, a1);
    as.halt();
    Program prog = as.finish();

    ReferenceExecutor exec(prog, 1);
    EXPECT_TRUE(exec.run());
    EXPECT_EQ(exec.thread(0).reg(t0), 0x1122334455667788ULL);
    EXPECT_EQ(exec.thread(0).reg(t1), 0x55667788ULL);
    EXPECT_EQ(exec.thread(0).reg(t2), 0x88ULL);
    EXPECT_EQ(exec.memory().read64(w), 0x1122334455667788ULL);
}

TEST(Interp, CsrAndCall)
{
    Assembler as;
    as.csrr(t0, Csr::Tid);
    as.csrr(t1, Csr::NumCores);
    as.call("fn");
    as.halt();
    as.label("fn");
    as.li(t2, 5);
    as.ret();
    Program prog = as.finish();

    ReferenceExecutor exec(prog, 3);
    EXPECT_TRUE(exec.run());
    for (std::uint32_t t = 0; t < 3; ++t) {
        EXPECT_EQ(exec.thread(t).reg(t0), t);
        EXPECT_EQ(exec.thread(t).reg(t1), 3u);
        EXPECT_EQ(exec.thread(t).reg(t2), 5u);
    }
}

TEST(Interp, TpPreloadedWithTid)
{
    Assembler as;
    const Addr slots = as.array("slots", 4, 0);
    as.li(t0, slots);
    as.slli(t1, tp, 3);
    as.add(t0, t0, t1);
    as.addi(t2, tp, 100);
    as.st(t2, t0);
    as.halt();
    Program prog = as.finish();

    ReferenceExecutor exec(prog, 4);
    EXPECT_TRUE(exec.run());
    for (std::uint32_t t = 0; t < 4; ++t)
        EXPECT_EQ(exec.memory().read64(slots + t * 8), 100u + t);
}

TEST(Interp, AmoAtomicInReference)
{
    Assembler as;
    const Addr counter = as.word("c", 0);
    as.li(a0, counter);
    as.li(s0, 1000);
    as.label("loop");
    as.li(t1, 1);
    as.amoadd(t0, t1, a0);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "loop");
    as.halt();
    Program prog = as.finish();

    ReferenceExecutor exec(prog, 4, 3);
    exec.randomize(99);
    EXPECT_TRUE(exec.run());
    EXPECT_EQ(exec.memory().read64(counter), 4000u);
}

TEST(Interp, X0AlwaysZero)
{
    Assembler as;
    as.li(x0, 42);
    as.addi(t0, x0, 1);
    as.halt();
    Program prog = as.finish();

    ReferenceExecutor exec(prog, 1);
    EXPECT_TRUE(exec.run());
    EXPECT_EQ(exec.thread(0).reg(x0), 0u);
    EXPECT_EQ(exec.thread(0).reg(t0), 1u);
}

TEST(Interp, StepBudgetReportsNonTermination)
{
    Assembler as;
    as.label("forever");
    as.jump("forever");
    Program prog = as.finish();

    ReferenceExecutor exec(prog, 1);
    EXPECT_FALSE(exec.run(1000));
}
