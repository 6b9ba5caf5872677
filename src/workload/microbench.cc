#include "workload/microbench.hh"

#include <sstream>

#include "base/bitfield.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "isa/assembler.hh"
#include "workload/runtime.hh"

namespace fenceless::workload
{

using namespace isa;

namespace
{

/** Format "name: expected X got Y" diagnostics. */
std::string
mismatch(const std::string &what, std::uint64_t expected,
         std::uint64_t got)
{
    std::ostringstream os;
    os << what << ": expected " << expected << " got " << got;
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------
// SpinlockCrit
// ---------------------------------------------------------------------

isa::Program
SpinlockCrit::build(std::uint32_t)
{
    Assembler as;
    const Addr lock = as.paddedWord("lock", 0);
    const Addr counters = as.alloc("counters", params_.counters * 64, 64);
    counters_addr_ = counters;
    for (unsigned c = 0; c < params_.counters; ++c)
        as.init64(counters + c * 64, 0);

    as.li(a0, lock);
    as.li(a1, counters);
    as.li(s0, params_.iters);

    as.label("loop");
    emitSpinLockAcquire(as, a0, t0, t1);
    for (unsigned c = 0; c < params_.counters; ++c) {
        as.ld(t0, a1, static_cast<std::int64_t>(c) * 64);
        as.addi(t0, t0, 1);
        as.st(t0, a1, static_cast<std::int64_t>(c) * 64);
    }
    emitDelay(as, t2, params_.crit_work);
    emitSpinLockRelease(as, a0);
    emitDelay(as, t2, params_.non_crit_work);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "loop");
    as.halt();

    return as.finish();
}

bool
SpinlockCrit::check(const MemReader &read, std::uint32_t num_threads,
                    std::string &error) const
{
    const std::uint64_t expected =
        static_cast<std::uint64_t>(num_threads) * params_.iters;
    const Addr counters = counters_addr_;
    for (unsigned c = 0; c < params_.counters; ++c) {
        const std::uint64_t got = read(counters + c * 64, 8);
        if (got != expected) {
            error = mismatch(name() + " counter " + std::to_string(c),
                             expected, got);
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// TicketLockCrit
// ---------------------------------------------------------------------

isa::Program
TicketLockCrit::build(std::uint32_t)
{
    Assembler as;
    const Addr next = as.paddedWord("next", 0);
    const Addr serving = as.paddedWord("serving", 0);
    const Addr counter = as.paddedWord("counter", 0);
    counter_addr_ = counter;

    as.li(a0, next);
    as.li(a1, serving);
    as.li(a2, counter);
    as.li(s0, params_.iters);

    as.label("loop");
    emitTicketLockAcquire(as, a0, a1, t0, t1);
    as.ld(t0, a2);
    as.addi(t0, t0, 1);
    as.st(t0, a2);
    emitDelay(as, t2, params_.crit_work);
    emitTicketLockRelease(as, a1, t0);
    emitDelay(as, t2, params_.non_crit_work);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "loop");
    as.halt();

    return as.finish();
}

bool
TicketLockCrit::check(const MemReader &read, std::uint32_t num_threads,
                      std::string &error) const
{
    const Addr counter = counter_addr_;
    const std::uint64_t expected =
        static_cast<std::uint64_t>(num_threads) * params_.iters;
    const std::uint64_t got = read(counter, 8);
    if (got != expected) {
        error = mismatch(name() + " counter", expected, got);
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// BarrierPhase
// ---------------------------------------------------------------------

isa::Program
BarrierPhase::build(std::uint32_t num_threads)
{
    Assembler as;
    const Addr count = as.paddedWord("bar_count", 0);
    const Addr sense = as.paddedWord("bar_sense", 0);
    const Addr slots = as.alloc("slots", num_threads * 64ULL, 64);
    const Addr violations = as.paddedWord("violations", 0);
    slots_addr_ = slots;
    violations_addr_ = violations;

    as.li(a0, count);
    as.li(a1, sense);
    as.li(a2, slots);
    as.li(a3, violations);
    as.csrr(s1, Csr::NumCores);
    // s2: local barrier sense (starts 0); s3: my slot; s4: neighbour slot
    as.slli(t0, tp, 6);
    as.add(s3, a2, t0);
    as.addi(t0, tp, 1);
    as.remu(t0, t0, s1);
    as.slli(t0, t0, 6);
    as.add(s4, a2, t0);
    as.li(s0, 0); // phase
    as.li(s5, params_.phases);

    as.label("loop");
    as.addi(t5, s0, 1);
    as.st(t5, s3);
    emitBarrier(as, a0, a1, s2, s1, t0, t1);
    as.ld(t0, s4);
    as.addi(t5, s0, 1);
    as.beq(t0, t5, "phase_ok");
    as.li(t1, 1);
    as.amoadd(t2, t1, a3);
    as.label("phase_ok");
    emitDelay(as, t0, params_.work);
    emitBarrier(as, a0, a1, s2, s1, t0, t1);
    as.addi(s0, s0, 1);
    as.bne(s0, s5, "loop");
    as.halt();

    return as.finish();
}

bool
BarrierPhase::check(const MemReader &read, std::uint32_t num_threads,
                    std::string &error) const
{
    const Addr slots = slots_addr_;
    const Addr violations = violations_addr_;
    if (std::uint64_t v = read(violations, 8)) {
        error = mismatch(name() + " violations", 0, v);
        return false;
    }
    for (std::uint32_t t = 0; t < num_threads; ++t) {
        const std::uint64_t got = read(slots + t * 64ULL, 8);
        if (got != params_.phases) {
            error = mismatch(name() + " slot " + std::to_string(t),
                             params_.phases, got);
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// Dekker
// ---------------------------------------------------------------------

isa::Program
Dekker::build(std::uint32_t)
{
    Assembler as;
    const Addr flags = as.alloc("flags", 2 * 64, 64);
    const Addr turn = as.paddedWord("turn", 0);
    const Addr counter = as.paddedWord("counter", 0);
    counter_addr_ = counter;

    // Threads beyond the first two just halt.
    as.li(t0, 2);
    as.bltu(tp, t0, "work");
    as.halt();

    as.label("work");
    // a0: my flag, a1: other flag, a2: turn, a3: counter, s7: other id
    as.li(t0, flags);
    as.slli(t1, tp, 6);
    as.add(a0, t0, t1);
    as.li(t2, 1);
    as.sub(t1, t2, tp); // other id
    as.mv(s7, t1);
    as.slli(t1, t1, 6);
    as.add(a1, t0, t1);
    as.li(a2, turn);
    as.li(a3, counter);
    as.li(s0, params_.iters);

    as.label("outer");
    as.li(t0, 1);
    as.st(t0, a0); // flag[i] = 1
    as.fence();    // full: order the flag store before reading flag[j]
    as.label("try");
    as.ld(t0, a1);
    as.beq(t0, x0, "cs");
    as.ld(t1, a2);
    as.beq(t1, tp, "try"); // my turn: keep waiting on flag[j]
    as.st(x0, a0);         // back off
    as.label("waitturn");
    as.ld(t1, a2);
    as.beq(t1, tp, "regain");
    as.pause();
    as.jump("waitturn");
    as.label("regain");
    as.li(t0, 1);
    as.st(t0, a0);
    as.fence();
    as.jump("try");

    as.label("cs");
    as.ld(t0, a3);
    as.addi(t0, t0, 1);
    as.st(t0, a3);
    emitDelay(as, t2, params_.crit_work);
    as.st(s7, a2); // turn = other
    as.fenceRelease();
    as.st(x0, a0); // flag[i] = 0
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "outer");
    as.halt();

    return as.finish();
}

bool
Dekker::check(const MemReader &read, std::uint32_t, std::string &error)
    const
{
    const Addr counter = counter_addr_;
    const std::uint64_t expected = 2 * params_.iters;
    const std::uint64_t got = read(counter, 8);
    if (got != expected) {
        error = mismatch(name() + " counter", expected, got);
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// ProdCons
// ---------------------------------------------------------------------

isa::Program
ProdCons::build(std::uint32_t num_threads)
{
    flAssert(isPowerOf2(params_.capacity),
             "prodcons capacity must be a power of two");
    const std::uint32_t pairs = num_threads / 2;
    flAssert(pairs >= 1, "prodcons needs at least two threads");

    Assembler as;
    const std::uint64_t buf_bytes = params_.capacity * 8;
    const Addr bufs = as.alloc("bufs", pairs * buf_bytes, 64);
    const Addr heads = as.alloc("heads", pairs * 64ULL, 64);
    const Addr tails = as.alloc("tails", pairs * 64ULL, 64);
    const Addr sums = as.alloc("sums", pairs * 64ULL, 64);
    sums_addr_ = sums;

    // Unpaired odd thread (and any thread beyond the pairs) halts.
    as.li(t0, pairs * 2);
    as.bltu(tp, t0, "paired");
    as.halt();
    as.label("paired");

    // Pair-local addresses: a0 buf, a1 head, a2 tail, a3 sum slot.
    as.srli(s6, tp, 1); // pair index
    as.li(t0, buf_bytes);
    as.mul(t0, s6, t0);
    as.li(a0, bufs);
    as.add(a0, a0, t0);
    as.slli(t0, s6, 6);
    as.li(a1, heads);
    as.add(a1, a1, t0);
    as.li(a2, tails);
    as.add(a2, a2, t0);
    as.li(a3, sums);
    as.add(a3, a3, t0);
    as.li(s4, params_.capacity);

    as.andi(t0, tp, 1);
    as.bne(t0, x0, "consumer");

    // --- producer: send 1..items ---
    as.li(s0, 1);                 // next value
    as.li(s5, params_.items + 1); // stop value
    as.li(s1, 0);                 // local tail
    as.label("ploop");
    as.label("pwait");
    as.ld(t0, a1); // head
    as.sub(t2, s1, t0);
    as.bltu(t2, s4, "pok");
    as.pause();
    as.jump("pwait");
    as.label("pok");
    as.andi(t3, s1, static_cast<std::int64_t>(params_.capacity - 1));
    as.slli(t3, t3, 3);
    as.add(t3, a0, t3);
    as.st(s0, t3);
    as.fenceRelease(); // publish the slot before advancing the tail
    as.addi(s1, s1, 1);
    as.st(s1, a2);
    as.addi(s0, s0, 1);
    as.bne(s0, s5, "ploop");
    as.halt();

    // --- consumer: receive items, accumulate ---
    as.label("consumer");
    as.li(s1, 0); // local head
    as.li(s2, 0); // sum
    as.li(s5, params_.items);
    as.label("cloop");
    as.label("cwait");
    as.ld(t1, a2); // tail
    as.bltu(s1, t1, "cok");
    as.pause();
    as.jump("cwait");
    as.label("cok");
    as.fenceAcquire(); // consume the tail before reading the slot
    as.andi(t3, s1, static_cast<std::int64_t>(params_.capacity - 1));
    as.slli(t3, t3, 3);
    as.add(t3, a0, t3);
    as.ld(t0, t3);
    as.add(s2, s2, t0);
    as.addi(s1, s1, 1);
    as.st(s1, a1);
    as.bne(s1, s5, "cloop");
    as.st(s2, a3);
    as.halt();

    return as.finish();
}

bool
ProdCons::check(const MemReader &read, std::uint32_t num_threads,
                std::string &error) const
{
    const std::uint32_t pairs = num_threads / 2;
    const Addr sums = sums_addr_;
    const std::uint64_t expected =
        params_.items * (params_.items + 1) / 2;
    for (std::uint32_t p = 0; p < pairs; ++p) {
        const std::uint64_t got = read(sums + p * 64ULL, 8);
        if (got != expected) {
            error = mismatch(name() + " pair " + std::to_string(p)
                             + " sum", expected, got);
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// MpmcQueue
// ---------------------------------------------------------------------

isa::Program
MpmcQueue::build(std::uint32_t num_threads)
{
    flAssert(num_threads >= 2, "mpmc-queue needs at least two threads");
    const std::uint32_t producers = num_threads / 2;
    const std::uint64_t total = producers * params_.items_per_producer;

    Assembler as;
    const Addr tail = as.paddedWord("tail", 0);
    const Addr head = as.paddedWord("head", 0);
    const Addr data = as.alloc("data", total * 8, 64);
    const Addr ready = as.alloc("ready", total * 8, 64);
    const Addr sums = as.alloc("sums", num_threads * 64ULL, 64);
    const Addr violations = as.paddedWord("violations", 0);
    sums_addr_ = sums;
    violations_addr_ = violations;

    as.li(a0, tail);
    as.li(a1, data);
    as.li(a2, ready);
    as.li(a3, head);
    as.li(a4, sums);
    as.li(a5, violations);
    as.li(s4, total);

    as.li(t0, producers);
    as.bgeu(tp, t0, "consumer");

    // --- producer ---
    as.li(s0, params_.items_per_producer);
    as.label("ploop");
    as.li(t1, 1);
    as.amoadd(t0, t1, a0); // idx = tail++
    as.slli(t2, t0, 3);
    as.add(t2, a1, t2);
    as.addi(t3, t0, 1); // value = idx + 1
    as.st(t3, t2);
    as.fenceRelease(); // publish the payload before the ready flag
    as.slli(t2, t0, 3);
    as.add(t2, a2, t2);
    as.li(t3, 1);
    as.st(t3, t2);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "ploop");
    as.halt();

    // --- consumer ---
    as.label("consumer");
    as.li(s2, 0); // sum
    as.label("cloop");
    as.li(t1, 1);
    as.amoadd(t0, t1, a3); // idx = head++
    as.bgeu(t0, s4, "cdone");
    as.slli(t2, t0, 3);
    as.add(t2, a2, t2);
    as.label("cspin");
    as.ld(t3, t2);
    as.bne(t3, x0, "cgot");
    as.pause();
    as.jump("cspin");
    as.label("cgot");
    as.fenceAcquire();
    as.slli(t2, t0, 3);
    as.add(t2, a1, t2);
    as.ld(t3, t2);
    as.addi(t5, t0, 1);
    as.beq(t3, t5, "val_ok");
    as.li(t6, 1);
    as.amoadd(t7, t6, a5);
    as.label("val_ok");
    as.add(s2, s2, t3);
    as.jump("cloop");
    as.label("cdone");
    as.slli(t0, tp, 6);
    as.add(t0, a4, t0);
    as.st(s2, t0);
    as.halt();

    return as.finish();
}

bool
MpmcQueue::check(const MemReader &read, std::uint32_t num_threads,
                 std::string &error) const
{
    const std::uint32_t producers = num_threads / 2;
    const std::uint64_t total =
        producers * params_.items_per_producer;
    const Addr sums = sums_addr_;
    const Addr violations = violations_addr_;

    if (std::uint64_t v = read(violations, 8)) {
        error = mismatch(name() + " violations", 0, v);
        return false;
    }
    std::uint64_t sum = 0;
    for (std::uint32_t t = producers; t < num_threads; ++t)
        sum += read(sums + t * 64ULL, 8);
    const std::uint64_t expected = total * (total + 1) / 2;
    if (sum != expected) {
        error = mismatch(name() + " total sum", expected, sum);
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// SeqlockReaders
// ---------------------------------------------------------------------

isa::Program
SeqlockReaders::build(std::uint32_t)
{
    Assembler as;
    const Addr seq = as.paddedWord("seq", 0);
    const Addr pair = as.alloc("pair", 16, 64); // a at +0, b at +8
    const Addr violations = as.paddedWord("violations", 0);
    violations_addr_ = violations;

    as.li(a0, seq);
    as.li(a1, pair);
    as.li(a2, violations);

    as.bne(tp, x0, "reader");

    // --- writer (thread 0) ---
    as.li(s0, params_.writes);
    as.li(s1, 0); // k
    as.label("wl");
    as.addi(s1, s1, 1);
    as.slli(t0, s1, 1);  // 2k
    as.addi(t1, t0, -1); // 2k-1 (odd: write in progress)
    as.st(t1, a0);
    as.fenceRelease(); // seq-odd before the data writes
    as.st(s1, a1, 0);
    as.st(s1, a1, 8);
    as.fenceRelease(); // data before seq-even
    as.st(t0, a0);
    emitDelay(as, t2, 4);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "wl");
    as.halt();

    // --- readers ---
    as.label("reader");
    as.li(s0, params_.reads);
    as.label("rl");
    as.ld(t0, a0);
    as.andi(t1, t0, 1);
    as.bne(t1, x0, "next"); // writer active; count as an attempt
    as.fenceAcquire();
    as.ld(t2, a1, 0);
    as.ld(t3, a1, 8);
    as.ld(t4, a0);
    as.bne(t4, t0, "next"); // torn window; retry
    as.beq(t2, t3, "next");
    as.li(t5, 1);
    as.amoadd(t6, t5, a2); // inconsistent snapshot observed
    as.label("next");
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "rl");
    as.halt();

    return as.finish();
}

bool
SeqlockReaders::check(const MemReader &read, std::uint32_t,
                      std::string &error) const
{
    const Addr violations = violations_addr_;
    if (std::uint64_t v = read(violations, 8)) {
        error = mismatch(name() + " violations", 0, v);
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// LocalLockStream
// ---------------------------------------------------------------------

isa::Program
LocalLockStream::build(std::uint32_t num_threads)
{
    Assembler as;
    const std::uint64_t region =
        params_.iters * params_.stream_stores * 64ULL;
    const Addr locks = as.alloc("locks", num_threads * 64ULL, 64);
    const Addr counters = as.alloc("counters", num_threads * 64ULL, 64);
    const Addr stream = as.alloc("stream", num_threads * region, 64);
    counters_addr_ = counters;
    stream_addr_ = stream;

    // Per-thread addresses.
    as.slli(t0, tp, 6);
    as.li(a0, locks);
    as.add(a0, a0, t0);
    as.li(a1, counters);
    as.add(a1, a1, t0);
    as.li(t0, region);
    as.mul(t0, tp, t0);
    as.li(a2, stream);
    as.add(a2, a2, t0);
    as.li(s0, params_.iters);

    as.label("loop");
    // Streaming stores to cold blocks: the value is the remaining
    // iteration count, so the checker can verify every block landed.
    for (unsigned k = 0; k < params_.stream_stores; ++k)
        as.st(s0, a2, static_cast<std::int64_t>(k) * 64);
    as.li(t0, params_.stream_stores * 64);
    as.add(a2, a2, t0);
    // Private critical section: uncontended, but the acquire atomic is
    // an ordering point that must drain the streaming stores.
    emitSpinLockAcquire(as, a0, t0, t1);
    as.ld(t0, a1);
    as.addi(t0, t0, 1);
    as.st(t0, a1);
    emitSpinLockRelease(as, a0);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "loop");
    as.halt();

    return as.finish();
}

bool
LocalLockStream::check(const MemReader &read, std::uint32_t num_threads,
                       std::string &error) const
{
    const std::uint64_t region =
        params_.iters * params_.stream_stores * 64ULL;
    for (std::uint32_t t = 0; t < num_threads; ++t) {
        const std::uint64_t got = read(counters_addr_ + t * 64ULL, 8);
        if (got != params_.iters) {
            error = mismatch(name() + " counter " + std::to_string(t),
                             params_.iters, got);
            return false;
        }
        for (std::uint64_t i = 0; i < params_.iters; ++i) {
            for (unsigned k = 0; k < params_.stream_stores; ++k) {
                const Addr a = stream_addr_ + t * region
                               + (i * params_.stream_stores + k) * 64;
                const std::uint64_t v = read(a, 8);
                if (v != params_.iters - i) {
                    error = mismatch(
                        name() + " stream[" + std::to_string(t) + "]["
                        + std::to_string(i) + "]", params_.iters - i,
                        v);
                    return false;
                }
            }
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// SeededDeadlock
// ---------------------------------------------------------------------

SeededDeadlock::SeededDeadlock()
{
    Assembler as;
    const Addr x = as.paddedWord("X", 0);
    const Addr y = as.paddedWord("Y", 0);
    const Addr barrier = as.paddedWord("barrier", 0);
    const Addr done = as.alloc("done", 2 * 64, 64);
    const Addr result = as.alloc("result", 2 * 64, 64);
    as.init64(done, 0);
    as.init64(done + 64, 0);
    as.init64(result, 0);
    as.init64(result + 64, 0);
    x_addr_ = x;
    y_addr_ = y;
    done_addr_ = done;
    result_addr_ = result;

    // Only threads 0 and 1 participate; the rest halt immediately.
    as.li(t0, 2);
    as.bltu(tp, t0, "work");
    as.halt();

    as.label("work");
    as.li(a0, x);
    as.li(a1, y);
    as.li(a2, barrier);

    // Phase 1: take the other thread's block into M state.  X and Y
    // are uncached here, so these GetM transactions fill from DRAM
    // and never enter the forward phase (the fault injection only
    // drops Fwd*Acks, so this phase always completes).
    as.beq(tp, x0, "own_y");
    as.li(t0, 0x1111);
    as.st(t0, a0); // thread 1 owns X
    as.jump("joined");
    as.label("own_y");
    as.li(t0, 0x2222);
    as.st(t0, a1); // thread 0 owns Y
    as.label("joined");
    as.fence(); // the ownership store is globally visible

    // Barrier: both stores are done before either cross-load starts.
    as.li(t0, 1);
    as.amoadd(t1, t0, a2);
    as.label("spin");
    as.ld(t1, a2);
    as.li(t2, 2);
    as.bltu(t1, t2, "spin");

    // Phase 2: load the block the *other* thread owns.  The directory
    // must forward each request to the owner; with the Fwd*Acks for X
    // and Y dropped, both transactions wedge and neither load returns.
    as.beq(tp, x0, "load_x");
    as.ld(s1, a1); // thread 1 reads Y
    as.jump("finish");
    as.label("load_x");
    as.ld(s1, a0); // thread 0 reads X
    as.label("finish");

    as.li(t0, result);
    as.slli(t1, tp, 6);
    as.add(t2, t0, t1);
    as.st(s1, t2); // result[tp] = cross-loaded value
    as.li(t0, done);
    as.add(t2, t0, t1);
    as.li(t1, 1);
    as.st(t1, t2); // done[tp] = 1
    as.halt();

    prog_ = as.finish();
}

isa::Program
SeededDeadlock::build(std::uint32_t)
{
    return prog_;
}

bool
SeededDeadlock::check(const MemReader &read, std::uint32_t,
                      std::string &error) const
{
    for (unsigned t = 0; t < 2; ++t) {
        if (read(done_addr_ + t * 64, 8) != 1) {
            error = mismatch(name() + " done[" + std::to_string(t) +
                                 "]",
                             1, read(done_addr_ + t * 64, 8));
            return false;
        }
    }
    // Thread 0 cross-loads X (stored by thread 1), and vice versa.
    if (read(result_addr_, 8) != 0x1111) {
        error = mismatch(name() + " result[0]", 0x1111,
                         read(result_addr_, 8));
        return false;
    }
    if (read(result_addr_ + 64, 8) != 0x2222) {
        error = mismatch(name() + " result[1]", 0x2222,
                         read(result_addr_ + 64, 8));
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// AtomicHistogram
// ---------------------------------------------------------------------

isa::Program
AtomicHistogram::build(std::uint32_t num_threads)
{
    flAssert(isPowerOf2(params_.bins), "bins must be a power of two");
    Assembler as;
    const std::uint64_t per = params_.items_per_thread;
    const Addr inputs = as.alloc("inputs", num_threads * per * 8, 64);
    const Addr bins = as.alloc("bins", params_.bins * 8, 64);
    bins_addr_ = bins;

    Random rng(params_.seed);
    expected_.assign(params_.bins, 0);
    for (std::uint64_t i = 0; i < num_threads * per; ++i) {
        const std::uint64_t v = rng.next();
        as.init64(inputs + i * 8, v);
        ++expected_[v & (params_.bins - 1)];
    }

    as.li(a1, bins);
    as.li(t0, per * 8);
    as.mul(t0, tp, t0);
    as.li(a0, inputs);
    as.add(a0, a0, t0);
    as.li(s0, per);

    as.label("hl");
    as.ld(t0, a0);
    as.andi(t1, t0, static_cast<std::int64_t>(params_.bins - 1));
    as.slli(t1, t1, 3);
    as.add(t1, a1, t1);
    as.li(t2, 1);
    as.amoadd(t3, t2, t1);
    as.addi(a0, a0, 8);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "hl");
    as.halt();

    return as.finish();
}

bool
AtomicHistogram::check(const MemReader &read, std::uint32_t,
                       std::string &error) const
{
    const Addr bins = bins_addr_;
    flAssert(expected_.size() == params_.bins,
             "check before build for atomic-histogram");
    for (unsigned b = 0; b < params_.bins; ++b) {
        const std::uint64_t got = read(bins + b * 8, 8);
        if (got != expected_[b]) {
            error = mismatch(name() + " bin " + std::to_string(b),
                             expected_[b], got);
            return false;
        }
    }
    return true;
}

} // namespace fenceless::workload
