/**
 * @file
 * Synchronization microbenchmarks.
 *
 * Each stresses one class of ordering point: lock handoff (spin and
 * ticket locks), full fences (Dekker), barriers, release/acquire
 * publication (SPSC queues, seqlock), and atomics (MPMC queue,
 * histogram).  Guest-side violation counters turn any consistency or
 * speculation bug into a failed postcondition.
 */

#pragma once

#include "workload/workload.hh"

namespace fenceless::workload
{

/** Threads increment a shared counter inside a test-and-set spin lock. */
class SpinlockCrit : public Workload
{
  public:
    struct Params
    {
        std::uint64_t iters = 100;       //!< critical sections per thread
        std::uint64_t crit_work = 4;     //!< delay iterations inside CS
        std::uint64_t non_crit_work = 16;//!< delay iterations outside CS
        unsigned counters = 1;           //!< shared counters bumped in CS
    };

    SpinlockCrit() = default;
    explicit SpinlockCrit(const Params &p) : params_(p) {}

    std::string name() const override { return "spinlock-crit"; }
    isa::Program build(std::uint32_t num_threads) override;
    bool check(const MemReader &read, std::uint32_t num_threads,
               std::string &error) const override;

  private:
    Params params_;
    Addr counters_addr_ = 0;
};

/** Same contention pattern under a FIFO ticket lock. */
class TicketLockCrit : public Workload
{
  public:
    struct Params
    {
        std::uint64_t iters = 100;
        std::uint64_t crit_work = 4;
        std::uint64_t non_crit_work = 16;
    };

    TicketLockCrit() = default;
    explicit TicketLockCrit(const Params &p) : params_(p) {}

    std::string name() const override { return "ticketlock-crit"; }
    isa::Program build(std::uint32_t num_threads) override;
    bool check(const MemReader &read, std::uint32_t num_threads,
               std::string &error) const override;

  private:
    Params params_;
    Addr counter_addr_ = 0;
};

/**
 * Barrier-separated phases.  In each phase every thread publishes its
 * phase number, crosses the barrier, and verifies its neighbour's slot
 * -- catching both barrier bugs and speculation-atomicity bugs.
 */
class BarrierPhase : public Workload
{
  public:
    struct Params
    {
        std::uint64_t phases = 32;
        std::uint64_t work = 16; //!< delay iterations per phase
    };

    BarrierPhase() = default;
    explicit BarrierPhase(const Params &p) : params_(p) {}

    std::string name() const override { return "barrier-phase"; }
    isa::Program build(std::uint32_t num_threads) override;
    bool check(const MemReader &read, std::uint32_t num_threads,
               std::string &error) const override;
    std::uint32_t minThreads() const override { return 2; }

  private:
    Params params_;
    Addr slots_addr_ = 0;
    Addr violations_addr_ = 0;
};

/**
 * Dekker's mutual-exclusion algorithm between two threads, relying on
 * full fences (store flag -> fence -> load other flag).  The canonical
 * fence-cost workload: every entry pays a full fence under TSO/RMO.
 */
class Dekker : public Workload
{
  public:
    struct Params
    {
        std::uint64_t iters = 200;
        std::uint64_t crit_work = 2;
    };

    Dekker() = default;
    explicit Dekker(const Params &p) : params_(p) {}

    std::string name() const override { return "dekker"; }
    isa::Program build(std::uint32_t num_threads) override;
    bool check(const MemReader &read, std::uint32_t num_threads,
               std::string &error) const override;
    std::uint32_t minThreads() const override { return 2; }

  private:
    Params params_;
    Addr counter_addr_ = 0;
};

/**
 * Single-producer/single-consumer ring buffers with release/acquire
 * publication; threads are paired (even producer, odd consumer).
 */
class ProdCons : public Workload
{
  public:
    struct Params
    {
        std::uint64_t items = 256;   //!< items per pair
        std::uint64_t capacity = 16; //!< ring capacity (power of two)
    };

    ProdCons() = default;
    explicit ProdCons(const Params &p) : params_(p) {}

    std::string name() const override { return "prodcons"; }
    isa::Program build(std::uint32_t num_threads) override;
    bool check(const MemReader &read, std::uint32_t num_threads,
               std::string &error) const override;
    std::uint32_t minThreads() const override { return 2; }

  private:
    Params params_;
    Addr sums_addr_ = 0;
};

/**
 * A ticket-based multi-producer/multi-consumer queue: producers
 * fetch-and-add the tail, consumers the head; slots are published with
 * a release store to a ready flag.
 */
class MpmcQueue : public Workload
{
  public:
    struct Params
    {
        std::uint64_t items_per_producer = 128;
    };

    MpmcQueue() = default;
    explicit MpmcQueue(const Params &p) : params_(p) {}

    std::string name() const override { return "mpmc-queue"; }
    isa::Program build(std::uint32_t num_threads) override;
    bool check(const MemReader &read, std::uint32_t num_threads,
               std::string &error) const override;
    std::uint32_t minThreads() const override { return 2; }

  private:
    Params params_;
    Addr sums_addr_ = 0;
    Addr violations_addr_ = 0;
};

/**
 * A seqlock: thread 0 writes (a, b) pairs under an odd/even sequence
 * protocol; the others read snapshots and count torn reads (must be 0).
 */
class SeqlockReaders : public Workload
{
  public:
    struct Params
    {
        std::uint64_t writes = 128;
        std::uint64_t reads = 256; //!< per reader
    };

    SeqlockReaders() = default;
    explicit SeqlockReaders(const Params &p) : params_(p) {}

    std::string name() const override { return "seqlock-readers"; }
    isa::Program build(std::uint32_t num_threads) override;
    bool check(const MemReader &read, std::uint32_t num_threads,
               std::string &error) const override;
    std::uint32_t minThreads() const override { return 2; }

  private:
    Params params_;
    Addr violations_addr_ = 0;
};

/**
 * Uncontended synchronization: each thread streams stores through a
 * cold region (keeping its store buffer busy), then takes its *own*
 * lock around a private counter update.  Pure ordering overhead: the
 * acquire's atomic must drain the streaming stores under SC/TSO, and
 * fence speculation overlaps them -- the mostly-uncontended-lock
 * pattern that dominates real multithreaded code.
 */
class LocalLockStream : public Workload
{
  public:
    struct Params
    {
        std::uint64_t iters = 64;   //!< lock sections per thread
        unsigned stream_stores = 4; //!< cold-block stores per iter
    };

    LocalLockStream() = default;
    explicit LocalLockStream(const Params &p) : params_(p) {}

    std::string name() const override { return "local-locks"; }
    isa::Program build(std::uint32_t num_threads) override;
    bool check(const MemReader &read, std::uint32_t num_threads,
               std::string &error) const override;

  private:
    Params params_;
    Addr counters_addr_ = 0;
    Addr stream_addr_ = 0;
};

/**
 * Deadlock seed for the hang watchdog and stall-dossier tests (not in
 * the standard suite).  Thread 0 takes block Y into M state, thread 1
 * block X; after a barrier each loads the other's block, so the
 * directory must forward both requests to the current owners.  The
 * workload is correct and terminates on a healthy machine -- `check`
 * verifies the cross-loaded values -- but under the
 * Network::Params::drop_fwd_acks_for fault injection (drop the
 * Fwd*Ack for blocks X and Y) both directory transactions wedge in
 * their forward phase and the run becomes a true resource deadlock:
 * core_0 -> mshr[X] -> txn[X] -> core_1 -> mshr[Y] -> txn[Y] ->
 * core_0.
 */
class SeededDeadlock : public Workload
{
  public:
    /** Lays the program out; threads past the first two halt at once. */
    SeededDeadlock();

    std::string name() const override { return "seeded-deadlock"; }
    /** The program laid out at construction (any thread count). */
    isa::Program build(std::uint32_t num_threads) override;
    bool check(const MemReader &read, std::uint32_t num_threads,
               std::string &error) const override;
    std::uint32_t minThreads() const override { return 2; }

    /** Block addresses for drop_fwd_acks_for. */
    Addr blockX() const { return x_addr_; }
    Addr blockY() const { return y_addr_; }

  private:
    Addr x_addr_ = 0;
    Addr y_addr_ = 0;
    Addr done_addr_ = 0;
    Addr result_addr_ = 0;
    isa::Program prog_;
};

/**
 * Atomic histogram: threads bin host-generated random values with
 * fetch-and-add on shared (contended) bucket counters.
 */
class AtomicHistogram : public Workload
{
  public:
    struct Params
    {
        std::uint64_t items_per_thread = 256;
        unsigned bins = 16;      //!< power of two
        std::uint64_t seed = 42; //!< host-side data generation seed
    };

    AtomicHistogram() = default;
    explicit AtomicHistogram(const Params &p) : params_(p) {}

    std::string name() const override { return "atomic-histogram"; }
    isa::Program build(std::uint32_t num_threads) override;
    bool check(const MemReader &read, std::uint32_t num_threads,
               std::string &error) const override;

  private:
    Params params_;
    Addr bins_addr_ = 0;
    std::vector<std::uint64_t> expected_;
};

} // namespace fenceless::workload
