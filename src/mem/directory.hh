/**
 * @file
 * The shared, inclusive L2 cache with an integrated MESI directory.
 *
 * Blocking per block: one transaction at a time.  Requests to a busy
 * block queue in its active transaction and are served in arrival
 * order, each taking over the transaction as the previous one
 * completes.  The directory collects invalidation acks and forwards
 * owner data itself, so L1s never exchange messages directly.
 *
 * The L2 is inclusive: every block cached in any L1 has an L2 entry
 * carrying the directory state (owner, sharers).  Evicting such an
 * entry requires a recall transaction that first invalidates all L1
 * copies.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "base/flat_memory.hh"
#include "mem/cache_array.hh"
#include "mem/msg.hh"
#include "mem/network.hh"
#include "sim/sim_object.hh"

namespace fenceless::mem
{

/** Maximum cores a directory entry can track (sharer bit vector). */
inline constexpr unsigned max_cores = 64;

struct L2Block : CacheBlockBase
{
    bool dirty;            //!< data differs from DRAM
    CoreId owner;          //!< L1 holding E/M (or MStale)
    std::uint64_t sharers; //!< bit per core holding S

    /** A block installed for a DRAM read: clean, cached by no L1. */
    static constexpr L2Block
    fresh(Addr block_addr)
    {
        return {{block_addr, 0}, false, invalid_core, 0};
    }

    bool hasOwner() const { return owner != invalid_core; }
    bool hasSharers() const { return sharers != 0; }

    bool
    isSharer(CoreId c) const
    {
        return (sharers >> c) & 1;
    }

    void addSharer(CoreId c) { sharers |= std::uint64_t{1} << c; }
    void removeSharer(CoreId c) { sharers &= ~(std::uint64_t{1} << c); }
};
static_assert(sizeof(L2Block) <= 32, "an L2 set scan reads whole blocks");

class Directory : public sim::SimObject, public MsgReceiver
{
  public:
    struct Params
    {
        std::uint64_t size = 4 * 1024 * 1024;
        unsigned assoc = 16;
        unsigned block_size = 64;
        Cycles latency = 6;       //!< tag/dir access before processing
        Cycles dram_latency = 80; //!< DRAM read latency
        Cycles dram_cycle = 4;    //!< min cycles between DRAM accesses
    };

    /**
     * Bank @p bank of the address-interleaved directory @p map, the
     * map the L1s route with: it serves only the blocks whose low
     * block-index bits equal @p bank, at network node
     * `map.first_node + bank`, for the `map.first_node` cores below
     * it.  `params.size` is this bank's slice of the L2, not the
     * total; each bank owns its own DRAM channel (dram_cycle spacing
     * is per bank).  A one-bank map is the monolithic directory.
     */
    Directory(sim::SimContext &ctx, const std::string &name,
              const Params &params, const DirectoryMap &map,
              std::uint32_t bank, Network &network, FlatMemory &backing);

    void receiveMsg(const Msg &msg) override;

    // --- debug / verification ------------------------------------------

    const L2Block *findBlock(Addr addr) const { return array_.find(addr); }

    /** @return true if @p blk, a block of this bank, holds @p data. */
    bool
    holdsData(const L2Block &blk, const std::uint8_t *data) const
    {
        return array_.sameData(blk, data);
    }

    /** Functional read: L2 copy if present, else DRAM. */
    std::uint64_t debugRead(Addr addr, unsigned size) const;

    template <typename Fn>
    void
    forEachBlock(Fn fn) const
    {
        array_.forEach(fn);
    }

    /**
     * @return true when no transaction is active or queued (a request
     * only ever queues behind an active transaction).
     */
    bool quiesced() const { return active_.empty(); }

    // --- stall-dossier inspection ---------------------------------------

    /** What an active transaction is waiting for. */
    enum class Phase : std::uint8_t
    {
        Start,    //!< scheduled, not yet processed
        Dram,     //!< waiting for DRAM fill
        Fwd,      //!< waiting for the owner's Fwd*Ack
        InvAcks,  //!< waiting for sharer InvAcks
        Blocked,  //!< waiting for a recall of an L2 victim
        WayWait,  //!< every way of the set busy; parked for one
    };

    /**
     * Snapshot of one active transaction, decoupled from the private
     * Txn so wait graphs and dossiers can walk directory state without
     * seeing protocol internals.
     */
    struct TxnView
    {
        Addr block = 0;
        std::uint64_t set = 0;    //!< L2 set the block maps to
        Phase phase = Phase::Start;
        MsgType req_type = MsgType::GetS;
        NodeId requester = 0;
        bool is_recall = false;
        bool has_resume = false;  //!< a blocked request re-dispatches after
        Addr resume_block = 0;    //!< its block address (Blocked/recall)
    };

    /** Visit every active transaction in block-address order. */
    template <typename Fn>
    void
    forEachTxn(Fn fn) const
    {
        for (const auto &[addr, node] : active_) {
            const Txn &txn = *node;
            TxnView v;
            v.block = addr;
            v.set = array_.setIndex(addr);
            v.phase = txn.phase;
            v.req_type = txn.req.type;
            v.requester = txn.req.src;
            v.is_recall = txn.is_recall;
            v.has_resume = txn.resume.has_value();
            if (txn.resume)
                v.resume_block = txn.resume->block_addr;
            fn(v);
        }
    }

  private:
    /** A request parked behind an active same-block transaction. */
    struct QueuedReq
    {
        Tick recv_tick;
        Msg msg;
    };

    struct Txn
    {
        Msg req;                   //!< request being served
        Phase phase = Phase::Start;
        unsigned pending_acks = 0;
        bool is_recall = false;    //!< internal L2-eviction transaction
        std::optional<Msg> resume; //!< request to re-dispatch afterwards
        Tick start_tick = 0;       //!< when the txn left the queue
        /**
         * Same-block requests parked behind this transaction, oldest
         * first.  The node outlives each transaction it serves, so the
         * capacity is kept and a steady state allocates nothing.
         */
        std::vector<QueuedReq> queue;

        /** Start serving @p msg; resets every field but the queue. */
        void
        begin(const Msg &msg, Tick now)
        {
            req = msg;
            phase = Phase::Start;
            pending_acks = 0;
            is_recall = false;
            resume.reset();
            start_tick = now;
        }
    };

    // transaction table
    Txn *findTxn(Addr block_addr);
    Txn &addTxn(Addr block_addr);

    // dispatch / queueing
    void dispatch(const Msg &msg);
    void startTxn(Txn &txn, const Msg &msg, Tick recv_tick);
    void processRequest(Addr block_addr);
    void complete(Addr block_addr);
    void retryWayWaiter(Addr block_addr);

    // request handlers (block guaranteed present in L2)
    void processGetS(Txn &txn, L2Block &blk);
    void processGetM(Txn &txn, L2Block &blk);
    void processPut(Txn &txn, L2Block &blk);

    // fills and victims
    /**
     * @return @p block_addr's L2 block, or nullptr after parking @p txn
     * on a DRAM fill, a victim recall or a full set.
     */
    L2Block *ensurePresent(Txn &txn, Addr block_addr);
    void startRecall(Addr victim_addr, const Msg &blocked_req);
    void finishRecall(Txn &txn, L2Block &victim);

    // responses routed into active transactions
    void handleAck(const Msg &msg);
    void handleWbClean(const Msg &msg);

    void sendToL1(MsgType type, NodeId dst, Addr block_addr,
                  const std::uint8_t *data = nullptr,
                  std::uint64_t req_id = 0);
    void sendData(MsgType type, NodeId dst, const L2Block &blk,
                  std::uint64_t req_id = 0);

    void dramWriteback(L2Block &blk);

    Params params_;
    DirectoryMap map_;
    std::uint32_t bank_;
    NodeId node_id_;
    std::uint32_t num_cores_;
    Network &network_;
    FlatMemory &backing_;
    prof::WasteProfiler *const prof_; //!< null when profiling is off

    CacheArray<L2Block> array_;

    /**
     * Active transactions: pooled nodes that never move (ensurePresent
     * holds a Txn& while startRecall adds another), indexed by
     * (block, node) pairs sorted by block address.  A finished node
     * passes to the oldest request queued behind it, or else goes on a
     * free list, so a steady state allocates nothing.
     */
    std::deque<Txn> txn_pool_;
    std::vector<Txn *> txn_free_;
    std::vector<std::pair<Addr, Txn *>> active_;

    /** Blocks of WayWait transactions, oldest first. */
    std::vector<Addr> way_waiters_;

    Tick dram_next_free_ = 0;

    statistics::Scalar &stat_gets_;
    statistics::Scalar &stat_getm_;
    statistics::Scalar &stat_puts_;
    statistics::Scalar &stat_wb_clean_;
    statistics::Scalar &stat_fwds_sent_;
    statistics::Scalar &stat_invs_sent_;
    statistics::Scalar &stat_recalls_;
    statistics::Scalar &stat_dram_reads_;
    statistics::Scalar &stat_dram_writes_;
    statistics::Distribution &stat_txn_queue_wait_;
    statistics::Distribution &stat_txn_service_;
};

} // namespace fenceless::mem
