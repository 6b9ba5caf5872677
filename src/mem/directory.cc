#include "mem/directory.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"

namespace fenceless::mem
{

namespace
{

/**
 * Set-index bits a bank must skip: a bank of B sees only addresses
 * whose low log2(B) block-index bits equal its bank number, so those
 * bits carry no information for set selection.
 */
unsigned
bankIndexShift(std::uint32_t banks)
{
    flAssert(isPowerOf2(banks), "directory banks must be a power of two "
             "(got ", banks, ")");
    return floorLog2(banks);
}

} // namespace

Directory::Directory(sim::SimContext &ctx, const std::string &name,
                     const Params &params, const DirectoryMap &map,
                     std::uint32_t bank, Network &network,
                     FlatMemory &backing)
    : SimObject(ctx, name), params_(params), map_(map), bank_(bank),
      node_id_(map.first_node + bank), num_cores_(map.first_node),
      network_(network), backing_(backing),
      prof_(ctx.profiler.ifEnabled()),
      array_(params.size, params.assoc, params.block_size,
             bankIndexShift(map.banks)),
      stat_gets_(statGroup().addScalar("gets", "GetS transactions")),
      stat_getm_(statGroup().addScalar("getm", "GetM transactions")),
      stat_puts_(statGroup().addScalar("puts", "Put transactions")),
      stat_wb_clean_(statGroup().addScalar("wb_clean",
                                           "WbClean updates received")),
      stat_fwds_sent_(statGroup().addScalar("fwds_sent",
                                            "probes forwarded to owners")),
      stat_invs_sent_(statGroup().addScalar("invs_sent",
                                            "invalidations sent")),
      stat_recalls_(statGroup().addScalar("recalls",
                                          "L2 eviction recalls")),
      stat_dram_reads_(statGroup().addScalar("dram_reads",
                                             "DRAM block reads")),
      stat_dram_writes_(statGroup().addScalar("dram_writes",
                                              "DRAM block writebacks")),
      stat_txn_queue_wait_(statGroup().addDistribution("txn_queue_wait",
          "cycles a request waited behind an active same-block "
          "transaction")),
      stat_txn_service_(statGroup().addDistribution("txn_service",
          "cycles from transaction start to completion"))
{
    flAssert(num_cores_ <= max_cores, "directory supports at most ",
             max_cores, " cores");
    flAssert(params.block_size <= MsgPayload::capacity, name,
             ": block size ", params.block_size, " exceeds the ",
             MsgPayload::capacity, "-byte message payload");
    flAssert(map.block_shift == floorLog2(params.block_size), name,
             ": the directory map's block shift ", map.block_shift,
             " does not match the ", params.block_size, "-byte block");
    flAssert(bank < map.banks, name, ": bank index ", bank,
             " out of range for ", map.banks, " banks");
    network_.registerEndpoint(node_id_, this);
}

void
Directory::receiveMsg(const Msg &msg)
{
    FL_TEVENT(*this, trace::EventKind::NetHop, msg.req_id,
              curTick() - msg.sent_tick,
              static_cast<std::uint32_t>(msg.type));
    // Every message must target this bank's address slice: a misrouted
    // request means an L1's DirectoryMap disagrees with the system's.
    flAssert(map_.bankOf(msg.block_addr) == bank_,
             name(), ": ", msg.toString(), " does not belong to bank ",
             bank_, " of ", map_.banks);
    if (isDirRequest(msg.type)) {
        dispatch(msg);
        return;
    }
    switch (msg.type) {
      case MsgType::WbClean:
        handleWbClean(msg);
        break;
      case MsgType::InvAck:
      case MsgType::FwdDataAck:
      case MsgType::FwdNoDataAck:
        handleAck(msg);
        break;
      default:
        panic(name(), ": unexpected message ", msg.toString());
    }
}

// ---------------------------------------------------------------------
// transaction table
// ---------------------------------------------------------------------

bool
Directory::TxnIndex::insert(Addr block_addr, Txn *txn)
{
    if ((size_ + 1) * 2 > table_.size()) {
        // Rehash into twice the slots, keeping the table half empty.
        std::vector<Entry> old(table_.size() * 2);
        old.swap(table_);
        --shift_;
        const std::size_t mask = table_.size() - 1;
        for (const Entry &e : old) {
            if (!e.txn)
                continue;
            std::size_t i = home(e.block);
            while (table_[i].txn)
                i = (i + 1) & mask;
            table_[i] = e;
        }
    }
    const std::size_t mask = table_.size() - 1;
    std::size_t i = home(block_addr);
    while (table_[i].txn) {
        if (table_[i].block == block_addr)
            return false;
        i = (i + 1) & mask;
    }
    table_[i] = Entry{block_addr, txn};
    ++size_;
    return true;
}

void
Directory::TxnIndex::erase(Addr block_addr)
{
    const std::size_t mask = table_.size() - 1;
    std::size_t hole = home(block_addr);
    while (table_[hole].block != block_addr || !table_[hole].txn) {
        flAssert(table_[hole].txn, "no transaction for 0x", std::hex,
                 block_addr);
        hole = (hole + 1) & mask;
    }
    // Backward-shift: an entry behind the hole moves into it unless its
    // home lies after the hole (cyclically), where a probe from its
    // home would no longer pass the hole.
    for (std::size_t j = (hole + 1) & mask; table_[j].txn;
         j = (j + 1) & mask) {
        if (((j - home(table_[j].block)) & mask) >= ((j - hole) & mask)) {
            table_[hole] = table_[j];
            hole = j;
        }
    }
    table_[hole] = Entry{};
    --size_;
}

Directory::Txn &
Directory::addTxn(Addr block_addr)
{
    Txn *txn;
    if (txn_free_.empty()) {
        txn = &txn_pool_.emplace_back();
    } else {
        // A reused node keeps its (empty) queue's capacity; the caller
        // resets the other fields through Txn::begin().
        txn = txn_free_.back();
        txn_free_.pop_back();
    }
    const bool added = active_.insert(block_addr, txn);
    flAssert(added, name(), ": second transaction for 0x", std::hex,
             block_addr);
    return *txn;
}

// ---------------------------------------------------------------------
// dispatch / queueing
// ---------------------------------------------------------------------

void
Directory::dispatch(const Msg &msg)
{
    if (Txn *busy = findTxn(msg.block_addr)) {
        busy->queue.push_back(QueuedReq{curTick(), msg});
        FL_SPAN(*this, msg.req_id, reqtrace::Stage::DirQueue,
                msg.block_addr,
                static_cast<std::uint32_t>(busy->queue.size()));
        return;
    }
    startTxn(addTxn(msg.block_addr), msg, curTick());
}

void
Directory::startTxn(Txn &txn, const Msg &msg, Tick recv_tick)
{
    stat_txn_queue_wait_.sample(
        static_cast<double>(curTick() - recv_tick));
    txn.begin(msg, curTick());
    FL_SPAN(*this, msg.req_id, reqtrace::Stage::DirAccess, msg.block_addr);
    // Model the directory/tag access latency before processing.
    eventq().scheduleOneShot(curTick() + params_.latency,
                             [this, addr = msg.block_addr] {
                                 processRequest(addr);
                             });
}

void
Directory::processRequest(Addr block_addr)
{
    Txn *found = findTxn(block_addr);
    flAssert(found, name(), ": processRequest with no active transaction");
    Txn &txn = *found;
    const Msg &req = txn.req;

    switch (req.type) {
      case MsgType::GetS:
      case MsgType::GetM: {
        L2Block *blk = ensurePresent(txn, block_addr);
        if (!blk)
            return; // waiting for DRAM or a victim recall
        array_.touch(*blk);
        if (req.type == MsgType::GetS) {
            ++stat_gets_;
            processGetS(txn, *blk);
        } else {
            ++stat_getm_;
            processGetM(txn, *blk);
        }
        break;
      }
      case MsgType::PutM:
      case MsgType::PutS:
      case MsgType::PutNoData: {
        ++stat_puts_;
        L2Block *blk = array_.find(block_addr);
        // Inclusivity: a Put can only name a block the L2 tracks, unless
        // the Put raced with a recall that already removed it.
        if (blk) {
            processPut(txn, *blk);
        } else {
            sendToL1(MsgType::PutAck, txn.req.src, block_addr);
        }
        complete(block_addr);
        break;
      }
      default:
        panic(name(), ": bad queued request ", req.toString());
    }
}

void
Directory::complete(Addr block_addr)
{
    Txn *found = findTxn(block_addr);
    flAssert(found, name(), ": complete with no active transaction");
    Txn &txn = *found;
    stat_txn_service_.sample(
        static_cast<double>(curTick() - txn.start_tick));
    const bool was_recall = txn.is_recall;
    if (txn.queue.empty()) {
        txn_free_.push_back(&txn);
        active_.erase(block_addr);
    } else {
        // The oldest queued request takes over this node in place.
        const QueuedReq next = std::move(txn.queue.front());
        txn.queue.erase(txn.queue.begin());
        startTxn(txn, next.msg, next.recv_tick);
    }

    // Any completion but a recall's may free a way of this set (a
    // recalled way is already promised to the request it resumes).
    if (!was_recall && !way_waiters_.empty())
        retryWayWaiter(block_addr);
}

void
Directory::retryWayWaiter(Addr block_addr)
{
    const std::uint64_t set = array_.setIndex(block_addr);
    const auto it = std::find_if(way_waiters_.begin(), way_waiters_.end(),
                                 [&](Addr waiter) {
                                     return array_.setIndex(waiter) == set;
                                 });
    if (it == way_waiters_.end())
        return;
    // The oldest waiter of the set retries; it keeps its place in the
    // FIFO if the set is still full (ensurePresent parks it again).
    const Addr waiter = *it;
    processRequest(waiter);
    if (findTxn(waiter)->phase != Phase::WayWait) {
        way_waiters_.erase(std::find(way_waiters_.begin(),
                                     way_waiters_.end(), waiter));
    }
}

// ---------------------------------------------------------------------
// GetS / GetM
// ---------------------------------------------------------------------

void
Directory::processGetS(Txn &txn, L2Block &blk)
{
    const CoreId requestor = txn.req.src;

    if (blk.hasOwner() && blk.owner != requestor) {
        // Access migrates away from the current owner: read ping-pong.
        if (prof_)
            prof_->linePingPong(blk.block_addr);
        ++stat_fwds_sent_;
        sendToL1(MsgType::FwdGetS, blk.owner, blk.block_addr);
        txn.phase = Phase::Fwd;
        FL_SPAN(*this, txn.req.req_id, reqtrace::Stage::DirFwd,
                blk.block_addr, blk.owner);
        return;
    }
    if (blk.owner == requestor) {
        // Owner re-requesting (defensive: MStale refetch normally uses
        // GetM).  Grant M so ownership bookkeeping stays unchanged.
        sendData(MsgType::DataM, requestor, blk, txn.req.req_id);
        complete(blk.block_addr);
        return;
    }
    if (!blk.hasSharers()) {
        blk.owner = requestor;
        sendData(MsgType::DataE, requestor, blk, txn.req.req_id);
    } else {
        blk.addSharer(requestor);
        sendData(MsgType::DataS, requestor, blk, txn.req.req_id);
    }
    complete(blk.block_addr);
}

void
Directory::processGetM(Txn &txn, L2Block &blk)
{
    const CoreId requestor = txn.req.src;

    if (blk.owner == requestor) {
        // MStale refetch: the L1 lost its data to a rollback but remains
        // owner; the L2 copy is the pre-speculation value.
        sendData(MsgType::DataM, requestor, blk, txn.req.req_id);
        complete(blk.block_addr);
        return;
    }
    if (blk.hasOwner()) {
        // Ownership migrates between writers: write ping-pong.
        if (prof_)
            prof_->linePingPong(blk.block_addr);
        ++stat_fwds_sent_;
        sendToL1(MsgType::FwdGetM, blk.owner, blk.block_addr);
        txn.phase = Phase::Fwd;
        FL_SPAN(*this, txn.req.req_id, reqtrace::Stage::DirFwd,
                blk.block_addr, blk.owner);
        return;
    }

    blk.removeSharer(requestor); // requestor gets fresh data anyway
    if (!blk.hasSharers()) {
        blk.owner = requestor;
        blk.sharers = 0;
        sendData(MsgType::DataM, requestor, blk, txn.req.req_id);
        complete(blk.block_addr);
        return;
    }
    // A writer displacing readers is the other ping-pong transition.
    if (prof_)
        prof_->linePingPong(blk.block_addr);
    unsigned count = 0;
    for (CoreId c = 0; c < num_cores_; ++c) {
        if (blk.isSharer(c)) {
            sendToL1(MsgType::Inv, c, blk.block_addr);
            ++count;
        }
    }
    stat_invs_sent_ += count;
    txn.pending_acks = count;
    txn.phase = Phase::InvAcks;
    FL_SPAN(*this, txn.req.req_id, reqtrace::Stage::DirInv, blk.block_addr,
            count);
}

// ---------------------------------------------------------------------
// Puts and WbClean
// ---------------------------------------------------------------------

void
Directory::processPut(Txn &txn, L2Block &blk)
{
    const CoreId sender = txn.req.src;

    switch (txn.req.type) {
      case MsgType::PutM:
        if (blk.owner == sender) {
            flAssert(txn.req.data.size() == array_.blockSize(),
                     name(), ": PutM with bad payload");
            array_.assign(blk, txn.req.data.data(), txn.req.data.size());
            blk.dirty = true;
            blk.owner = invalid_core;
        } else {
            // Stale put: the sender was downgraded (to sharer, by a
            // FwdGetS that raced with the eviction) or invalidated.
            blk.removeSharer(sender);
        }
        break;
      case MsgType::PutNoData:
        if (blk.owner == sender) {
            // The L1's data was discarded by a rollback; the L2 copy is
            // current.
            blk.owner = invalid_core;
        } else {
            blk.removeSharer(sender);
        }
        break;
      case MsgType::PutS:
        blk.removeSharer(sender);
        break;
      default:
        panic(name(), ": processPut on ", txn.req.toString());
    }
    sendToL1(MsgType::PutAck, sender, blk.block_addr);
}

void
Directory::handleWbClean(const Msg &msg)
{
    ++stat_wb_clean_;
    L2Block *blk = array_.find(msg.block_addr);
    // Channel FIFO guarantees a WbClean arrives while its sender is
    // still the owner (it precedes any ownership-changing response from
    // that L1), and inclusivity guarantees the entry exists.
    flAssert(blk, name(), ": WbClean for an untracked block 0x",
             std::hex, msg.block_addr);
    flAssert(blk->owner == msg.src, name(), ": WbClean from non-owner ",
             msg.src);
    flAssert(msg.data.size() == array_.blockSize(),
             name(), ": WbClean with bad payload");
    array_.assign(*blk, msg.data.data(), msg.data.size());
    blk->dirty = true;
}

// ---------------------------------------------------------------------
// acks (routed to the active transaction)
// ---------------------------------------------------------------------

void
Directory::handleAck(const Msg &msg)
{
    Txn *found = findTxn(msg.block_addr);
    flAssert(found, name(), ": ", msg.toString(),
             " with no active transaction");
    Txn &txn = *found;
    L2Block *blk = array_.find(msg.block_addr);
    flAssert(blk, name(), ": ack for a block not in L2");

    if (msg.type == MsgType::InvAck) {
        flAssert(txn.phase == Phase::InvAcks,
                 name(), ": unexpected InvAck");
        blk->removeSharer(msg.src);
        flAssert(txn.pending_acks > 0, "InvAck underflow");
        if (--txn.pending_acks > 0)
            return;
        if (txn.is_recall) {
            finishRecall(txn, *blk);
            return;
        }
        // GetM: all sharers gone; grant M.
        blk->owner = txn.req.src;
        blk->sharers = 0;
        sendData(MsgType::DataM, txn.req.src, *blk, txn.req.req_id);
        complete(msg.block_addr);
        return;
    }

    // FwdDataAck / FwdNoDataAck from the (former) owner.
    flAssert(txn.phase == Phase::Fwd,
             name(), ": unexpected ", msg.toString());
    const CoreId old_owner = blk->owner;
    flAssert(old_owner == msg.src, name(), ": Fwd ack from ", msg.src,
             " but owner is ", old_owner);

    if (msg.type == MsgType::FwdDataAck) {
        flAssert(msg.data.size() == array_.blockSize(),
                 name(), ": FwdDataAck with bad payload");
        array_.assign(*blk, msg.data.data(), msg.data.size());
        blk->dirty = true;
    }
    // On FwdNoDataAck the L2 copy is already the authoritative value.

    if (txn.is_recall) {
        blk->owner = invalid_core;
        finishRecall(txn, *blk);
        return;
    }

    if (txn.req.type == MsgType::GetS) {
        blk->owner = invalid_core;
        if (msg.type == MsgType::FwdDataAck)
            blk->addSharer(old_owner); // downgraded owner keeps a copy
        if (!blk->hasSharers()) {
            blk->owner = txn.req.src;
            sendData(MsgType::DataE, txn.req.src, *blk,
                     txn.req.req_id);
        } else {
            blk->addSharer(txn.req.src);
            sendData(MsgType::DataS, txn.req.src, *blk,
                     txn.req.req_id);
        }
    } else { // GetM
        blk->owner = txn.req.src;
        blk->sharers = 0;
        sendData(MsgType::DataM, txn.req.src, *blk, txn.req.req_id);
    }
    complete(msg.block_addr);
}

// ---------------------------------------------------------------------
// L2 fills and recalls
// ---------------------------------------------------------------------

L2Block *
Directory::ensurePresent(Txn &txn, Addr block_addr)
{
    if (L2Block *blk = array_.find(block_addr))
        return blk;

    if (txn.phase == Phase::Dram) {
        panic(name(), ": re-entered ensurePresent while in Dram phase");
    }

    L2Block *way = array_.findFreeWay(block_addr);
    if (!way) {
        // Prefer victims nobody caches; otherwise recall one.
        L2Block *victim = array_.findVictim(block_addr,
            [this](const L2Block &b) {
                return !b.hasOwner() && !b.hasSharers() &&
                       !findTxn(b.block_addr);
            });
        if (!victim) {
            victim = array_.findVictim(block_addr,
                [this](const L2Block &b) {
                    return !findTxn(b.block_addr);
                });
            if (!victim) {
                // Every way of the set belongs to an active transaction.
                // Park until one of them completes (complete() retries
                // the set's oldest waiter).
                if (txn.phase != Phase::WayWait) {
                    txn.phase = Phase::WayWait;
                    way_waiters_.push_back(block_addr);
                }
                return nullptr;
            }
            txn.phase = Phase::Blocked;
            FL_SPAN(*this, txn.req.req_id, reqtrace::Stage::DirBlocked,
                    block_addr,
                    static_cast<std::uint32_t>(
                        victim->block_addr >>
                        floorLog2(params_.block_size)));
            startRecall(victim->block_addr, txn.req);
            return nullptr;
        }
        dramWriteback(*victim);
        array_.invalidate(*victim);
        way = victim;
    }

    // Fetch the block from DRAM.
    txn.phase = Phase::Dram;
    FL_SPAN(*this, txn.req.req_id, reqtrace::Stage::Dram, block_addr);
    ++stat_dram_reads_;
    const Tick ready = std::max(curTick(), dram_next_free_)
                       + params_.dram_latency;
    dram_next_free_ = std::max(curTick(), dram_next_free_)
                      + params_.dram_cycle;

    array_.install(*way, block_addr);
    backing_.read(block_addr, array_.data(*way), array_.blockSize());
    array_.touch(*way);

    eventq().scheduleOneShot(ready, [this, block_addr] {
        processRequest(block_addr);
    });
    return nullptr;
}

void
Directory::startRecall(Addr victim_addr, const Msg &blocked_req)
{
    ++stat_recalls_;
    Msg req; // synthetic
    req.type = MsgType::GetM;
    req.block_addr = victim_addr;
    Txn &txn = addTxn(victim_addr);
    txn.begin(req, curTick());
    txn.is_recall = true;
    txn.resume = blocked_req;

    L2Block *blk = array_.find(victim_addr);
    flAssert(blk, name(), ": recall target vanished");

    if (blk->hasOwner()) {
        ++stat_fwds_sent_;
        sendToL1(MsgType::Recall, blk->owner, victim_addr);
        txn.phase = Phase::Fwd;
        return;
    }
    flAssert(blk->hasSharers(), name(), ": recall of an uncached block");
    unsigned count = 0;
    for (CoreId c = 0; c < num_cores_; ++c) {
        if (blk->isSharer(c)) {
            sendToL1(MsgType::Inv, c, victim_addr);
            ++count;
        }
    }
    stat_invs_sent_ += count;
    txn.pending_acks = count;
    txn.phase = Phase::InvAcks;
}

void
Directory::finishRecall(Txn &txn, L2Block &victim)
{
    flAssert(!victim.hasOwner() && !victim.hasSharers(),
             name(), ": recall finished with live copies");
    const Addr victim_addr = victim.block_addr;
    dramWriteback(victim);
    array_.invalidate(victim);

    std::optional<Msg> resume = std::move(txn.resume);
    complete(victim_addr); // also dispatches queued requests for victim

    if (resume) {
        // Continue the transaction that was blocked on this recall.
        const Addr orig = resume->block_addr;
        flAssert(findTxn(orig), name(), ": blocked transaction vanished");
        processRequest(orig);
    }
}

void
Directory::dramWriteback(L2Block &blk)
{
    if (!blk.dirty)
        return;
    ++stat_dram_writes_;
    backing_.write(blk.block_addr, array_.data(blk), array_.blockSize());
    blk.dirty = false;
    // Writes are buffered; only the occupancy cost is modelled.
    dram_next_free_ = std::max(curTick(), dram_next_free_)
                      + params_.dram_cycle;
}

// ---------------------------------------------------------------------
// misc
// ---------------------------------------------------------------------

void
Directory::sendToL1(MsgType type, NodeId dst, Addr block_addr,
                    const std::uint8_t *data,
                    std::uint64_t req_id)
{
    Msg msg;
    msg.type = type;
    msg.src = node_id_;
    msg.dst = dst;
    msg.block_addr = block_addr;
    msg.req_id = req_id;
    if (data)
        msg.data.assign(data, array_.blockSize());
    network_.send(std::move(msg));
}

void
Directory::sendData(MsgType type, NodeId dst, const L2Block &blk,
                    std::uint64_t req_id)
{
    FL_SPAN(*this, req_id, reqtrace::Stage::ReplyNet, blk.block_addr, dst);
    sendToL1(type, dst, blk.block_addr, array_.data(blk), req_id);
}

std::uint64_t
Directory::debugRead(Addr addr, unsigned size) const
{
    const L2Block *blk = array_.find(addr);
    if (blk)
        return array_.readInt(*blk, addr - blk->block_addr, size);
    return backing_.readInt(addr, size);
}

} // namespace fenceless::mem
