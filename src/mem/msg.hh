/**
 * @file
 * Coherence messages exchanged between L1 controllers and the directory.
 *
 * The protocol is directory-based MESI with a blocking directory that
 * collects invalidation acks itself, so all traffic flows
 * L1 <-> directory bank (logically a star per bank).  Channels preserve
 * point-to-point FIFO order, which several protocol races rely on
 * (e.g. WbClean ordered before a later FwdNoDataAck from the same L1).
 *
 * The directory may be banked by block address (see DirectoryMap): an
 * L1 computes the home bank of every block it talks about, so the
 * protocol itself never needs to know the bank count -- each bank sees
 * a disjoint address slice and runs the unmodified MESI state machine.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "base/logging.hh"
#include "base/types.hh"

namespace fenceless::mem
{

/**
 * Network endpoint id: L1 caches are 0..N-1, the directory banks are
 * N..N+B-1 (a single-bank directory is just node N, the legacy star).
 */
using NodeId = std::uint32_t;

/**
 * The block-address -> directory-bank mapping every L1 uses to route
 * its requests.  Banks are selected by the low block-index bits
 * (`bank = (addr >> block_shift) & (banks - 1)`), so consecutive
 * blocks stripe round-robin across banks and `banks` must be a power
 * of two.  Implicitly convertible from a bare NodeId for the
 * single-bank tests and benches that predate banking.
 */
struct DirectoryMap
{
    NodeId first_node = 0;    //!< node id of bank 0 (== num cores)
    std::uint32_t banks = 1;  //!< power-of-two bank count
    unsigned block_shift = 6; //!< log2(block size)

    DirectoryMap() = default;
    DirectoryMap(NodeId single_bank_node) : first_node(single_bank_node) {}
    DirectoryMap(NodeId first, std::uint32_t nbanks, unsigned shift)
        : first_node(first), banks(nbanks), block_shift(shift)
    {
    }

    std::uint32_t
    bankOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr >> block_shift)
               & (banks - 1);
    }

    /** The network node serving @p addr's directory bank. */
    NodeId nodeFor(Addr addr) const { return first_node + bankOf(addr); }
};

enum class MsgType : std::uint8_t
{
    // Requests, L1 -> directory (queued; blocking per block)
    GetS,        //!< read permission
    GetM,        //!< write permission
    PutM,        //!< owner eviction, carries data
    PutS,        //!< sharer eviction, no data
    PutNoData,   //!< owner eviction with no valid data (post-rollback)

    // Unsolicited update, L1 -> directory (processed immediately)
    WbClean,     //!< owner pushes current data to L2, retains ownership

    // Directory -> L1 (requests/probes)
    Inv,         //!< invalidate; reply InvAck to directory
    FwdGetS,     //!< send data to directory, downgrade M/E -> S
    FwdGetM,     //!< send data to directory, invalidate
    Recall,      //!< L2 eviction: owner returns data and invalidates

    // Directory -> L1 (responses)
    DataS,       //!< data with shared permission
    DataE,       //!< data with exclusive (clean) permission
    DataM,       //!< data with modify permission
    PutAck,      //!< eviction acknowledged

    // Responses, L1 -> directory (consumed by the active transaction)
    InvAck,      //!< invalidation done
    FwdDataAck,  //!< data in response to FwdGetS/FwdGetM/Recall
    FwdNoDataAck,//!< probe hit a block whose data was discarded; use L2
};

/** @return the printable name of a message type. */
const char *msgTypeName(MsgType t);

/** @return true for request types the directory queues per block. */
bool isDirRequest(MsgType t);

/**
 * A block payload carried inline in its message, so sending data
 * allocates nothing.  Holds at most one 64-byte block: L1Cache and
 * Directory refuse larger block sizes when they are built.
 */
class MsgPayload
{
  public:
    static constexpr std::size_t capacity = 64;

    bool empty() const { return len_ == 0; }
    std::size_t size() const { return len_; }
    const std::uint8_t *data() const { return bytes_; }

    /** Copy @p n bytes from @p src. */
    void
    assign(const std::uint8_t *src, std::size_t n)
    {
        flAssert(n <= capacity, "payload of ", n, " bytes exceeds ",
                 capacity);
        std::memcpy(bytes_, src, n);
        len_ = static_cast<std::uint8_t>(n);
    }

    /** Fill @p n bytes with @p value. */
    void
    assign(std::size_t n, std::uint8_t value)
    {
        flAssert(n <= capacity, "payload of ", n, " bytes exceeds ",
                 capacity);
        std::memset(bytes_, value, n);
        len_ = static_cast<std::uint8_t>(n);
    }

  private:
    std::uint8_t bytes_[capacity]; //!< only the first len_ are defined
    std::uint8_t len_ = 0;
};

/** One coherence message. */
struct Msg
{
    MsgType type = MsgType::GetS;
    NodeId src = 0;
    NodeId dst = 0;
    Addr block_addr = 0;
    std::uint64_t req_id = 0; //!< request-lifetime id (0 = untracked)
    Tick sent_tick = 0;       //!< stamped by Network::send
    std::uint8_t hops = 0;    //!< links traversed (stamped by send)
    MsgPayload data;          //!< block payload, empty for ctrl msgs

    bool hasData() const { return !data.empty(); }

    /** On-wire size in bytes (header + payload). */
    std::size_t sizeBytes() const { return 8 + data.size(); }

    std::string toString() const;
};

} // namespace fenceless::mem
