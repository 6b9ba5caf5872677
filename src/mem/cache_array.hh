/**
 * @file
 * A generic set-associative cache array with LRU replacement.
 *
 * Shared by the L1 controllers and the shared L2: the controllers define
 * their own block type (deriving from CacheBlockBase) carrying protocol
 * state; the array handles geometry, lookup, validity, victim selection
 * and the blocks' payloads.
 *
 * The layout keeps a set scan to as few host cache lines as it can:
 *
 *  - Blocks hold tags and protocol state only (32 bytes for L1Block and
 *    L2Block), in one set-major table.
 *  - Payloads live in one arena beside the table.  Block i's bytes sit
 *    at arena + i * block size, addressed by the block's index, so a
 *    block carries no pointer to them; the read, write, assign and
 *    compare helpers take the block.
 *  - The table and the arena start unwritten.  install() writes every
 *    field of its block, and every install is followed by a write of
 *    the whole payload (a fill or a DRAM read) before anything reads
 *    it, so zeroing them would only write every page at construction,
 *    most of which a run never touches.
 *  - One 64-bit valid-way mask per set is the only record of which ways
 *    hold a block.  Blocks enter through install() and leave through
 *    invalidate(); lookups, free-way and victim choice walk the mask.
 *    An array is therefore at most 64 ways wide.
 *  - The geometry is a power of two, so set index and block alignment
 *    are a shift and a mask.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "base/bitfield.hh"
#include "base/logging.hh"
#include "base/no_init_allocator.hh"
#include "base/types.hh"

namespace fenceless::mem
{

/**
 * State common to all cache blocks.  Like the block types deriving from
 * it, it has no default member initializers: the block table is
 * allocated unwritten, and install() writes every field.
 */
struct CacheBlockBase
{
    Addr block_addr;         //!< aligned address of the cached block
    std::uint64_t use_stamp; //!< monotonic LRU stamp
};

/**
 * Blocks of type BlockT in a set-major table, their payloads in an
 * arena addressed by block index, and one valid-way mask per set; LRU
 * replacement by use stamp.  BlockT derives from CacheBlockBase, is
 * trivially default-constructible, and provides
 * `static BlockT fresh(Addr block_addr)`: the block install() leaves
 * in a way.
 */
template <typename BlockT>
class CacheArray
{
    static_assert(std::is_trivially_default_constructible_v<BlockT>,
                  "the block table is allocated unwritten");

  public:
    /** Widest set the valid-way mask can describe. */
    static constexpr unsigned max_assoc = 64;

    /**
     * @param size_bytes  total capacity
     * @param assoc       ways per set (1..max_assoc)
     * @param block_size  block (line) size in bytes
     * @param index_shift block-index bits skipped when selecting the
     *        set.  A directory bank serving every 2^k-th block passes
     *        k here so the addresses it actually sees spread over all
     *        of its sets instead of aliasing into 1/2^k of them.
     */
    CacheArray(std::uint64_t size_bytes, unsigned assoc,
               unsigned block_size, unsigned index_shift = 0)
        : assoc_(assoc), block_size_(block_size),
          block_shift_(floorLog2(block_size)),
          set_shift_(block_shift_ + index_shift),
          align_mask_(~static_cast<Addr>(block_size - 1)),
          full_mask_(mask(assoc))
    {
        flAssert(isPowerOf2(block_size), "block size must be a power of 2");
        flAssert(assoc > 0, "associativity must be positive");
        flAssert(assoc <= max_assoc, "associativity ", assoc,
                 " exceeds the ", max_assoc, "-way limit of the "
                 "valid-way mask");
        flAssert(size_bytes % (static_cast<std::uint64_t>(assoc)
                               * block_size) == 0,
                 "cache size not divisible by assoc*block_size");
        num_sets_ = size_bytes / (static_cast<std::uint64_t>(assoc)
                                  * block_size);
        flAssert(isPowerOf2(num_sets_), "number of sets must be a power "
                 "of 2 (got ", num_sets_, ")");
        set_mask_ = num_sets_ - 1;
        blocks_.resize(num_sets_ * assoc_);
        arena_.resize(blocks_.size() << block_shift_);
        valid_.assign(num_sets_, 0);
    }

    unsigned blockSize() const { return block_size_; }
    std::uint64_t numSets() const { return num_sets_; }
    unsigned assoc() const { return assoc_; }
    std::uint64_t numBlocks() const { return blocks_.size(); }

    Addr blockAlign(Addr a) const { return a & align_mask_; }

    std::uint64_t
    setIndex(Addr a) const
    {
        return (a >> set_shift_) & set_mask_;
    }

    /** @return the valid block holding @p addr, or nullptr. */
    BlockT *
    find(Addr addr)
    {
        const Addr ba = blockAlign(addr);
        const std::uint64_t set = setIndex(ba);
        for (std::uint64_t m = valid_[set]; m; m &= m - 1) {
            BlockT &b = way(set, m);
            if (b.block_addr == ba)
                return &b;
        }
        return nullptr;
    }

    const BlockT *
    find(Addr addr) const
    {
        return const_cast<CacheArray *>(this)->find(addr);
    }

    /** Mark @p block most-recently used. */
    void touch(BlockT &block) { block.use_stamp = ++stamp_; }

    /** @return the lowest free way of @p addr's set, or nullptr. */
    BlockT *
    findFreeWay(Addr addr)
    {
        const std::uint64_t set = setIndex(addr);
        const std::uint64_t free = ~valid_[set] & full_mask_;
        return free ? &way(set, free) : nullptr;
    }

    /**
     * @return the least-recently-used evictable block in @p addr's set
     *         (per @p can_evict; the lowest way on a tie), or nullptr if
     *         none qualifies.
     */
    template <typename Pred>
    BlockT *
    findVictim(Addr addr, Pred can_evict)
    {
        const std::uint64_t set = setIndex(addr);
        BlockT *victim = nullptr;
        for (std::uint64_t m = valid_[set]; m; m &= m - 1) {
            BlockT &b = way(set, m);
            if (!can_evict(b))
                continue;
            if (!victim || b.use_stamp < victim->use_stamp)
                victim = &b;
        }
        return victim;
    }

    /**
     * Make the free way @p block hold @p addr's block, every field as
     * BlockT::fresh() sets it.  The caller writes the whole payload
     * before anything reads it.
     */
    void
    install(BlockT &block, Addr addr)
    {
        const Addr ba = blockAlign(addr);
        const std::uint64_t set = setIndex(ba);
        const std::uint64_t w = index(block) - set * assoc_;
        flAssert(w < assoc_, "install of 0x", std::hex, ba,
                 " into a way outside its set");
        const std::uint64_t bit = std::uint64_t{1} << w;
        flAssert(!(valid_[set] & bit), "install of 0x", std::hex, ba,
                 " over the valid block 0x", block.block_addr);
        valid_[set] |= bit;
        block = BlockT::fresh(ba);
    }

    /** Free the valid @p block's way. */
    void
    invalidate(BlockT &block)
    {
        const std::uint64_t set = setIndex(block.block_addr);
        const std::uint64_t w = index(block) - set * assoc_;
        const std::uint64_t bit = w < assoc_ ? std::uint64_t{1} << w : 0;
        flAssert(valid_[set] & bit, "invalidate of a block that is not "
                 "valid");
        valid_[set] &= ~bit;
        block.block_addr = invalid_addr;
    }

    /** Visit every valid block, by ascending set, then way. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (std::uint64_t set = 0; set < num_sets_; ++set) {
            for (std::uint64_t m = valid_[set]; m; m &= m - 1)
                fn(blocks_[set * assoc_ + std::countr_zero(m)]);
        }
    }

    // --- payloads --------------------------------------------------------

    std::uint8_t *
    data(BlockT &block)
    {
        return &arena_[index(block) << block_shift_];
    }

    const std::uint8_t *
    data(const BlockT &block) const
    {
        return &arena_[index(block) << block_shift_];
    }

    std::uint64_t
    readInt(const BlockT &block, Addr offset, unsigned size) const
    {
        flAssert(offset + size <= block_size_, "block read out of range");
        std::uint64_t v = 0;
        std::memcpy(&v, data(block) + offset, size);
        return v;
    }

    void
    writeInt(BlockT &block, Addr offset, unsigned size,
             std::uint64_t value)
    {
        flAssert(offset + size <= block_size_, "block write out of range");
        std::memcpy(data(block) + offset, &value, size);
    }

    /** Copy a full payload in (sizes must match). */
    void
    assign(BlockT &block, const std::uint8_t *src, std::size_t n)
    {
        flAssert(n == block_size_, "block payload size mismatch");
        std::memcpy(data(block), src, n);
    }

    /** @return true if @p block's payload equals the bytes at @p other. */
    bool
    sameData(const BlockT &block, const std::uint8_t *other) const
    {
        return std::memcmp(data(block), other, block_size_) == 0;
    }

  private:
    /** The way named by the lowest set bit of @p ways in @p set. */
    BlockT &
    way(std::uint64_t set, std::uint64_t ways)
    {
        return blocks_[set * assoc_ + std::countr_zero(ways)];
    }

    std::size_t
    index(const BlockT &block) const
    {
        return static_cast<std::size_t>(&block - blocks_.data());
    }

    unsigned assoc_;
    unsigned block_size_;
    unsigned block_shift_;    //!< log2(block_size_)
    unsigned set_shift_;      //!< block_shift_ + the bank index shift
    Addr align_mask_;         //!< clears the in-block offset
    std::uint64_t full_mask_; //!< one bit per way
    std::uint64_t num_sets_ = 0;
    std::uint64_t set_mask_ = 0;
    std::uint64_t stamp_ = 0;
    /** Set-major, assoc_ ways per set; unwritten until installed. */
    std::vector<BlockT, NoInitAllocator<BlockT>> blocks_;
    /** Payload i at i << block_shift_; unwritten until installed. */
    std::vector<std::uint8_t, NoInitAllocator<std::uint8_t>> arena_;
    std::vector<std::uint64_t> valid_; //!< valid-way mask per set
};

} // namespace fenceless::mem
