/**
 * @file
 * A generic set-associative cache array with LRU replacement.
 *
 * Shared by the L1 controllers and the shared L2: the controllers define
 * their own block type (deriving from CacheBlockBase) carrying protocol
 * state; the array handles geometry, lookup, and victim selection.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "base/bitfield.hh"
#include "base/logging.hh"
#include "base/types.hh"

namespace fenceless::mem
{

/**
 * A view of one block's payload inside the owning CacheArray's arena.
 *
 * Blocks do not own their storage: a cache array holds one contiguous
 * allocation for all of its blocks and binds each block's view into it
 * at construction.  This keeps building a cache to a single allocation
 * (and a single memset) instead of one heap allocation per block, which
 * dominates System construction cost when models are built frequently.
 */
class BlockData
{
  public:
    void
    bind(std::uint8_t *ptr, std::uint32_t len)
    {
        ptr_ = ptr;
        len_ = len;
    }

    std::size_t size() const { return len_; }
    std::uint8_t *data() { return ptr_; }
    const std::uint8_t *data() const { return ptr_; }

    /** Copy a full payload in (sizes must match). */
    void
    assign(const std::uint8_t *src, std::size_t n)
    {
        flAssert(n == len_, "block payload size mismatch");
        std::memcpy(ptr_, src, len_);
    }

    bool
    operator==(const BlockData &o) const
    {
        return len_ == o.len_ &&
               std::memcmp(ptr_, o.ptr_, len_) == 0;
    }
    bool operator!=(const BlockData &o) const { return !(*this == o); }

  private:
    std::uint8_t *ptr_ = nullptr;
    std::uint32_t len_ = 0;
};

/** State common to all cache blocks. */
struct CacheBlockBase
{
    Addr block_addr = invalid_addr; //!< aligned address of cached block
    bool valid = false;
    std::uint64_t use_stamp = 0;    //!< monotonic LRU stamp
    BlockData data;                 //!< payload view into the arena

    std::uint64_t
    readInt(Addr offset, unsigned size) const
    {
        flAssert(offset + size <= data.size(), "block read out of range");
        std::uint64_t v = 0;
        std::memcpy(&v, data.data() + offset, size);
        return v;
    }

    void
    writeInt(Addr offset, unsigned size, std::uint64_t value)
    {
        flAssert(offset + size <= data.size(), "block write out of range");
        std::memcpy(data.data() + offset, &value, size);
    }
};

template <typename BlockT>
class CacheArray
{
  public:
    /**
     * @param size_bytes  total capacity
     * @param assoc       ways per set
     * @param block_size  block (line) size in bytes
     * @param index_shift block-index bits skipped when selecting the
     *        set.  A directory bank serving every 2^k-th block passes
     *        k here so the addresses it actually sees spread over all
     *        of its sets instead of aliasing into 1/2^k of them.
     */
    CacheArray(std::uint64_t size_bytes, unsigned assoc,
               unsigned block_size, unsigned index_shift = 0)
        : assoc_(assoc), block_size_(block_size),
          index_shift_(index_shift)
    {
        flAssert(isPowerOf2(block_size), "block size must be a power of 2");
        flAssert(assoc > 0, "associativity must be positive");
        flAssert(size_bytes % (static_cast<std::uint64_t>(assoc)
                               * block_size) == 0,
                 "cache size not divisible by assoc*block_size");
        num_sets_ = size_bytes / (static_cast<std::uint64_t>(assoc)
                                  * block_size);
        flAssert(isPowerOf2(num_sets_), "number of sets must be a power "
                 "of 2 (got ", num_sets_, ")");
        blocks_.resize(num_sets_ * assoc_);
        arena_.assign(blocks_.size()
                      * static_cast<std::uint64_t>(block_size_), 0);
        for (std::size_t i = 0; i < blocks_.size(); ++i)
            blocks_[i].data.bind(arena_.data() + i * block_size_,
                                 block_size_);
    }

    unsigned blockSize() const { return block_size_; }
    std::uint64_t numSets() const { return num_sets_; }
    unsigned assoc() const { return assoc_; }
    std::uint64_t numBlocks() const { return blocks_.size(); }

    Addr blockAlign(Addr a) const { return alignDown(a, block_size_); }

    std::uint64_t
    setIndex(Addr a) const
    {
        return ((a / block_size_) >> index_shift_) % num_sets_;
    }

    /** @return the block holding @p addr, or nullptr. */
    BlockT *
    find(Addr addr)
    {
        const Addr ba = blockAlign(addr);
        const std::uint64_t set = setIndex(ba);
        for (unsigned w = 0; w < assoc_; ++w) {
            BlockT &b = blocks_[set * assoc_ + w];
            if (b.valid && b.block_addr == ba)
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

    /** @return an invalid (free) way in @p addr's set, or nullptr. */
    BlockT *
    findFreeWay(Addr addr)
    {
        const std::uint64_t set = setIndex(blockAlign(addr));
        for (unsigned w = 0; w < assoc_; ++w) {
            BlockT &b = blocks_[set * assoc_ + w];
            if (!b.valid)
                return &b;
        }
        return nullptr;
    }

    /**
     * @return the least-recently-used evictable block in @p addr's set
     *         (per @p can_evict), or nullptr if none qualifies.
     */
    template <typename Pred>
    BlockT *
    findVictim(Addr addr, Pred can_evict)
    {
        const std::uint64_t set = setIndex(blockAlign(addr));
        BlockT *victim = nullptr;
        for (unsigned w = 0; w < assoc_; ++w) {
            BlockT &b = blocks_[set * assoc_ + w];
            if (!b.valid || !can_evict(b))
                continue;
            if (!victim || b.use_stamp < victim->use_stamp)
                victim = &b;
        }
        return victim;
    }

    /** Visit every valid block. */
    template <typename Fn>
    void
    forEach(Fn fn)
    {
        for (auto &b : blocks_) {
            if (b.valid)
                fn(b);
        }
    }

    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const auto &b : blocks_) {
            if (b.valid)
                fn(b);
        }
    }

  private:
    unsigned assoc_;
    unsigned block_size_;
    unsigned index_shift_;
    std::uint64_t num_sets_ = 0;
    std::uint64_t stamp_ = 0;
    std::vector<BlockT> blocks_;
    std::vector<std::uint8_t> arena_; //!< backing store for all payloads
};

} // namespace fenceless::mem
