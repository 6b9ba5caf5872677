/**
 * @file
 * An allocator for large tables whose elements are written before they
 * are read.
 */

#pragma once

#include <memory>
#include <new>

namespace fenceless
{

/**
 * std::allocator, except that a vector's sizing constructor and
 * resize() default-initialize new elements instead of
 * value-initializing them: for a trivially default-constructible
 * element type, new memory stays unwritten, so its pages are not
 * touched until the program writes them.
 */
template <typename T>
struct NoInitAllocator : std::allocator<T>
{
    template <typename U>
    struct rebind
    {
        using other = NoInitAllocator<U>;
    };

    template <typename U>
    void
    construct(U *p)
    {
        ::new (static_cast<void *>(p)) U;
    }
};

} // namespace fenceless
