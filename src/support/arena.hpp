// lint:hot-path — per-query bump arena behind the zero-allocation query
// path. Everything the matcher scratches on during one request (candidate
// hit lists, top-k buffers, doom/visited bitsets, name bytes for hits)
// lives here; `reset()` recycles the memory for the next request without
// returning it to the heap, so the steady state performs no allocations
// at all (`chunk_allocs()` counts the rare cold-path chunk growths).
//
// Contract (DESIGN.md §13): scratch never outlives the query that
// allocated it. Callers materialize results into caller-owned storage
// before reset; ArenaVec/ArenaBitset are non-owning views into the arena
// and must be dropped before the next reset. Nothing here is thread-safe;
// each thread uses its own arena (see query_scratch_arena()).
//
// This header intentionally avoids std::vector/std::string (enforced by
// sariadne-analyze's hot-path rules): chunks form an intrusive singly-linked
// list carved from ::operator new.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

#include "support/contracts.hpp"

namespace sariadne::support {

/// Chunked bump allocator. Allocation is pointer arithmetic on the hot
/// path; when the current chunk is exhausted the arena advances to the
/// next retained chunk or, cold, grows a doubled one from the heap.
class Arena {
public:
    static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

    explicit Arena(std::size_t first_chunk_bytes = kDefaultChunkBytes) noexcept
        : next_chunk_bytes_(first_chunk_bytes < kMinChunkBytes
                                ? kMinChunkBytes
                                : first_chunk_bytes) {}

    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    ~Arena() {
        Chunk* chunk = head_;
        while (chunk != nullptr) {
            Chunk* next = chunk->next;
            ::operator delete(chunk);
            chunk = next;
        }
    }

    /// Uninitialized storage, aligned to `alignment` (a power of two no
    /// larger than alignof(std::max_align_t)).
    void* allocate(std::size_t bytes, std::size_t alignment) {
        SARIADNE_ASSERT(alignment != 0 &&
                        (alignment & (alignment - 1)) == 0 &&
                        alignment <= alignof(std::max_align_t));
        std::uintptr_t cursor = (cursor_ + (alignment - 1)) &
                                ~static_cast<std::uintptr_t>(alignment - 1);
        if (current_ == nullptr || cursor + bytes > current_->end) {
            grow(bytes, alignment);
            cursor = (cursor_ + (alignment - 1)) &
                     ~static_cast<std::uintptr_t>(alignment - 1);
        }
        cursor_ = cursor + bytes;
        return reinterpret_cast<void*>(cursor);
    }

    /// Uninitialized array of `count` trivially-destructible `T`s.
    template <typename T>
    T* alloc_array(std::size_t count) {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena storage is never destroyed element-wise");
        return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
    }

    /// Copies `size` bytes into the arena and returns the stable copy.
    /// Used to pin hit names whose owners may die once a lock drops.
    const char* copy_bytes(const char* data, std::size_t size) {
        char* out = alloc_array<char>(size);
        if (size != 0) std::memcpy(out, data, size);
        return out;
    }

    /// Rewinds to empty while *retaining* every chunk: the next query
    /// reuses the same memory and performs zero heap allocations as long
    /// as its footprint fits what previous queries established.
    void reset() noexcept {
        current_ = head_;
        cursor_ = current_ != nullptr ? current_->begin : 0;
    }

    /// Heap allocations performed by this arena since construction.
    /// Steady state (after warm-up) must not move between resets —
    /// MatchStats::scratch_allocs reports the per-query delta.
    std::uint64_t chunk_allocs() const noexcept { return chunk_allocs_; }

    /// Bytes currently held across all retained chunks.
    std::size_t retained_bytes() const noexcept { return retained_bytes_; }

private:
    struct Chunk {
        Chunk* next;
        std::uintptr_t begin;
        std::uintptr_t end;
    };

    static constexpr std::size_t kMinChunkBytes = 1024;

    void grow(std::size_t bytes, std::size_t alignment) {
        // Advance through retained chunks first; only carve a fresh one
        // when the request cannot fit in anything already owned.
        Chunk* next = current_ != nullptr ? current_->next : head_;
        while (next != nullptr) {
            const std::uintptr_t aligned =
                (next->begin + (alignment - 1)) &
                ~static_cast<std::uintptr_t>(alignment - 1);
            if (aligned + bytes <= next->end) {
                current_ = next;
                cursor_ = next->begin;
                return;
            }
            next = next->next;
        }
        std::size_t chunk_bytes = next_chunk_bytes_;
        while (chunk_bytes < bytes + alignment) chunk_bytes *= 2;
        next_chunk_bytes_ = chunk_bytes * 2;
        // lint:allow-hot-path-alloc(amortized cold path; queries reuse chunks)
        auto* raw = static_cast<char*>(
            ::operator new(sizeof(Chunk) + chunk_bytes));
        ++chunk_allocs_;
        retained_bytes_ += chunk_bytes;
        auto* chunk = new (raw) Chunk{};
        chunk->begin = reinterpret_cast<std::uintptr_t>(raw + sizeof(Chunk));
        chunk->end = chunk->begin + chunk_bytes;
        // Append so reset() replays chunks in a stable order.
        chunk->next = nullptr;
        if (current_ != nullptr) {
            current_->next = chunk;
        } else {
            head_ = chunk;
        }
        current_ = chunk;
        cursor_ = chunk->begin;
    }

    Chunk* head_ = nullptr;
    Chunk* current_ = nullptr;
    std::uintptr_t cursor_ = 0;
    std::size_t next_chunk_bytes_;
    std::uint64_t chunk_allocs_ = 0;
    std::size_t retained_bytes_ = 0;
};

/// Growable array of trivially-copyable elements carved from an Arena.
/// Non-owning: the storage dies (logically) at the arena's next reset,
/// so an ArenaVec must never escape the query that created it. Growth
/// doubles and memcpy-moves, so iterators/pointers are invalidated by
/// push_back — identical discipline to std::vector.
template <typename T>
class ArenaVec {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ArenaVec relies on memcpy growth and no destructors");

public:
    explicit ArenaVec(Arena& arena, std::size_t initial_capacity = 0)
        : arena_(&arena) {
        if (initial_capacity != 0) {
            data_ = arena_->alloc_array<T>(initial_capacity);
            capacity_ = initial_capacity;
        }
    }

    T* begin() noexcept { return data_; }
    T* end() noexcept { return data_ + size_; }
    const T* begin() const noexcept { return data_; }
    const T* end() const noexcept { return data_ + size_; }
    T* data() noexcept { return data_; }
    const T* data() const noexcept { return data_; }
    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }
    T& operator[](std::size_t i) noexcept { return data_[i]; }
    const T& operator[](std::size_t i) const noexcept { return data_[i]; }
    T& back() noexcept { return data_[size_ - 1]; }

    void clear() noexcept { size_ = 0; }

    void push_back(const T& value) {
        if (size_ == capacity_) grow();
        data_[size_++] = value;
    }

    void pop_back() noexcept { --size_; }

    /// Shrinks to `n` elements (n <= size()); never grows.
    void truncate(std::size_t n) noexcept {
        SARIADNE_ASSERT(n <= size_);
        size_ = n;
    }

private:
    void grow() {
        const std::size_t new_capacity = capacity_ == 0 ? 16 : capacity_ * 2;
        T* fresh = arena_->alloc_array<T>(new_capacity);
        if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(T));
        data_ = fresh;
        capacity_ = new_capacity;
    }

    Arena* arena_;
    T* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

/// Fixed-capacity bitset carved from an Arena; capacity is chosen at
/// construction (bit_capacity bits, rounded up to whole words) and bits
/// at or past the capacity read as zero and must not be set.
class ArenaBitset {
public:
    ArenaBitset(Arena& arena, std::size_t bit_capacity)
        : words_(arena.alloc_array<std::uint64_t>((bit_capacity + 63) >> 6)),
          word_count_((bit_capacity + 63) >> 6) {
        std::memset(words_, 0, word_count_ * sizeof(std::uint64_t));
    }

    bool test(std::size_t index) const noexcept {
        const std::size_t word = index >> 6;
        return word < word_count_ &&
               (words_[word] >> (index & 63u) & 1u) != 0;
    }

    void set(std::size_t index) noexcept {
        SARIADNE_ASSERT((index >> 6) < word_count_);
        words_[index >> 6] |= std::uint64_t{1} << (index & 63u);
    }

    /// this |= other, clamped to this bitset's capacity. Sound for the
    /// DAG doom sets: every reachable vertex id is below the capacity
    /// the query sized the bitset with.
    void or_with_clamped(const std::uint64_t* other_words,
                         std::size_t other_word_count) noexcept {
        const std::size_t n =
            other_word_count < word_count_ ? other_word_count : word_count_;
        for (std::size_t i = 0; i < n; ++i) words_[i] |= other_words[i];
    }

    void clear() noexcept {
        std::memset(words_, 0, word_count_ * sizeof(std::uint64_t));
    }

private:
    std::uint64_t* words_;
    std::size_t word_count_;
};

/// The per-thread scratch arena used by the query hot path. Thread-local
/// so concurrent queries never share scratch; reset at each query entry
/// point (SemanticDirectory::match_one_into, CapabilityDag::insert).
inline Arena& query_scratch_arena() {
    thread_local Arena arena;
    return arena;
}

}  // namespace sariadne::support
