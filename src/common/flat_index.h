// FlatIndex: a lookup-only map from a 64-bit key to a 32-bit slot, and
// FlatTable: keyed records found through one.
//
// The protocol servers keep their per-object records, and QRPC its calls,
// in dense slabs; a FlatIndex finds a record's slot from its key.  It is
// open addressing with linear probing over a power-of-two table of 16-byte
// entries: keys are Fibonacci-hashed (so sequential object and rpc ids
// spread), the table doubles at half load, and erase shifts the rest of a
// probe run back instead of leaving tombstones.
//
// Lookup only: there is no iteration, because the table layout depends on
// the capacity and the insertion history.  A walk that needs an order walks
// the records and sorts the keys it collects.  Every key is legal, 0
// included: an entry is empty when its slot is kNone, not when its key is 0.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dq {

class FlatIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  // The slot stored for `key`, or kNone.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const {
    if (size_ == 0) return kNone;
    for (std::size_t i = bucket(key);; i = (i + 1) & mask_) {
      const Entry& e = table_[i];
      if (e.slot == kNone) return kNone;
      if (e.key == key) return e.slot;
    }
  }

  // Map an absent `key` to `slot` (not kNone).
  void insert(std::uint64_t key, std::uint32_t slot) {
    if (2 * (size_ + 1) > table_.size()) grow();
    place(key, slot);
    ++size_;
  }

  // Remove `key`; a no-op when it is absent.
  void erase(std::uint64_t key) {
    if (size_ == 0) return;
    std::size_t hole = bucket(key);
    while (table_[hole].slot != kNone && table_[hole].key != key) {
      hole = (hole + 1) & mask_;
    }
    if (table_[hole].slot == kNone) return;
    // Close the hole: a later entry of the run moves into it unless its
    // home bucket lies cyclically after the hole (it would become
    // unreachable from its home).
    for (std::size_t j = (hole + 1) & mask_; table_[j].slot != kNone;
         j = (j + 1) & mask_) {
      if (((j - bucket(table_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole] = Entry{};
    --size_;
  }

  // Empty the index, keeping its capacity.
  void clear() {
    std::fill(table_.begin(), table_.end(), Entry{});
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return table_.size(); }
  // The home bucket of `key` at the current capacity (which must be > 0):
  // keys with one home bucket collide.
  [[nodiscard]] std::size_t bucket(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t slot = kNone;
  };
  static constexpr std::size_t kMinCapacity = 16;

  void place(std::uint64_t key, std::uint32_t slot) {
    std::size_t i = bucket(key);
    while (table_[i].slot != kNone) i = (i + 1) & mask_;
    table_[i] = Entry{key, slot};
  }

  void grow() {
    std::vector<Entry> old(std::max(kMinCapacity, 2 * table_.size()));
    old.swap(table_);
    mask_ = table_.size() - 1;
    shift_ = 64;
    for (std::size_t c = table_.size(); c > 1; c >>= 1) --shift_;
    for (const Entry& e : old) {
      if (e.slot != kNone) place(e.key, e.slot);
    }
  }

  std::vector<Entry> table_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

// One default-constructed T per key, created on first use and never erased
// singly.  Records live in fixed-size chunks that never move, so a record's
// address is stable until clear(): a handler may hold a reference while it
// creates other records.  for_each visits records in creation order; a walk
// whose order matters sorts the keys it collects.
template <typename T>
class FlatTable {
 public:
  [[nodiscard]] T* find(std::uint64_t key) {
    const std::uint32_t slot = index_.find(key);
    return slot == FlatIndex::kNone ? nullptr : &at(slot).value;
  }
  [[nodiscard]] const T* find(std::uint64_t key) const {
    const std::uint32_t slot = index_.find(key);
    return slot == FlatIndex::kNone ? nullptr : &at(slot).value;
  }

  // The record for `key`, default-constructed if it is new.
  T& operator[](std::uint64_t key) {
    std::uint32_t slot = index_.find(key);
    if (slot == FlatIndex::kNone) {
      slot = size_++;
      if (slot / kChunk == chunks_.size()) {
        chunks_.push_back(std::make_unique<Entry[]>(kChunk));
      }
      at(slot).key = key;
      index_.insert(key, slot);
    }
    return at(slot).value;
  }

  // f(key, record) for every record, in creation order.
  template <typename F>
  void for_each(F&& f) {
    for (std::uint32_t slot = 0; slot < size_; ++slot) {
      f(at(slot).key, at(slot).value);
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    for (std::uint32_t slot = 0; slot < size_; ++slot) {
      f(at(slot).key, at(slot).value);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  void clear() {
    index_.clear();
    chunks_.clear();
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t kChunk = 128;
  struct Entry {
    std::uint64_t key = 0;
    T value{};
  };

  Entry& at(std::uint32_t slot) {
    return chunks_[slot / kChunk][slot % kChunk];
  }
  const Entry& at(std::uint32_t slot) const {
    return chunks_[slot / kChunk][slot % kChunk];
  }

  FlatIndex index_;
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::uint32_t size_ = 0;
};

}  // namespace dq
