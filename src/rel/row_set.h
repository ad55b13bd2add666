// RowSet: an open-addressing hash set over rows of a Relation.
//
// Keys are row contents under TupleRef::Hash and Value equality, so 1 and
// 1.0 are one key and distinct doubles never collide the way their printed
// forms can. The set stores row numbers only; no key is copied out of the
// relation.

#ifndef MAYWSD_REL_ROW_SET_H_
#define MAYWSD_REL_ROW_SET_H_

#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rel/relation.h"

namespace maywsd::rel {

/// Set of rows of `rows`, probed by content. Only rows added through
/// Insert are members; rows the caller appends to the relation directly
/// are not indexed.
class RowSet {
 public:
  explicit RowSet(Relation& rows) : rows_(rows) { Rehash(16); }

  /// Number of member rows.
  size_t size() const { return entries_.size(); }

  /// Row number of the member equal to `tuple` and false; when there is
  /// none, appends `tuple` to the relation as a new member and returns its
  /// row number and true.
  std::pair<uint32_t, bool> Insert(std::span<const Value> tuple) {
    if (2 * (size() + 1) > slots_.size()) Rehash(2 * slots_.size());
    TupleRef probe(tuple.data(), tuple.size());
    size_t h = probe.Hash();
    for (size_t i = Slot(h);; i = (i + 1) & (slots_.size() - 1)) {
      uint32_t e = slots_[i];
      if (e == kEmpty) {
        auto row = static_cast<uint32_t>(rows_.NumRows());
        slots_[i] = static_cast<uint32_t>(size());
        entries_.push_back({h, row});
        rows_.AppendRow(tuple);
        return {row, true};
      }
      if (entries_[e].hash == h && rows_.row(entries_[e].row) == probe) {
        return {entries_[e].row, false};
      }
    }
  }

  /// True when a member equals `tuple`.
  bool Contains(std::span<const Value> tuple) const {
    TupleRef probe(tuple.data(), tuple.size());
    size_t h = probe.Hash();
    for (size_t i = Slot(h);; i = (i + 1) & (slots_.size() - 1)) {
      uint32_t e = slots_[i];
      if (e == kEmpty) return false;
      if (entries_[e].hash == h && rows_.row(entries_[e].row) == probe) {
        return true;
      }
    }
  }

 private:
  static constexpr uint32_t kEmpty = ~uint32_t{0};

  struct Entry {
    size_t hash;
    uint32_t row;
  };

  /// Fibonacci hashing: the top bits of h · 2⁶⁴/φ pick the slot.
  size_t Slot(uint64_t h) const {
    return (h * 0x9e3779b97f4a7c15ULL) >> shift_;
  }

  void Rehash(size_t capacity) {
    slots_.assign(capacity, kEmpty);
    shift_ = 64 - std::countr_zero(capacity);
    for (uint32_t e = 0; e < size(); ++e) {
      size_t i = Slot(entries_[e].hash);
      while (slots_[i] != kEmpty) i = (i + 1) & (capacity - 1);
      slots_[i] = e;
    }
  }

  Relation& rows_;
  std::vector<uint32_t> slots_;  ///< index into entries_, or kEmpty
  std::vector<Entry> entries_;
  int shift_ = 0;
};

}  // namespace maywsd::rel

#endif  // MAYWSD_REL_ROW_SET_H_
