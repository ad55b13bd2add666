// Process-wide string interning.
//
// Values, attribute names and relation names are stored as 32-bit symbols
// pointing into a global pool. This keeps Value at 16 bytes (which matters:
// the census benches materialize tens of millions of fields) and makes
// string equality O(1). Interned strings live for the process lifetime,
// mirroring how a DBMS catalog pins dictionary-encoded strings.

#ifndef MAYWSD_COMMON_INTERNER_H_
#define MAYWSD_COMMON_INTERNER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace maywsd {

/// Symbol handle returned by the interner; 0 is the empty string.
using Symbol = uint32_t;

/// Thread-safe append-only string pool. Intern serializes on a mutex;
/// Lookup and size take no lock: strings live in a fixed-capacity table of
/// fixed-size chunks that never move once allocated, and the entry count
/// is published with release/acquire ordering.
class StringInterner {
 public:
  /// Returns the process-wide interner.
  static StringInterner& Global();

  /// Interns `s`, returning a stable symbol. Idempotent. Aborts when the
  /// table's kCapacity symbols are exhausted.
  Symbol Intern(std::string_view s);

  /// Resolves a symbol; the view is valid for the process lifetime.
  std::string_view Lookup(Symbol sym) const;

  /// Number of distinct strings interned so far.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Strings per chunk, chunks in the table, and the table's fixed
  /// capacity in symbols.
  static constexpr size_t kChunkSize = 1024;
  static constexpr size_t kMaxChunks = size_t{1} << 18;
  static constexpr size_t kCapacity = kChunkSize * kMaxChunks;

 private:
  StringInterner();

  std::mutex mu_;  // serializes Intern
  std::atomic<size_t> size_{0};
  std::unordered_map<std::string_view, Symbol> index_;  // guarded by mu_
};

/// Convenience wrappers around the global interner.
inline Symbol InternString(std::string_view s) {
  return StringInterner::Global().Intern(s);
}
inline std::string_view SymbolName(Symbol sym) {
  return StringInterner::Global().Lookup(sym);
}

}  // namespace maywsd

#endif  // MAYWSD_COMMON_INTERNER_H_
