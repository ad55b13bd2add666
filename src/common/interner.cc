#include "common/interner.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace maywsd {

namespace {

/// The chunk table. A namespace-scope array of atomics is constant
/// initialized to null, so its untouched pages cost no resident memory.
/// Chunks are small fixed-size blocks: large long-lived blocks would pin
/// holes in the allocator's heap.
std::atomic<std::string*> g_chunks[StringInterner::kMaxChunks];

}  // namespace

StringInterner& StringInterner::Global() {
  static StringInterner* interner = new StringInterner();
  return *interner;
}

StringInterner::StringInterner() {
  // Symbol 0 is reserved for the empty string so that a default-constructed
  // symbol is always valid.
  Intern("");
}

Symbol StringInterner::Intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const size_t n = size_.load(std::memory_order_relaxed);
  if (n == kCapacity) {
    std::fprintf(stderr, "string interner: capacity of %zu symbols exhausted\n",
                 kCapacity);
    std::abort();
  }
  std::atomic<std::string*>& slot = g_chunks[n / kChunkSize];
  std::string* chunk = slot.load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    // Raw storage: each string is constructed when it is interned.
    chunk = static_cast<std::string*>(
        ::operator new(kChunkSize * sizeof(std::string)));
    slot.store(chunk, std::memory_order_relaxed);
  }
  // Interned strings live for the process lifetime, never destroyed.
  const std::string* str = new (chunk + n % kChunkSize) std::string(s);
  const auto sym = static_cast<Symbol>(n);
  index_.emplace(*str, sym);
  // Publishes the string (and its chunk) to lock-free readers.
  size_.store(n + 1, std::memory_order_release);
  return sym;
}

std::string_view StringInterner::Lookup(Symbol sym) const {
  // Pairs with Intern's release of size_: every string below the count,
  // and its chunk pointer, is visible.
  [[maybe_unused]] const size_t n = size_.load(std::memory_order_acquire);
  assert(sym < n);
  const std::atomic<std::string*>& slot = g_chunks[sym / kChunkSize];
  return slot.load(std::memory_order_relaxed)[sym % kChunkSize];
}

}  // namespace maywsd
