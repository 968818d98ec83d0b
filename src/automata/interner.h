// AutomatonInterner: cross-query canonicalization and deduplication of
// NFAs.
//
// Evaluating a server-shaped workload re-builds the same language automata
// over and over (every CRPQ reach atom materializes one, every repeated
// regex compiles one). The interner maps each NFA to one shared canonical
// instance:
//
//  - Intern(nfa) normalizes a copy (per-state transition lists sorted and
//    deduplicated — which cannot change any reach set: the product BFS
//    emits via a vertex bitset sweep, so its output is independent of
//    transition order) and keys it on an exact canonical byte
//    serialization. Equal automata — regardless of transition insertion
//    order or initial-state listing order — intern to the same
//    shared_ptr and the same process-unique `unique_id`.
//  - unique_id is never reused, so downstream memo keys (the reach-set
//    memo keys on it) cannot suffer ABA: if the interner evicts an entry
//    and later re-interns equal bytes, the new id is fresh and the stale
//    downstream entries simply miss and age out.
//
// Thread-safety: the map lives in a ShardedLruCache (annotated mutexes);
// Intern uses the atomic GetOrInsert so racing threads agree on one
// unique_id per canonical byte string.
#ifndef ECRPQ_AUTOMATA_INTERNER_H_
#define ECRPQ_AUTOMATA_INTERNER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "automata/nfa.h"
#include "common/cache.h"
#include "common/metrics.h"

namespace ecrpq {

// A canonicalized, deduplicated automaton handle. The shared_ptr keeps the
// instance alive independently of interner eviction.
struct InternedNfa {
  std::shared_ptr<const Nfa> nfa;
  uint64_t unique_id = 0;
};

// Exact canonical serialization of `nfa` up to transition-list order and
// initial-list order (the serialization sorts both): two NFAs get equal
// bytes iff they are state-by-state identical modulo those orders. Used as
// the interner key — full bytes, not a hash, so collisions cannot conflate
// distinct automata.
std::string CanonicalNfaBytes(const Nfa& nfa);

class AutomatonInterner {
 public:
  static constexpr size_t kDefaultCapacityBytes = 8u << 20;  // 8 MiB.

  explicit AutomatonInterner(size_t capacity_bytes = kDefaultCapacityBytes)
      : nfas_(capacity_bytes, /*num_shards=*/8) {}

  // The process-wide instance every engine shares.
  static AutomatonInterner& Global();

  // Canonicalizes and dedups. O(|nfa| log |nfa|) on a miss, O(|nfa|) on a
  // hit (serialization is recomputed; the win is sharing the instance and
  // the downstream memo hits its id unlocks).
  InternedNfa Intern(const Nfa& nfa, obs::MetricsShard* obs_shard = nullptr);

  // Test/bench hook: drop all entries (unique-id counter keeps running).
  void Clear() { nfas_.Clear(); }

  size_t SizeBytes() const { return nfas_.SizeBytes(); }

  ShardedLruCache<std::string, InternedNfa, BytesHash>& nfa_cache() {
    return nfas_;
  }

 private:
  ShardedLruCache<std::string, InternedNfa, BytesHash> nfas_;
};

}  // namespace ecrpq

#endif  // ECRPQ_AUTOMATA_INTERNER_H_
