#include "automata/interner.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace ecrpq {
namespace {

// Heap footprint estimates for the LRU byte budget. Coarse on purpose (the
// budget bounds order of magnitude, not exact bytes) but monotone in the
// real allocation size.
size_t NfaCostBytes(const Nfa& nfa) {
  return static_cast<size_t>(nfa.NumStates()) * 48 +
         nfa.NumTransitions() * sizeof(Nfa::Transition);
}

uint64_t NextUniqueId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::string CanonicalNfaBytes(const Nfa& nfa) {
  std::string out;
  const uint32_t n = static_cast<uint32_t>(nfa.NumStates());
  out.reserve(16 + n * 8 + nfa.NumTransitions() * 12);
  AppendU32(&out, n);
  // Initial states, sorted + deduplicated (listing order is irrelevant to
  // the language and to every consumer).
  std::vector<StateId> init(nfa.initial());
  std::sort(init.begin(), init.end());
  init.erase(std::unique(init.begin(), init.end()), init.end());
  AppendU32(&out, static_cast<uint32_t>(init.size()));
  for (StateId s : init) AppendU32(&out, s);
  // Accepting bitset.
  for (StateId s = 0; s < n; ++s) {
    out.push_back(nfa.IsAccepting(s) ? '\1' : '\0');
  }
  // Per-state transitions, sorted by (label, to) and deduplicated — the
  // same canonical order Nfa::Normalize() produces, computed on a scratch
  // copy so serialization never mutates its argument.
  std::vector<Nfa::Transition> scratch;
  for (StateId s = 0; s < n; ++s) {
    const auto span = nfa.TransitionsFrom(s);
    scratch.assign(span.begin(), span.end());
    std::sort(scratch.begin(), scratch.end(),
              [](const Nfa::Transition& a, const Nfa::Transition& b) {
                return a.label != b.label ? a.label < b.label : a.to < b.to;
              });
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    AppendU32(&out, static_cast<uint32_t>(scratch.size()));
    for (const Nfa::Transition& t : scratch) {
      AppendU64(&out, t.label);
      AppendU32(&out, t.to);
    }
  }
  return out;
}

AutomatonInterner& AutomatonInterner::Global() {
  static AutomatonInterner* interner = new AutomatonInterner();
  return *interner;
}

InternedNfa AutomatonInterner::Intern(const Nfa& nfa,
                                      obs::MetricsShard* obs_shard) {
  std::string key = CanonicalNfaBytes(nfa);
  const size_t cost = key.size() + NfaCostBytes(nfa);
  // GetOrInsert holds the shard lock across the factory, so two threads
  // interning equal automata concurrently observe ONE unique_id — the
  // stability the reach-set memo keys depend on.
  return nfas_.GetOrInsert(
      key,
      [&] {
        auto canonical = std::make_shared<Nfa>(nfa);
        canonical->Normalize();
        return InternedNfa{std::move(canonical), NextUniqueId()};
      },
      [&](const InternedNfa&) { return cost; }, obs_shard);
}

}  // namespace ecrpq
