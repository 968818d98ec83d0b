// Relation: a set of fixed-arity tuples over uint32 values (vertex ids),
// with lazily-built hash indexes per bound-position pattern.
#ifndef ECRPQ_CQ_RELATION_H_
#define ECRPQ_CQ_RELATION_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"

namespace ecrpq {

class Relation {
 public:
  Relation(std::string name, int arity)
      : name_(std::move(name)), arity_(arity) {
    ECRPQ_CHECK_GT(arity_, 0);
  }

  const std::string& name() const { return name_; }
  int arity() const { return arity_; }
  size_t NumTuples() const { return data_.size() / arity_; }

  void Add(std::span<const uint32_t> tuple);

  // Sorts and deduplicates (rows added in strictly increasing order are
  // kept as they are, without a sort or a copy). Must be called before
  // queries; adding after finalization is an error.
  void Finalize();
  bool finalized() const { return finalized_; }

  std::span<const uint32_t> Tuple(size_t row) const {
    return {data_.data() + row * arity_, static_cast<size_t>(arity_)};
  }

  bool Contains(std::span<const uint32_t> tuple) const;

  // Rows whose first prefix.size() values equal `prefix`, as the row range
  // [first, last): finalized rows are sorted, so they are contiguous.
  std::pair<size_t, size_t> PrefixRange(
      std::span<const uint32_t> prefix) const;

  // Rows whose values at the positions in `mask` (bit i = position i bound)
  // equal `key` (the bound values, in position order). Builds and caches an
  // index per distinct mask.
  const std::vector<uint32_t>& Matches(uint32_t mask,
                                       const std::vector<uint32_t>& key) const;

  // Storage invariants (fires ECRPQ_CHECK on violation, any build mode):
  // positive arity, data a whole number of rows, and — once finalized —
  // rows sorted lexicographically and deduplicated. Finalize() re-asserts
  // this via ECRPQ_DCHECK_INVARIANT.
  void CheckInvariants() const;

 private:
  using Index =
      std::unordered_map<std::vector<uint32_t>, std::vector<uint32_t>,
                         VectorHash<uint32_t>>;
  const Index& IndexFor(uint32_t mask) const;

  std::string name_;
  int arity_;
  std::vector<uint32_t> data_;  // Row-major.
  bool finalized_ = false;
  mutable std::unordered_map<uint32_t, Index> indexes_;
  static const std::vector<uint32_t> kNoRows;
};

}  // namespace ecrpq

#endif  // ECRPQ_CQ_RELATION_H_
