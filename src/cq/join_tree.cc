#include "cq/join_tree.h"

#include <algorithm>
#include <numeric>
#include <ranges>

#include "common/check.h"
#include "structure/tree_decomposition.h"
#include "structure/treewidth.h"

namespace ecrpq {
namespace {

constexpr uint32_t kUnset = ~uint32_t{0};

// Search nodes between full budget checks (exhaustion itself is a relaxed
// flag load on every node).
constexpr size_t kBudgetStride = 4096;

bool RowLess(const uint32_t* a, const uint32_t* b, size_t width) {
  return std::lexicographical_compare(a, a + width, b, b + width);
}

// Sorts the row-major `rows` (`width` values each) lexicographically and
// drops duplicate rows.
void SortDedupRows(std::vector<uint32_t>* rows, size_t width) {
  const size_t n = rows->size() / width;
  if (n < 2) return;
  if (width == 2) {  // The common case: one binary atom per bag.
    std::vector<uint64_t> packed(n);
    for (size_t i = 0; i < n; ++i) {
      packed[i] = (uint64_t{(*rows)[2 * i]} << 32) | (*rows)[2 * i + 1];
    }
    std::sort(packed.begin(), packed.end());
    packed.erase(std::unique(packed.begin(), packed.end()), packed.end());
    rows->resize(2 * packed.size());
    for (size_t i = 0; i < packed.size(); ++i) {
      (*rows)[2 * i] = static_cast<uint32_t>(packed[i] >> 32);
      (*rows)[2 * i + 1] = static_cast<uint32_t>(packed[i]);
    }
    return;
  }
  const uint32_t* data = rows->data();
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return RowLess(data + a * width, data + b * width, width);
  });
  perm.erase(std::unique(perm.begin(), perm.end(),
                         [&](uint32_t a, uint32_t b) {
                           return std::equal(data + a * width,
                                             data + (a + 1) * width,
                                             data + b * width);
                         }),
             perm.end());
  std::vector<uint32_t> sorted;
  sorted.reserve(perm.size() * width);
  for (uint32_t r : perm) {
    sorted.insert(sorted.end(), data + r * width, data + (r + 1) * width);
  }
  *rows = std::move(sorted);
}

// In-place backtracking over one bag's atoms, appending each satisfying
// assignment of the bag's variables to bag->rows.
class BagSearch {
 public:
  BagSearch(const RelationalDb& db, const CqQuery& query,
            const CqEvalOptions& options, JoinBag* bag)
      : db_(db),
        options_(options),
        bag_(bag),
        assignment_(query.num_vars, kUnset) {
    std::vector<bool> bound(query.num_vars, false);
    for (size_t a : OrderAtoms(db, query, bag->atoms)) {
      const CqAtom& atom = query.atoms[a];
      Step& step = steps_.emplace_back();
      step.rel = db.Find(atom.relation);
      step.vars = &atom.vars;
      bool prefix = true;
      for (size_t i = 0; i < atom.vars.size(); ++i) {
        const CqVarId v = atom.vars[i];
        if (bound[v]) {
          step.mask |= uint32_t{1} << i;
          step.key_pos.push_back(static_cast<int>(i));
          prefix = prefix && step.key_pos.size() == i + 1;
          continue;
        }
        // A repeat of a variable this atom binds must equal its first
        // position.
        size_t first = i;
        for (size_t j = 0; j < i; ++j) {
          if (atom.vars[j] == v) {
            first = j;
            break;
          }
        }
        if (first == i) {
          step.bind_pos.push_back(static_cast<int>(i));
        } else {
          step.same.push_back({static_cast<int>(i), static_cast<int>(first)});
        }
      }
      for (int i : step.bind_pos) bound[atom.vars[i]] = true;
      step.prefix = prefix;
      step.key.resize(step.key_pos.size());
    }
    // Bag variables no atom binds range over the domain; a variable of the
    // query that no atom of this bag covers needs a non-empty domain.
    for (int v : bag->vars) {
      if (!bound[v]) uncovered_.push_back(static_cast<CqVarId>(v));
    }
    empty_domain_ = db.domain_size() == 0 &&
                    std::find(bound.begin(), bound.end(), false) != bound.end();
  }

  // Fills bag->rows (unsorted, possibly with duplicates). Returns true when
  // max_steps or a tripped budget stopped the search early.
  bool Run(obs::MetricsShard* shard) {
    if (!empty_domain_) Search(0);
    obs::Add(shard, obs::CounterId::kAssignmentsTried, num_steps_);
    return stopped_;
  }

 private:
  struct Step {
    const Relation* rel = nullptr;
    const std::vector<CqVarId>* vars = nullptr;
    uint32_t mask = 0;          // Positions bound by earlier atoms.
    std::vector<int> key_pos;   // The positions in `mask`, ascending.
    bool prefix = false;        // key_pos is 0..k-1: rows form a range.
    std::vector<int> bind_pos;  // First positions of newly bound vars.
    std::vector<std::pair<int, int>> same;  // (repeat, first) positions.
    std::vector<uint32_t> key;
  };

  void Search(size_t depth) {
    if (stopped_) return;
    if (options_.max_steps != 0 && num_steps_ >= options_.max_steps) {
      stopped_ = true;
      return;
    }
    obs::Session* obs = options_.obs;
    if (obs != nullptr &&
        (obs->Exhausted() ||
         ((++budget_tick_ & (kBudgetStride - 1)) == 0 && obs->CheckBudget()))) {
      stopped_ = true;
      return;
    }
    if (depth == steps_.size()) {
      Emit(0);
      return;
    }
    Step& step = steps_[depth];
    for (size_t i = 0; i < step.key_pos.size(); ++i) {
      step.key[i] = assignment_[(*step.vars)[step.key_pos[i]]];
    }
    auto try_row = [&](uint32_t row) {
      ++num_steps_;
      if (options_.max_steps != 0 && num_steps_ >= options_.max_steps) {
        stopped_ = true;
        return;
      }
      const std::span<const uint32_t> tuple = step.rel->Tuple(row);
      for (const auto& [repeat, first] : step.same) {
        if (tuple[repeat] != tuple[first]) return;
      }
      for (int i : step.bind_pos) assignment_[(*step.vars)[i]] = tuple[i];
      Search(depth + 1);
    };
    if (step.prefix) {
      const auto [first, last] = step.rel->PrefixRange(step.key);
      for (size_t row = first; row < last && !stopped_; ++row) {
        try_row(static_cast<uint32_t>(row));
      }
    } else {
      for (const uint32_t row : step.rel->Matches(step.mask, step.key)) {
        try_row(row);
        if (stopped_) break;
      }
    }
  }

  void Emit(size_t uncovered_idx) {
    if (uncovered_idx == uncovered_.size()) {
      for (int v : bag_->vars) bag_->rows.push_back(assignment_[v]);
      return;
    }
    const CqVarId v = uncovered_[uncovered_idx];
    for (uint32_t value = 0; value < db_.domain_size(); ++value) {
      assignment_[v] = value;
      Emit(uncovered_idx + 1);
    }
  }

  const RelationalDb& db_;
  const CqEvalOptions& options_;
  JoinBag* bag_;
  std::vector<Step> steps_;
  std::vector<CqVarId> uncovered_;
  std::vector<uint32_t> assignment_;
  bool empty_domain_ = false;
  bool stopped_ = false;
  size_t num_steps_ = 0;
  size_t budget_tick_ = 0;
};

// Sorts the bag's row ids stably by separator projection (sep_order) and
// stores the projections in that order (sep_keys).
void IndexBySeparator(JoinBag* bag) {
  const size_t k = bag->sep_pos.size();
  const size_t n = bag->NumRows();
  std::vector<uint32_t> keys(n * k);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t* row = bag->Row(i);
    for (size_t j = 0; j < k; ++j) keys[i * k + j] = row[bag->sep_pos[j]];
  }
  bag->sep_order.resize(n);
  std::iota(bag->sep_order.begin(), bag->sep_order.end(), 0);
  // Rows are sorted, so a separator that is a prefix of the bag's
  // variables is already in order.
  bool prefix = true;
  for (size_t j = 0; j < k; ++j) prefix = prefix && bag->sep_pos[j] == static_cast<int>(j);
  if (prefix) {
    bag->sep_keys = std::move(keys);
    return;
  }
  std::stable_sort(bag->sep_order.begin(), bag->sep_order.end(),
                   [&](uint32_t a, uint32_t b) {
                     return RowLess(keys.data() + a * k, keys.data() + b * k, k);
                   });
  bag->sep_keys.resize(n * k);
  for (size_t i = 0; i < n; ++i) {
    std::copy_n(keys.data() + bag->sep_order[i] * k, k,
                bag->sep_keys.data() + i * k);
  }
}

}  // namespace

std::pair<size_t, size_t> JoinBag::Matching(const uint32_t* key) const {
  const size_t k = sep_pos.size();
  const auto ids = std::views::iota(size_t{0}, sep_order.size());
  const auto range = std::ranges::equal_range(
      ids, key,
      [k](const uint32_t* a, const uint32_t* b) { return RowLess(a, b, k); },
      [&](size_t i) { return sep_keys.data() + i * k; });
  return {range.begin() - ids.begin(), range.end() - ids.begin()};
}

Result<JoinTree> BuildJoinTree(const CqQuery& query) {
  ECRPQ_CHECK_GT(query.num_vars, 0);
  const SimpleGraph gaifman = query.GaifmanGraph();
  const TreewidthResult tw = TreewidthBest(gaifman);
  const TreeDecomposition td =
      DecompositionFromEliminationOrder(gaifman, tw.elimination_order);
  const int num_bags = static_cast<int>(td.bags.size());

  // Root at bag 0; children in the rooting DFS's discovery order.
  std::vector<std::vector<int>> adj(num_bags);
  for (const auto& [a, b] : td.edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<std::vector<int>> children(num_bags);
  {
    std::vector<int> stack{0};
    std::vector<bool> seen(num_bags, false);
    seen[0] = true;
    while (!stack.empty()) {
      const int b = stack.back();
      stack.pop_back();
      for (int nb : adj[b]) {
        if (!seen[nb]) {
          seen[nb] = true;
          children[b].push_back(nb);
          stack.push_back(nb);
        }
      }
    }
  }

  // Every atom's variable set is a clique of the Gaifman graph, hence
  // inside some bag.
  std::vector<std::vector<size_t>> atoms_of_bag(num_bags);
  for (size_t a = 0; a < query.atoms.size(); ++a) {
    std::vector<int> avars(query.atoms[a].vars.begin(),
                           query.atoms[a].vars.end());
    std::sort(avars.begin(), avars.end());
    avars.erase(std::unique(avars.begin(), avars.end()), avars.end());
    int home = -1;
    for (int b = 0; b < num_bags && home < 0; ++b) {
      if (std::includes(td.bags[b].begin(), td.bags[b].end(), avars.begin(),
                        avars.end())) {
        home = b;
      }
    }
    if (home < 0) {
      return Status::Internal(
          "atom not contained in any bag — invalid tree decomposition");
    }
    atoms_of_bag[home].push_back(a);
  }

  // Appends `c` to `out` as a child of `p`, or, when it is contracted, its
  // own children in its place.
  auto splice = [&](auto&& self, int c, int p, std::vector<int>* out) -> void {
    if (atoms_of_bag[c].empty() &&
        std::includes(td.bags[p].begin(), td.bags[p].end(),
                      td.bags[c].begin(), td.bags[c].end())) {
      for (int gc : children[c]) self(self, gc, p, out);
    } else {
      out->push_back(c);
    }
  };

  // Renumber the kept bags in the walk's pre-order: a stack DFS that pushes
  // children in list order.
  JoinTree tree;
  tree.width = td.Width();
  std::vector<std::pair<int, int>> stack{{0, -1}};  // (bag, new parent).
  while (!stack.empty()) {
    const auto [b, parent] = stack.back();
    stack.pop_back();
    const int index = static_cast<int>(tree.bags.size());
    JoinBag& bag = tree.bags.emplace_back();
    bag.vars = td.bags[b];
    bag.atoms = std::move(atoms_of_bag[b]);
    bag.parent = parent;
    if (parent >= 0) {
      const std::vector<int>& pvars = tree.bags[parent].vars;
      for (size_t i = 0, j = 0; i < bag.vars.size() && j < pvars.size();) {
        if (bag.vars[i] < pvars[j]) {
          ++i;
        } else if (pvars[j] < bag.vars[i]) {
          ++j;
        } else {
          bag.sep_pos.push_back(static_cast<int>(i++));
          bag.parent_sep_pos.push_back(static_cast<int>(j++));
        }
      }
    }
    std::vector<int> kept;
    for (int c : children[b]) splice(splice, c, b, &kept);
    for (int c : kept) stack.push_back({c, index});
  }
  return tree;
}

Result<bool> MaterializeBags(const RelationalDb& db, const CqQuery& query,
                             const CqEvalOptions& options,
                             obs::MetricsShard* shard, JoinTree* tree,
                             size_t* bag_tuples) {
  for (JoinBag& bag : tree->bags) {
    obs::ScopedTimer bag_timer(shard,
                               obs::HistogramId::kPhaseBagMaterializeNs);
    obs::Record(shard, obs::HistogramId::kBagWidth, bag.vars.size());
    const bool stopped = BagSearch(db, query, options, &bag).Run(shard);
    if (options.obs != nullptr && options.obs->CheckBudget()) {
      return options.obs->ExhaustedStatus();
    }
    if (stopped) return true;
    SortDedupRows(&bag.rows, bag.vars.size());
    obs::Add(shard, obs::CounterId::kBagTuplesMaterialized, bag.NumRows());
    if (bag_tuples != nullptr) *bag_tuples += bag.NumRows();
  }
  return false;
}

void SemijoinUp(JoinTree* tree) {
  std::vector<uint32_t> key;
  for (size_t b = tree->bags.size(); b-- > 1;) {
    JoinBag& bag = tree->bags[b];
    IndexBySeparator(&bag);
    JoinBag& parent = tree->bags[bag.parent];
    const size_t width = parent.vars.size();
    const size_t n = parent.NumRows();
    key.resize(bag.parent_sep_pos.size());
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t* row = parent.Row(i);
      for (size_t j = 0; j < key.size(); ++j) {
        key[j] = row[bag.parent_sep_pos[j]];
      }
      const auto [first, last] = bag.Matching(key.data());
      if (first == last) continue;
      if (kept != i) {
        std::copy_n(row, width, parent.rows.begin() + kept * width);
      }
      ++kept;
    }
    parent.rows.resize(kept * width);
  }
}

}  // namespace ecrpq
