// Golden answers for the tree-decomposition CQ evaluator and the counting
// DP: seeded CQs of treewidth 1-3 with the answer lists under max_answers
// 0, 1 and 16 pinned as (satisfiable, size, FNV-1a hash) triples, so any
// change to the join keeps the first-k answers byte for byte. The shapes
// cover repeated variables inside an atom, free variables no atom
// mentions, an empty relation and Boolean queries. The semantics cases pin
// what the bag materialization promises callers: a max_steps cutoff inside
// a bag is OK-and-aborted, a tripped session budget inside a bag is
// ResourceExhausted at the same poll position, and assignments_tried
// counts one matched row per step.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/obs.h"
#include "common/rng.h"
#include "cq/count.h"
#include "cq/eval_backtrack.h"
#include "cq/eval_treedec.h"

namespace ecrpq {
namespace {

using obs::CounterId;

constexpr uint32_t kDomain = 6;

void AddRandomTuples(Relation* rel, Rng& rng, int count) {
  std::vector<uint32_t> tuple(rel->arity());
  for (int i = 0; i < count; ++i) {
    for (uint32_t& value : tuple) {
      value = static_cast<uint32_t>(rng.Below(kDomain));
    }
    rel->Add(tuple);
  }
}

// E and F binary, T ternary, U unary, Z binary and empty.
RelationalDb GoldenDb(uint64_t seed) {
  Rng rng(seed);
  RelationalDb db(kDomain);
  AddRandomTuples(*db.AddRelation("E", 2), rng, 20);
  AddRandomTuples(*db.AddRelation("F", 2), rng, 18);
  AddRandomTuples(*db.AddRelation("T", 3), rng, 60);
  AddRandomTuples(*db.AddRelation("U", 1), rng, 4);
  (void)*db.AddRelation("Z", 2);
  db.FinalizeAll();
  return db;
}

CqQuery MakeQuery(int num_vars, std::vector<CqVarId> free_vars,
                  std::vector<CqAtom> atoms) {
  CqQuery q;
  q.num_vars = num_vars;
  q.free_vars = std::move(free_vars);
  q.atoms = std::move(atoms);
  return q;
}

// Random CQ over E/F/T/U whose atoms may repeat a variable.
CqQuery RandomQuery(uint64_t seed) {
  Rng rng(seed);
  const int num_vars = 3 + static_cast<int>(rng.Below(4));
  const int num_atoms = 3 + static_cast<int>(rng.Below(5));
  CqQuery q;
  q.num_vars = num_vars;
  auto var = [&] { return static_cast<CqVarId>(rng.Below(num_vars)); };
  for (int a = 0; a < num_atoms; ++a) {
    switch (rng.Below(5)) {
      case 0:
        q.atoms.push_back({"T", {var(), var(), var()}});
        break;
      case 1:
        q.atoms.push_back({"U", {var()}});
        break;
      case 2:
        q.atoms.push_back({"F", {var(), var()}});
        break;
      default:
        q.atoms.push_back({"E", {var(), var()}});
        break;
    }
  }
  for (int v = 0; v < num_vars; ++v) {
    if (rng.Chance(0.4)) q.free_vars.push_back(static_cast<CqVarId>(v));
  }
  return q;
}

struct GoldenCase {
  std::string name;
  uint64_t db_seed;
  CqQuery query;
};

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases = {
      // Treewidth 1.
      {"path", 1,
       MakeQuery(4, {0, 3}, {{"E", {0, 1}}, {"F", {1, 2}}, {"E", {2, 3}}})},
      {"star_repeated_var", 2,
       MakeQuery(3, {1, 2},
                 {{"E", {0, 0}}, {"F", {0, 1}}, {"E", {0, 2}}, {"U", {2}}})},
      {"uncovered_free", 3,
       MakeQuery(4, {0, 3}, {{"E", {0, 1}}, {"F", {1, 2}}})},
      {"boolean_path", 4, MakeQuery(3, {}, {{"E", {0, 1}}, {"E", {1, 2}}})},
      {"single_atom", 5, MakeQuery(2, {0, 1}, {{"E", {0, 1}}})},
      // Treewidth 2.
      {"four_cycle", 6,
       MakeQuery(4, {0, 2},
                 {{"E", {0, 1}}, {"F", {1, 2}}, {"E", {2, 3}}, {"F", {3, 0}}})},
      {"ternary_cycle", 7,
       MakeQuery(4, {1, 3}, {{"T", {0, 1, 2}}, {"E", {2, 3}}, {"F", {3, 0}}})},
      {"empty_relation", 8,
       MakeQuery(3, {0}, {{"E", {0, 1}}, {"Z", {1, 2}}, {"E", {2, 0}}})},
      {"boolean_cycle", 9,
       MakeQuery(3, {}, {{"E", {0, 1}}, {"E", {1, 2}}, {"F", {2, 0}}})},
      // Treewidth 3.
      {"k4", 10,
       MakeQuery(4, {0, 1, 2, 3},
                 {{"E", {0, 1}},
                  {"F", {0, 2}},
                  {"E", {0, 3}},
                  {"F", {1, 2}},
                  {"E", {1, 3}},
                  {"E", {2, 3}}})},
      {"k4_projected_uncovered", 11,
       MakeQuery(5, {0, 4},
                 {{"T", {0, 1, 2}},
                  {"T", {1, 2, 3}},
                  {"E", {0, 3}},
                  {"F", {3, 3}}})},
  };
  for (uint64_t seed = 0; seed < 12; ++seed) {
    cases.push_back(
        {"random" + std::to_string(seed), 100 + seed, RandomQuery(seed)});
  }
  return cases;
}

uint64_t Fnv1a(const std::vector<std::vector<uint32_t>>& answers) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](uint64_t word) {
    for (int i = 0; i < 4; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& answer : answers) {
    mix(answer.size());
    for (uint32_t value : answer) mix(value);
  }
  return h;
}

struct GoldenAnswers {
  const char* name;
  size_t max_answers;
  bool satisfiable;
  size_t num_answers;
  uint64_t hash;
};

// Recorded from the per-bag backtracking implementation.
constexpr GoldenAnswers kGoldenAnswers[] = {
    {"path", 0, true, 28, 2852014155220464533ULL},
    {"path", 1, true, 1, 16140506344574816948ULL},
    {"path", 16, true, 16, 9184406064344188354ULL},
    {"star_repeated_var", 0, true, 11, 15540359454556985392ULL},
    {"star_repeated_var", 1, true, 1, 148160182625354209ULL},
    {"star_repeated_var", 16, true, 11, 15540359454556985392ULL},
    {"uncovered_free", 0, true, 36, 3277402124415253845ULL},
    {"uncovered_free", 1, true, 1, 11819931339023475538ULL},
    {"uncovered_free", 16, true, 16, 17865731458086142133ULL},
    {"boolean_path", 0, true, 1, 5558979605539197941ULL},
    {"boolean_path", 1, true, 1, 5558979605539197941ULL},
    {"boolean_path", 16, true, 1, 5558979605539197941ULL},
    {"single_atom", 0, true, 17, 1840213606138291446ULL},
    {"single_atom", 1, true, 1, 6845106403528122436ULL},
    {"single_atom", 16, true, 16, 6244943982942744964ULL},
    {"four_cycle", 0, true, 19, 5759454207875260471ULL},
    {"four_cycle", 1, true, 1, 4534764300151870967ULL},
    {"four_cycle", 16, true, 16, 9814139841228697873ULL},
    {"ternary_cycle", 0, true, 29, 16335200461283482754ULL},
    {"ternary_cycle", 1, true, 1, 4534764300151870967ULL},
    {"ternary_cycle", 16, true, 16, 1675962819036189798ULL},
    {"empty_relation", 0, false, 0, 14695981039346656037ULL},
    {"empty_relation", 1, false, 0, 14695981039346656037ULL},
    {"empty_relation", 16, false, 0, 14695981039346656037ULL},
    {"boolean_cycle", 0, true, 1, 5558979605539197941ULL},
    {"boolean_cycle", 1, true, 1, 5558979605539197941ULL},
    {"boolean_cycle", 16, true, 1, 5558979605539197941ULL},
    {"k4", 0, true, 24, 7733838098614080499ULL},
    {"k4", 1, true, 1, 12255239438544608786ULL},
    {"k4", 16, true, 16, 10800976094419961139ULL},
    {"k4_projected_uncovered", 0, true, 12, 15856321276773584629ULL},
    {"k4_projected_uncovered", 1, true, 1, 4534764300151870967ULL},
    {"k4_projected_uncovered", 16, true, 12, 15856321276773584629ULL},
    {"random0", 0, true, 6, 2595504335541571508ULL},
    {"random0", 1, true, 1, 9929646806074584996ULL},
    {"random0", 16, true, 6, 2595504335541571508ULL},
    {"random1", 0, true, 1, 712273561436552544ULL},
    {"random1", 1, true, 1, 712273561436552544ULL},
    {"random1", 16, true, 1, 712273561436552544ULL},
    {"random2", 0, true, 2, 11636709982804927857ULL},
    {"random2", 1, true, 1, 2302448893184281558ULL},
    {"random2", 16, true, 2, 11636709982804927857ULL},
    {"random3", 0, true, 8, 5744704992581854181ULL},
    {"random3", 1, true, 1, 5808542038796015731ULL},
    {"random3", 16, true, 8, 5744704992581854181ULL},
    {"random4", 0, true, 36, 12275784388651329091ULL},
    {"random4", 1, true, 1, 8725912880258948631ULL},
    {"random4", 16, true, 16, 12805823094508073123ULL},
    {"random5", 0, true, 1, 5558979605539197941ULL},
    {"random5", 1, true, 1, 5558979605539197941ULL},
    {"random5", 16, true, 1, 5558979605539197941ULL},
    {"random6", 0, true, 3, 17346629349811265637ULL},
    {"random6", 1, true, 1, 4534764300151870967ULL},
    {"random6", 16, true, 3, 17346629349811265637ULL},
    {"random7", 0, false, 0, 14695981039346656037ULL},
    {"random7", 1, false, 0, 14695981039346656037ULL},
    {"random7", 16, false, 0, 14695981039346656037ULL},
    {"random8", 0, true, 1, 5558979605539197941ULL},
    {"random8", 1, true, 1, 5558979605539197941ULL},
    {"random8", 16, true, 1, 5558979605539197941ULL},
    {"random9", 0, true, 6, 2595504335541571508ULL},
    {"random9", 1, true, 1, 9929646806074584996ULL},
    {"random9", 16, true, 6, 2595504335541571508ULL},
    {"random10", 0, true, 32, 15693712254863357604ULL},
    {"random10", 1, true, 1, 6205485856523684406ULL},
    {"random10", 16, true, 16, 817723697280407683ULL},
    {"random11", 0, true, 3, 1429127469972314999ULL},
    {"random11", 1, true, 1, 9929646806074584996ULL},
    {"random11", 16, true, 3, 1429127469972314999ULL},
};

struct GoldenCount {
  const char* name;
  int width;
  uint64_t count;
};

constexpr GoldenCount kGoldenCounts[] = {
    {"path", 1, 95ULL},
    {"star_repeated_var", 1, 13ULL},
    {"uncovered_free", 1, 216ULL},
    {"boolean_path", 1, 33ULL},
    {"single_atom", 1, 17ULL},
    {"four_cycle", 2, 35ULL},
    {"ternary_cycle", 2, 49ULL},
    {"empty_relation", 2, 0ULL},
    {"boolean_cycle", 2, 10ULL},
    {"k4", 3, 24ULL},
    {"k4_projected_uncovered", 3, 24ULL},
    {"random0", 1, 6ULL},
    {"random1", 1, 12ULL},
    {"random2", 2, 4ULL},
    {"random3", 1, 8ULL},
    {"random4", 1, 108ULL},
    {"random5", 2, 3ULL},
    {"random6", 1, 5ULL},
    {"random7", 2, 0ULL},
    {"random8", 2, 3ULL},
    {"random9", 1, 126ULL},
    {"random10", 1, 504ULL},
    {"random11", 1, 10ULL},
};

TEST(CqTreeDecGoldenTest, AnswersMatchGoldens) {
  for (const GoldenCase& c : GoldenCases()) {
    const RelationalDb db = GoldenDb(c.db_seed);
    for (size_t max_answers : {size_t{0}, size_t{1}, size_t{16}}) {
      CqEvalOptions options;
      options.max_answers = max_answers;
      Result<CqEvalResult> r = CqEvaluateTreeDec(db, c.query, options);
      ASSERT_TRUE(r.ok()) << c.name << ": " << r.status();
      EXPECT_FALSE(r->aborted) << c.name;
      const GoldenAnswers* golden = nullptr;
      for (const GoldenAnswers& g : kGoldenAnswers) {
        if (c.name == g.name && g.max_answers == max_answers) golden = &g;
      }
      const uint64_t hash = Fnv1a(r->answers);
      const std::string actual =
          "{\"" + c.name + "\", " + std::to_string(max_answers) + ", " +
          (r->satisfiable ? "true" : "false") + ", " +
          std::to_string(r->answers.size()) + ", " + std::to_string(hash) +
          "ULL},";
      if (golden == nullptr) {
        ADD_FAILURE() << "no golden; actual: " << actual;
        continue;
      }
      EXPECT_EQ(golden->satisfiable, r->satisfiable) << actual;
      EXPECT_EQ(golden->num_answers, r->answers.size()) << actual;
      EXPECT_EQ(golden->hash, hash) << actual;
    }
  }
}

TEST(CqTreeDecGoldenTest, AnswersAgreeWithBacktracking) {
  for (const GoldenCase& c : GoldenCases()) {
    const RelationalDb db = GoldenDb(c.db_seed);
    Result<CqEvalResult> bt = CqEvaluateBacktracking(db, c.query);
    Result<CqEvalResult> td = CqEvaluateTreeDec(db, c.query);
    ASSERT_TRUE(bt.ok() && td.ok()) << c.name;
    EXPECT_EQ(bt->satisfiable, td->satisfiable) << c.name;
    EXPECT_EQ(bt->answers, td->answers) << c.name;
  }
}

TEST(CqTreeDecGoldenTest, CountsMatchGoldensAndBruteForce) {
  for (const GoldenCase& c : GoldenCases()) {
    const RelationalDb db = GoldenDb(c.db_seed);
    TreeDecEvalStats stats;
    ASSERT_TRUE(CqEvaluateTreeDec(db, c.query, {}, &stats).ok());
    Result<uint64_t> count = CountAssignments(db, c.query);
    ASSERT_TRUE(count.ok()) << c.name << ": " << count.status();
    Result<uint64_t> brute = CountAssignmentsBrute(db, c.query);
    ASSERT_TRUE(brute.ok());
    EXPECT_EQ(*count, *brute) << c.name;
    const GoldenCount* golden = nullptr;
    for (const GoldenCount& g : kGoldenCounts) {
      if (c.name == g.name) golden = &g;
    }
    const std::string actual = "{\"" + c.name + "\", " +
                               std::to_string(stats.width_used) + ", " +
                               std::to_string(*count) + "ULL},";
    if (golden == nullptr) {
      ADD_FAILURE() << "no golden; actual: " << actual;
      continue;
    }
    EXPECT_EQ(golden->width, stats.width_used) << actual;
    EXPECT_EQ(golden->count, *count) << actual;
  }
}

TEST(CqTreeDecGoldenTest, GoldensSpanTreewidthOneToThree) {
  bool seen[4] = {false, false, false, false};
  for (const GoldenCount& g : kGoldenCounts) {
    ASSERT_GE(g.width, 0);
    ASSERT_LE(g.width, 3);
    seen[g.width] = true;
  }
  EXPECT_TRUE(seen[1] && seen[2] && seen[3]);
}

// A complete binary relation over `n` values: one bag, n*n matched rows.
RelationalDb CompleteDb(uint32_t n) {
  RelationalDb db(n);
  Relation* rel = *db.AddRelation("K", 2);
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = 0; b < n; ++b) rel->Add(std::vector<uint32_t>{a, b});
  }
  db.FinalizeAll();
  return db;
}

TEST(CqTreeDecSemanticsTest, MaxStepsInsideABagIsOkAndAborted) {
  const RelationalDb db = CompleteDb(10);
  const CqQuery q = MakeQuery(3, {0, 2}, {{"K", {0, 1}}, {"K", {1, 2}}});
  CqEvalOptions options;
  options.max_steps = 50;
  obs::Session session;
  options.obs = &session;
  Result<CqEvalResult> r = CqEvaluateTreeDec(db, q, options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->aborted);
  EXPECT_FALSE(r->satisfiable);
  EXPECT_TRUE(r->answers.empty());
  // The cutoff counts the row that reaches the limit, then stops.
  EXPECT_EQ(session.Report()[CounterId::kAssignmentsTried], 50u);
}

TEST(CqTreeDecSemanticsTest, BudgetTripInsideBagMaterializationIsExhausted) {
  // 100 x 100 rows in the first bag: the 4,096-node budget poll fires
  // inside its materialization.
  const RelationalDb db = CompleteDb(100);
  const CqQuery q = MakeQuery(2, {0, 1}, {{"K", {0, 1}}});
  obs::Session session;
  obs::EvalBudget budget;
  budget.max_product_states = 1;
  session.SetBudget(budget);
  // Product states an earlier phase already spent push the session past
  // its cap; only a poll notices.
  obs::Add(session.metrics().AcquireShard(),
           CounterId::kProductStatesExpanded, 2);
  CqEvalOptions options;
  options.obs = &session;
  Result<CqEvalResult> r = CqEvaluateTreeDec(db, q, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status();
  // Node 1 is the bag's root; node k+1 follows matched row k, so the
  // 4,096th node (the first poll) comes after row 4,095.
  EXPECT_EQ(session.Report()[CounterId::kAssignmentsTried], 4095u);
}

TEST(CqTreeDecSemanticsTest, TimeoutInsideBagMaterializationIsExhausted) {
  const RelationalDb db = CompleteDb(100);
  const CqQuery q = MakeQuery(2, {0, 1}, {{"K", {0, 1}}});
  obs::Session session;
  obs::EvalBudget budget;
  budget.timeout_millis = 1;
  session.SetBudget(budget);
  // Let the deadline pass before the join starts.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  while (std::chrono::steady_clock::now() < until) {
  }
  CqEvalOptions options;
  options.obs = &session;
  Result<CqEvalResult> r = CqEvaluateTreeDec(db, q, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status();
}

TEST(CqTreeDecSemanticsTest, AssignmentsTriedMatchesPinnedCount) {
  const GoldenCase k4 = GoldenCases()[9];
  ASSERT_EQ(k4.name, "k4");
  const RelationalDb db = GoldenDb(k4.db_seed);
  obs::Session session;
  CqEvalOptions options;
  options.obs = &session;
  ASSERT_TRUE(CqEvaluateTreeDec(db, k4.query, options).ok());
  // Recorded from the per-bag backtracking implementation: one step per
  // matched relation row, summed over the bags.
  EXPECT_EQ(session.Report()[CounterId::kAssignmentsTried], 227u);
}

}  // namespace
}  // namespace ecrpq
