#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cq/relational_db.h"

namespace ecrpq {
namespace {

TEST(RelationTest, AddFinalizeDedupe) {
  Relation r("R", 2);
  const uint32_t t1[2] = {1, 2};
  const uint32_t t2[2] = {3, 4};
  r.Add(t1);
  r.Add(t2);
  r.Add(t1);  // Duplicate.
  r.Finalize();
  EXPECT_EQ(r.NumTuples(), 2u);
  EXPECT_TRUE(r.Contains(t1));
  EXPECT_TRUE(r.Contains(t2));
  const uint32_t t3[2] = {1, 3};
  EXPECT_FALSE(r.Contains(t3));
}

TEST(RelationTest, TuplesSortedAfterFinalize) {
  Relation r("R", 1);
  for (uint32_t v : {5u, 1u, 3u}) {
    r.Add(std::vector<uint32_t>{v});
  }
  r.Finalize();
  EXPECT_EQ(r.Tuple(0)[0], 1u);
  EXPECT_EQ(r.Tuple(1)[0], 3u);
  EXPECT_EQ(r.Tuple(2)[0], 5u);
}

TEST(RelationTest, SortedDistinctInputKeepsItsRows) {
  Relation r("R", 2);
  const std::vector<std::vector<uint32_t>> rows = {
      {0, 1}, {0, 3}, {1, 0}, {2, 2}, {7, 1}};
  for (const auto& row : rows) r.Add(row);
  r.Finalize();
  r.CheckInvariants();
  ASSERT_EQ(r.NumTuples(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(std::equal(rows[i].begin(), rows[i].end(),
                           r.Tuple(i).begin()));
  }
  EXPECT_EQ(r.Matches(0b001, {0}).size(), 2u);
}

TEST(RelationTest, UnsortedInputWithDuplicatesIsSortedAndDeduplicated) {
  Relation r("R", 2);
  for (const std::vector<uint32_t>& row :
       std::vector<std::vector<uint32_t>>{
           {2, 2}, {0, 3}, {2, 2}, {0, 1}, {0, 3}, {1, 0}, {0, 1}}) {
    r.Add(row);
  }
  r.Finalize();
  r.CheckInvariants();
  const std::vector<std::vector<uint32_t>> want = {
      {0, 1}, {0, 3}, {1, 0}, {2, 2}};
  ASSERT_EQ(r.NumTuples(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(std::equal(want[i].begin(), want[i].end(),
                           r.Tuple(i).begin()));
  }
}

TEST(RelationTest, MatchesByBoundPattern) {
  Relation r("R", 3);
  r.Add(std::vector<uint32_t>{1, 2, 3});
  r.Add(std::vector<uint32_t>{1, 5, 6});
  r.Add(std::vector<uint32_t>{2, 2, 3});
  r.Finalize();
  // Bind position 0 = 1: two rows.
  EXPECT_EQ(r.Matches(0b001, {1}).size(), 2u);
  // Bind positions 0 and 1.
  EXPECT_EQ(r.Matches(0b011, {1, 2}).size(), 1u);
  EXPECT_EQ(r.Matches(0b011, {9, 9}).size(), 0u);
  // Bind position 2 = 3: rows 0 and 2.
  EXPECT_EQ(r.Matches(0b100, {3}).size(), 2u);
  // Empty mask: all rows share the empty key.
  EXPECT_EQ(r.Matches(0, {}).size(), 3u);
}

TEST(RelationalDbTest, AddFindRequire) {
  RelationalDb db(10);
  Result<Relation*> r = db.AddRelation("edge", 2);
  ASSERT_TRUE(r.ok());
  (*r)->Add(std::vector<uint32_t>{0, 1});
  EXPECT_FALSE(db.AddRelation("edge", 2).ok());  // Duplicate.
  db.FinalizeAll();
  EXPECT_NE(db.Find("edge"), nullptr);
  EXPECT_EQ(db.Find("missing"), nullptr);
  EXPECT_TRUE(db.Require("edge").ok());
  EXPECT_FALSE(db.Require("missing").ok());
  EXPECT_EQ(db.NumRelations(), 1u);
  EXPECT_EQ(db.TotalTuples(), 1u);
  EXPECT_EQ(db.domain_size(), 10u);
}

}  // namespace
}  // namespace ecrpq
