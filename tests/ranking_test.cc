// Tests for the ranking model (Section IV) and the RQSortedList.
#include <cmath>

#include <gtest/gtest.h>

#include "core/ranking.h"
#include "core/rq_sorted_list.h"
#include "tests/test_helpers.h"

namespace xrefine::core {
namespace {

using testutil::MakeFigure1Corpus;

class RankingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = MakeFigure1Corpus();
    author_ = corpus_.index->types().Lookup("bib/author");
    inproc_ = corpus_.index->types().Lookup(
        "bib/author/publications/inproceedings");
    ASSERT_NE(author_, xml::kInvalidTypeId);
  }

  std::vector<slca::TypeConfidence> L() const { return {{author_, 1.0}}; }

  testutil::Corpus corpus_;
  xml::TypeId author_ = xml::kInvalidTypeId;
  xml::TypeId inproc_ = xml::kInvalidTypeId;
};

TEST_F(RankingTest, ImpMatchesFormula2) {
  RankingModel model(corpus_.index.get());
  const auto& stats = corpus_.index->stats();
  double expected =
      (static_cast<double>(stats.tf("xml", author_)) +
       static_cast<double>(stats.tf("search", author_))) /
      static_cast<double>(stats.distinct_keywords(author_));
  EXPECT_DOUBLE_EQ(model.Imp({"xml", "search"}, author_), expected);
}

TEST_F(RankingTest, ImpZeroWhenTypeHasNoKeywords) {
  RankingModel model(corpus_.index.get());
  // A type id that exists but with G=0 can't occur here; use an untouched
  // fake id via a type with no text: none exists, so check the unknown
  // keyword case instead.
  EXPECT_DOUBLE_EQ(model.Imp({"zzz"}, author_), 0.0);
}

TEST_F(RankingTest, ImpKiMatchesFormula3) {
  RankingModel model(corpus_.index.get());
  const auto& stats = corpus_.index->stats();
  double expected = std::log(
      static_cast<double>(stats.node_count(author_)) /
      (1.0 + static_cast<double>(stats.df("skyline", author_))));
  EXPECT_DOUBLE_EQ(model.ImpKi("skyline", author_),
                   std::max(0.0, expected));
}

TEST_F(RankingTest, ImpKiFlooredAtZero) {
  RankingModel model(corpus_.index.get());
  // "name" occurs in every author subtree: N/(1+df) = 2/3 < 1 -> floor 0.
  EXPECT_DOUBLE_EQ(model.ImpKi("name", author_), 0.0);
}

TEST_F(RankingTest, DecayPenalisesDissimilarity) {
  RankingModel model(corpus_.index.get());
  RefinedQuery near{{"xml", "database"}, 1.0, {}};
  RefinedQuery far{{"xml", "database"}, 3.0, {}};
  Query q = {"xml", "databse"};
  double s_near = model.Similarity(near, q, L());
  double s_far = model.Similarity(far, q, L());
  EXPECT_GT(s_near, s_far);
  EXPECT_NEAR(s_far / s_near, std::pow(0.8, 2.0), 1e-9);
}

TEST_F(RankingTest, Guideline4ToggleRemovesDecay) {
  RankingOptions options;
  options.use_guideline4 = false;
  RankingModel model(corpus_.index.get(), options);
  RefinedQuery near{{"xml", "database"}, 1.0, {}};
  RefinedQuery far{{"xml", "database"}, 5.0, {}};
  Query q = {"xml", "databse"};
  EXPECT_DOUBLE_EQ(model.Similarity(near, q, L()),
                   model.Similarity(far, q, L()));
}

TEST_F(RankingTest, Guideline1ToggleDropsTermFrequencies) {
  RankingOptions options;
  options.use_guideline1 = false;
  RankingModel model(corpus_.index.get(), options);
  // Without Imp, two RQs with the same delta and dsim tie even when their
  // term frequencies differ.
  RefinedQuery rare{{"skyline"}, 1.0, {}};
  RefinedQuery frequent{{"xml"}, 1.0, {}};
  Query q = {"zzz"};
  EXPECT_DOUBLE_EQ(model.Similarity(rare, q, L()),
                   model.Similarity(frequent, q, L()));
}

TEST_F(RankingTest, SimilarityUsesConfidenceWeights) {
  RankingModel model(corpus_.index.get());
  RefinedQuery rq{{"xml", "database"}, 1.0, {}};
  Query q = {"xml", "databse"};
  std::vector<slca::TypeConfidence> l1 = {{author_, 1.0}};
  std::vector<slca::TypeConfidence> l2 = {{author_, 2.0}};
  EXPECT_NEAR(model.Similarity(rq, q, l2),
              2.0 * model.Similarity(rq, q, l1), 1e-9);
}

TEST_F(RankingTest, Guideline3ToggleIgnoresConfidences) {
  RankingOptions options;
  options.use_guideline3 = false;
  RankingModel model(corpus_.index.get(), options);
  RefinedQuery rq{{"xml", "database"}, 1.0, {}};
  Query q = {"xml", "databse"};
  std::vector<slca::TypeConfidence> l1 = {{author_, 1.0}};
  std::vector<slca::TypeConfidence> l2 = {{author_, 5.0}};
  EXPECT_DOUBLE_EQ(model.Similarity(rq, q, l1),
                   model.Similarity(rq, q, l2));
}

TEST_F(RankingTest, DependenceRewardsCooccurringKeywords) {
  RankingModel model(corpus_.index.get());
  // skyline+stream share a subtree; skyline+2003 never do.
  RefinedQuery together{{"skyline", "stream"}, 0.0, {}};
  RefinedQuery apart{{"skyline", "2003"}, 0.0, {}};
  EXPECT_GT(model.Dependence(together, L()), model.Dependence(apart, L()));
  EXPECT_DOUBLE_EQ(model.Dependence(apart, L()), 0.0);
}

TEST_F(RankingTest, DependenceZeroForSingleKeyword) {
  RankingModel model(corpus_.index.get());
  RefinedQuery single{{"xml"}, 0.0, {}};
  EXPECT_DOUBLE_EQ(model.Dependence(single, L()), 0.0);
}

TEST_F(RankingTest, ScoreCombinesWithAlphaBeta) {
  RankingOptions options;
  options.alpha = 2.0;
  options.beta = 0.5;
  RankingModel model(corpus_.index.get(), options);
  RefinedQuery rq{{"skyline", "stream"}, 1.0, {}};
  Query q = {"skyline", "streem"};
  RankedRq scored = model.Score(rq, q, L());
  EXPECT_NEAR(scored.rank,
              2.0 * scored.similarity + 0.5 * scored.dependence, 1e-12);
  EXPECT_DOUBLE_EQ(scored.similarity, model.Similarity(rq, q, L()));
  EXPECT_DOUBLE_EQ(scored.dependence, model.Dependence(rq, L()));
}

TEST_F(RankingTest, BetaZeroDisablesDependence) {
  RankingOptions options;
  options.beta = 0.0;
  RankingModel model(corpus_.index.get(), options);
  RefinedQuery rq{{"skyline", "stream"}, 0.0, {}};
  RankedRq scored = model.Score(rq, {"skyline", "stream"}, L());
  EXPECT_DOUBLE_EQ(scored.rank, scored.similarity);
}

// --- RqSortedList --------------------------------------------------------------

RefinedQuery RQ(Query q, double dsim) {
  return RefinedQuery{std::move(q), dsim, {}};
}

// Masks over a toy keyword universe {a, b, c, d, e, x, y}.
constexpr KeywordMask kA = 1, kB = 2, kC = 4, kD = 8, kE = 16, kX = 32,
                      kY = 64;

TEST(RqSortedListTest, KeepsAscendingOrderAndCapacity) {
  RqSortedList list(3);
  EXPECT_TRUE(list.CanAccept(100.0));  // not yet full
  list.InsertOrFind(kC, RQ({"c"}, 3.0));
  list.InsertOrFind(kA, RQ({"a"}, 1.0));
  list.InsertOrFind(kB, RQ({"b"}, 2.0));
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list.entries()[0].rq.dissimilarity, 1.0);
  EXPECT_EQ(list.entries()[0].mask, kA);
  EXPECT_DOUBLE_EQ(list.entries()[2].rq.dissimilarity, 3.0);
  EXPECT_DOUBLE_EQ(list.AdmissionThreshold(), 3.0);

  // A better candidate evicts the worst.
  list.InsertOrFind(kD, RQ({"d"}, 0.5));
  ASSERT_EQ(list.size(), 3u);
  EXPECT_FALSE(list.Contains(kC));
  EXPECT_TRUE(list.Contains(kD));

  // A worse candidate is rejected.
  EXPECT_EQ(list.InsertOrFind(kE, RQ({"e"}, 9.0)), nullptr);
  EXPECT_FALSE(list.Contains(kE));
}

TEST(RqSortedListTest, DuplicateKeywordSetsAreMerged) {
  RqSortedList list(4);
  auto* first = list.InsertOrFind(kX | kY, RQ({"x", "y"}, 1.0));
  auto* again = list.InsertOrFind(kX | kY, RQ({"y", "x"}, 1.0));  // same set
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again, first);
  EXPECT_EQ(list.size(), 1u);
  // The first RefinedQuery stays.
  EXPECT_EQ(list.entries()[0].rq.keywords, (Query{"x", "y"}));
}

TEST(RqSortedListTest, ResultsAccumulateOnTheReturnedEntry) {
  RqSortedList list(2);
  slca::SlcaResult r1{xml::Dewey({0, 1}), 0};
  slca::SlcaResult r2{xml::Dewey({0, 2}), 0};
  list.InsertOrFind(kX, RQ({"x"}, 1.0))->results.push_back(r1);
  list.InsertOrFind(kX, RQ({"x"}, 1.0))->results.push_back(r2);
  ASSERT_EQ(list.entries()[0].results.size(), 2u);
  EXPECT_EQ(list.entries()[0].results[1].dewey, r2.dewey);
}

TEST(RqSortedListTest, EvictedKeywordSetIsNewWhenReoffered) {
  RqSortedList list(2);
  list.InsertOrFind(kA, RQ({"a"}, 1.0));
  list.InsertOrFind(kB, RQ({"b"}, 2.0))
      ->results.push_back(slca::SlcaResult{xml::Dewey({0, 7}), 0});
  list.InsertOrFind(kC, RQ({"c"}, 0.5));  // evicts b
  EXPECT_FALSE(list.Contains(kB));

  // Re-offered with a dissimilarity that is admissible now, b comes back as
  // a fresh entry: nothing of its evicted results survives.
  auto* back = list.InsertOrFind(kB, RQ({"b"}, 0.7));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->mask, kB);
  EXPECT_TRUE(back->results.empty());
  EXPECT_FALSE(list.Contains(kA));  // a was the worst, now evicted
  EXPECT_EQ(list.size(), 2u);

  // Re-offered while inadmissible, an evicted set is rejected outright.
  EXPECT_EQ(list.InsertOrFind(kA, RQ({"a"}, 1.0)), nullptr);
  EXPECT_FALSE(list.Contains(kA));
}

}  // namespace
}  // namespace xrefine::core
