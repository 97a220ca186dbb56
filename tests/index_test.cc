// Tests for the index layer: inverted lists, the statistics ("frequent")
// table, the co-occurrence table, and persistence through the KV store.
#include <gtest/gtest.h>

#include "index/cooccurrence.h"
#include "index/index_builder.h"
#include "index/index_store.h"
#include "storage/kvstore.h"
#include "tests/test_helpers.h"

namespace xrefine::index {
namespace {

using testutil::MakeFigure1Corpus;

class IndexBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override { corpus_ = MakeFigure1Corpus(); }

  xml::TypeId Type(const std::string& path) {
    xml::TypeId id = corpus_.index->types().Lookup(path);
    EXPECT_NE(id, xml::kInvalidTypeId) << path;
    return id;
  }

  testutil::Corpus corpus_;
};

TEST_F(IndexBuilderTest, PostingListsAreDocumentOrdered) {
  const FlatPostingList* xml_list = corpus_.index->index().Find("xml");
  ASSERT_NE(xml_list, nullptr);
  ASSERT_EQ(xml_list->size(), 2u);
  EXPECT_EQ(xml_list->DeweyAt(0).ToString(), "0.0.1.0.0");
  EXPECT_EQ(xml_list->DeweyAt(1).ToString(), "0.0.1.1.0");
  for (const auto& [keyword, list] : corpus_.index->index().lists()) {
    for (size_t i = 0; i + 1 < list.size(); ++i) {
      EXPECT_TRUE(list.label(i) < list.label(i + 1)) << keyword;
    }
  }
}

TEST_F(IndexBuilderTest, TagNamesAreIndexed) {
  const FlatPostingList* authors = corpus_.index->index().Find("author");
  ASSERT_NE(authors, nullptr);
  ASSERT_EQ(authors->size(), 2u);
  EXPECT_EQ(authors->DeweyAt(0).ToString(), "0.0");
  EXPECT_EQ(authors->DeweyAt(1).ToString(), "0.1");
}

TEST_F(IndexBuilderTest, TagIndexingCanBeDisabled) {
  IndexBuildOptions options;
  options.index_tags = false;
  auto corpus = BuildIndex(*corpus_.doc, options);
  EXPECT_EQ(corpus->index().Find("author"), nullptr);
  EXPECT_NE(corpus->index().Find("xml"), nullptr);
}

TEST_F(IndexBuilderTest, MissingKeywordHasNoList) {
  EXPECT_EQ(corpus_.index->index().Find("nonexistent"), nullptr);
  EXPECT_EQ(corpus_.index->index().ListSize("nonexistent"), 0u);
}

TEST_F(IndexBuilderTest, NodeCountsPerType) {
  const auto& stats = corpus_.index->stats();
  EXPECT_EQ(stats.node_count(Type("bib")), 1u);
  EXPECT_EQ(stats.node_count(Type("bib/author")), 2u);
  EXPECT_EQ(stats.node_count(Type("bib/author/publications/inproceedings")),
            2u);
  EXPECT_EQ(stats.node_count(Type("bib/author/hobby")), 1u);
}

TEST_F(IndexBuilderTest, DocumentFrequencyMatchesDefinition32) {
  const auto& stats = corpus_.index->stats();
  // f_"xml"^inproceedings = 1: only author John's inproceedings mentions
  // xml (the paper's example uses 2 with a bigger document).
  EXPECT_EQ(stats.df("xml", Type("bib/author/publications/inproceedings")),
            1u);
  // Both authors' subtrees contain "search".
  EXPECT_EQ(stats.df("search", Type("bib/author")), 2u);
  // "xml" appears in two title nodes but only one author subtree.
  EXPECT_EQ(stats.df("xml", Type("bib/author")), 1u);
  EXPECT_EQ(stats.df("xml", Type("bib")), 1u);
  // Unknown keyword or unrelated type contributes zero.
  EXPECT_EQ(stats.df("nonexistent", Type("bib")), 0u);
  EXPECT_EQ(stats.df("tennis", Type("bib/author/publications")), 0u);
}

TEST_F(IndexBuilderTest, TermFrequencyAccumulatesOverSubtrees) {
  const auto& stats = corpus_.index->stats();
  // "xml" occurs twice within the first author's subtree.
  EXPECT_EQ(stats.tf("xml", Type("bib/author")), 2u);
  EXPECT_EQ(stats.tf("xml", Type("bib")), 2u);
  EXPECT_EQ(stats.tf("tennis", Type("bib/author/hobby")), 1u);
  // Tag occurrences count too: two author tags under bib.
  EXPECT_EQ(stats.tf("author", Type("bib")), 2u);
}

TEST_F(IndexBuilderTest, DistinctKeywordCountsAreConsistent) {
  const auto& stats = corpus_.index->stats();
  // G_bib must equal the total vocabulary (everything is under the root).
  EXPECT_EQ(stats.distinct_keywords(Type("bib")),
            corpus_.index->index().keyword_count());
  // The hobby subtree holds exactly the tag and its text.
  EXPECT_EQ(stats.distinct_keywords(Type("bib/author/hobby")), 2u);
  // Monotonicity: a subtree type can't have more distinct keywords than
  // its parent type aggregated over all instances... at least for the
  // root/author split here.
  EXPECT_LE(stats.distinct_keywords(Type("bib/author")),
            stats.distinct_keywords(Type("bib")));
}

// Cross-validation property: the co-occurrence table's single-keyword
// anchor count must reproduce the statistics table's document frequency for
// EVERY (keyword, type) pair — two fully independent computations.
TEST_F(IndexBuilderTest, AnchorSetsAgreeWithDocumentFrequencies) {
  const auto& stats = corpus_.index->stats();
  auto& cooc = corpus_.index->cooccurrence();
  for (const auto& [keyword, per_type] : stats.per_keyword()) {
    for (const auto& [type, kt] : per_type) {
      EXPECT_EQ(cooc.SingleCount(keyword, type), kt.df)
          << keyword << " @ " << corpus_.index->types().path(type);
    }
  }
}

TEST_F(IndexBuilderTest, CooccurrenceCountsPairs) {
  auto& cooc = corpus_.index->cooccurrence();
  xml::TypeId author = Type("bib/author");
  xml::TypeId inproc = Type("bib/author/publications/inproceedings");
  // xml and database co-occur in John's subtree only.
  EXPECT_EQ(cooc.Count("xml", "database", author), 1u);
  EXPECT_EQ(cooc.Count("database", "xml", author), 1u);  // symmetric
  // xml and skyline never share an author.
  EXPECT_EQ(cooc.Count("xml", "skyline", author), 0u);
  // skyline+stream co-occur in Mary's inproceedings.
  EXPECT_EQ(cooc.Count("skyline", "stream", inproc), 1u);
  // Bounded by each keyword's df.
  const auto& stats = corpus_.index->stats();
  EXPECT_LE(cooc.Count("xml", "search", author),
            std::min(stats.df("xml", author), stats.df("search", author)));
}

TEST_F(IndexBuilderTest, CooccurrenceMemoizes) {
  auto& cooc = corpus_.index->cooccurrence();
  xml::TypeId author = Type("bib/author");
  cooc.Count("xml", "database", author);
  size_t before = cooc.memoized_pairs();
  cooc.Count("database", "xml", author);  // canonical key: same entry
  EXPECT_EQ(cooc.memoized_pairs(), before);
}

TEST_F(IndexBuilderTest, VocabularyIsSortedAndComplete) {
  auto vocab = corpus_.index->index().Vocabulary();
  EXPECT_TRUE(std::is_sorted(vocab.begin(), vocab.end()));
  EXPECT_EQ(vocab.size(), corpus_.index->index().keyword_count());
  EXPECT_TRUE(std::binary_search(vocab.begin(), vocab.end(), "xml"));
  EXPECT_TRUE(std::binary_search(vocab.begin(), vocab.end(), "author"));
}

// --- persistence --------------------------------------------------------------

TEST(IndexStoreTest, SaveLoadRoundTripPreservesEverything) {
  auto corpus = MakeFigure1Corpus();
  auto store = storage::KVStore::Open("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(SaveCorpus(*corpus.index, store->get()).ok());

  auto loaded_or = LoadCorpus(**store);
  ASSERT_TRUE(loaded_or.ok());
  auto& loaded = *loaded_or;

  // Types are re-interned with identical ids and paths.
  ASSERT_EQ(loaded->types().size(), corpus.index->types().size());
  for (xml::TypeId t = 0; t < loaded->types().size(); ++t) {
    EXPECT_EQ(loaded->types().path(t), corpus.index->types().path(t));
    EXPECT_EQ(loaded->types().depth(t), corpus.index->types().depth(t));
  }

  // Inverted lists byte-identical.
  ASSERT_EQ(loaded->index().keyword_count(),
            corpus.index->index().keyword_count());
  for (const auto& [keyword, list] : corpus.index->index().lists()) {
    const FlatPostingList* loaded_list = loaded->index().Find(keyword);
    ASSERT_NE(loaded_list, nullptr) << keyword;
    ASSERT_EQ(loaded_list->size(), list.size()) << keyword;
    for (size_t i = 0; i < list.size(); ++i) {
      EXPECT_EQ(loaded_list->label(i), list.label(i))
          << keyword << "[" << i << "]";
      EXPECT_EQ(loaded_list->type(i), list.type(i))
          << keyword << "[" << i << "]";
    }
  }

  // Statistics identical for every (keyword, type) pair, plus aggregates.
  for (const auto& [keyword, per_type] : corpus.index->stats().per_keyword()) {
    for (const auto& [type, kt] : per_type) {
      EXPECT_EQ(loaded->stats().df(keyword, type), kt.df);
      EXPECT_EQ(loaded->stats().tf(keyword, type), kt.tf);
    }
  }
  for (xml::TypeId t = 0; t < loaded->types().size(); ++t) {
    EXPECT_EQ(loaded->stats().node_count(t),
              corpus.index->stats().node_count(t));
    EXPECT_EQ(loaded->stats().distinct_keywords(t),
              corpus.index->stats().distinct_keywords(t));
  }

  // The loaded corpus has no document attached.
  EXPECT_EQ(loaded->document_view(), nullptr);
}

TEST(IndexStoreTest, LoadFromEmptyStoreFails) {
  auto store = storage::KVStore::Open("");
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(LoadCorpus(**store).ok());
}

// Regression tests for the optional co-occurrence cache entry: a store
// persisted before the cache existed (entry absent) must still load, but a
// present-and-damaged entry must fail the load instead of being silently
// treated as a cold cache (latent bug surfaced by the [[nodiscard]] pass).
TEST(IndexStoreTest, MissingCooccurEntryIsTolerated) {
  auto corpus = MakeFigure1Corpus();
  auto store = storage::KVStore::Open("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(SaveCorpus(*corpus.index, store->get()).ok());
  // Key layout from index_store.cc: "m" NUL "cooccur" (embedded NUL).
  const std::string cooccur_key("m\0cooccur", 9);
  ASSERT_TRUE((*store)->Delete(cooccur_key).ok());

  auto loaded_or = LoadCorpus(**store);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status();
  EXPECT_EQ((*loaded_or)->cooccurrence().memoized_pairs(), 0u);
}

TEST(IndexStoreTest, CorruptCooccurEntryFailsLoad) {
  auto corpus = MakeFigure1Corpus();
  auto store = storage::KVStore::Open("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(SaveCorpus(*corpus.index, store->get()).ok());
  const std::string cooccur_key("m\0cooccur", 9);
  // Varint count of 100 followed by no entries: decodes as truncated.
  ASSERT_TRUE((*store)->Put(cooccur_key, "\x64").ok());

  auto loaded_or = LoadCorpus(**store);
  ASSERT_FALSE(loaded_or.ok());
  EXPECT_TRUE(loaded_or.status().IsCorruption()) << loaded_or.status();
}

TEST(IndexStoreTest, PersistsToDiskAndBack) {
  std::string path = ::testing::TempDir() + "/index_store_disk.db";
  std::remove(path.c_str());
  auto corpus = MakeFigure1Corpus();
  {
    auto store = storage::KVStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(SaveCorpus(*corpus.index, store->get()).ok());
  }
  auto store = storage::KVStore::Open(path);
  ASSERT_TRUE(store.ok());
  auto loaded = LoadCorpus(**store);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->index().keyword_count(),
            corpus.index->index().keyword_count());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xrefine::index
