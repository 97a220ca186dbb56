// Posting-level property test of the three SLCA algorithms against a
// brute-force reference. Unlike the document-backed differential test in
// slca_test.cc, this one builds posting lists directly, so it can reach
// shapes an indexed document never produces: degenerate one-branch trees,
// duplicate labels within one list, ancestor-and-descendant postings in the
// same list, root (depth-0) labels, and lists with no shared first
// component. All three algorithms must agree with the reference exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "index/flat_postings.h"
#include "index/index_builder.h"
#include "slca/elca.h"
#include "slca/slca.h"
#include "xml/dag_document.h"
#include "xml/document.h"

namespace xrefine::slca {
namespace {

using index::FlatPostingList;

// A test-side posting list: labels only, in document order (the SLCA
// algorithms never read the witness types these lists leave invalid).
using LabelList = std::vector<xml::Dewey>;

FlatPostingList ToFlat(const LabelList& labels) {
  FlatPostingList flat;
  for (const xml::Dewey& label : labels) {
    flat.Append(label, xml::kInvalidTypeId);
  }
  return flat;
}

// SLCA semantics, computed naively: a node is an SLCA iff its subtree
// contains a posting from every list and no descendant's subtree does.
// Candidate nodes are every non-empty prefix of every posting label (the
// virtual root above depth 1 is not a real node; all algorithms drop it).
std::vector<std::string> BruteForceSlca(const std::vector<LabelList>& lists) {
  for (const auto& list : lists) {
    if (list.empty()) return {};
  }
  std::vector<xml::Dewey> candidates;
  for (const auto& list : lists) {
    for (const xml::Dewey& label : list) {
      for (size_t d = 1; d <= label.depth(); ++d) {
        candidates.push_back(label.Prefix(d));
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<xml::Dewey> covered;
  for (const xml::Dewey& c : candidates) {
    bool all = true;
    for (const auto& list : lists) {
      bool any = false;
      for (const xml::Dewey& label : list) {
        if (c.IsAncestorOrSelf(label)) any = true;
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) covered.push_back(c);
  }

  std::vector<std::string> out;
  for (const xml::Dewey& c : covered) {
    bool has_descendant = false;
    for (const xml::Dewey& d : covered) {
      if (c.IsAncestor(d)) has_descendant = true;
    }
    if (!has_descendant) out.push_back(c.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// A random sorted posting list over a degenerate label space: a document-
// order walk that descends (emitting ancestor-then-descendant pairs),
// jumps to later siblings at random depths, and repeats labels.
LabelList RandomList(Random& rng, size_t n, bool shared_root) {
  LabelList list;
  if (n == 0) return list;
  std::vector<uint32_t> label;
  if (rng.OneIn(0.1)) {
    // Start at the root label itself (depth 0) — a boundary the stack
    // algorithms used to mishandle.
    list.push_back(xml::Dewey());
  }
  label.push_back(shared_root ? 0
                              : static_cast<uint32_t>(rng.Uniform(0, 2)));
  while (list.size() < n) {
    list.push_back(xml::Dewey(label));
    double move = rng.NextDouble();
    if (move < 0.35 && label.size() < 10) {
      size_t grow = static_cast<size_t>(rng.Uniform(1, 3));
      for (size_t g = 0; g < grow && label.size() < 10; ++g) {
        label.push_back(static_cast<uint32_t>(rng.Uniform(0, 2)));
      }
    } else if (move < 0.85) {
      size_t cut = static_cast<size_t>(
          rng.Uniform(1, static_cast<int64_t>(label.size())));
      label.resize(cut);
      label.back() += static_cast<uint32_t>(rng.Uniform(1, 2));
    }
    // else: emit the same label again (duplicate).
  }
  return list;
}

class SlcaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlcaPropertyTest, AllAlgorithmsMatchPostingLevelBruteForce) {
  Random rng(GetParam());
  const xml::NodeTypeTable types;  // no document: all witnesses invalid
  for (int round = 0; round < 40; ++round) {
    // Half the rounds share a document root (the indexed-corpus invariant);
    // the rest scatter first components to stress the depth-0 boundary.
    bool shared_root = round % 2 == 0;
    size_t m = static_cast<size_t>(rng.Uniform(2, 4));
    std::vector<LabelList> lists;
    for (size_t i = 0; i < m; ++i) {
      lists.push_back(RandomList(
          rng, static_cast<size_t>(rng.Uniform(1, 40)), shared_root));
    }
    auto expected = BruteForceSlca(lists);

    std::vector<FlatPostingList> flats;
    flats.reserve(lists.size());
    for (const auto& list : lists) flats.push_back(ToFlat(list));
    std::vector<PostingSpan> spans;
    for (const auto& flat : flats) spans.emplace_back(flat);

    for (SlcaAlgorithm algorithm :
         {SlcaAlgorithm::kStack, SlcaAlgorithm::kScanEager,
          SlcaAlgorithm::kIndexedLookup}) {
      auto results = ComputeSlca(spans, types, algorithm);
      std::vector<std::string> got;
      for (const auto& r : results) got.push_back(r.dewey.ToString());
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected)
          << "round " << round << " algo " << static_cast<int>(algorithm)
          << " shared_root " << shared_root;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlcaPropertyTest,
                         ::testing::Values(1, 11, 21, 31, 41, 51, 61, 71));

// Pinned boundary cases (found by earlier sweeps; kept as regressions).

std::vector<std::string> RunAll(const std::vector<LabelList>& lists,
                                SlcaAlgorithm algorithm) {
  const xml::NodeTypeTable types;
  std::vector<FlatPostingList> flats;
  for (const auto& list : lists) flats.push_back(ToFlat(list));
  std::vector<PostingSpan> spans;
  for (const auto& flat : flats) spans.emplace_back(flat);
  auto results = ComputeSlca(spans, types, algorithm);
  std::vector<std::string> got;
  for (const auto& r : results) got.push_back(r.dewey.ToString());
  std::sort(got.begin(), got.end());
  return got;
}

constexpr SlcaAlgorithm kAll[] = {SlcaAlgorithm::kStack,
                                  SlcaAlgorithm::kScanEager,
                                  SlcaAlgorithm::kIndexedLookup};

LabelList L(const std::vector<std::vector<uint32_t>>& labels) {
  LabelList out;
  for (const auto& l : labels) out.push_back(xml::Dewey(l));
  return out;
}

TEST(SlcaBoundaryTest, RootOnlyListYieldsNothing) {
  // A depth-0 posting covers only the virtual root, which is not a result;
  // the stack algorithms used to hit an empty-stack pop here instead.
  std::vector<LabelList> lists = {L({{}}), L({{0}, {0, 1}})};
  for (auto algorithm : kAll) {
    EXPECT_EQ(RunAll(lists, algorithm), BruteForceSlca(lists));
    EXPECT_TRUE(RunAll(lists, algorithm).empty());
  }
}

TEST(SlcaBoundaryTest, RootPostingAmongRealOnes) {
  std::vector<LabelList> lists = {L({{}, {0, 1}}), L({{0, 1, 2}})};
  auto expected = BruteForceSlca(lists);
  EXPECT_EQ(expected, (std::vector<std::string>{"0.1"}));
  for (auto algorithm : kAll) {
    EXPECT_EQ(RunAll(lists, algorithm), expected);
  }
}

TEST(SlcaBoundaryTest, NoSharedFirstComponent) {
  // LCA is the virtual root only: every algorithm must return empty, not
  // an empty-labelled result.
  std::vector<LabelList> lists = {L({{1, 0}}), L({{2, 0}})};
  for (auto algorithm : kAll) {
    EXPECT_TRUE(RunAll(lists, algorithm).empty());
  }
}

TEST(SlcaBoundaryTest, AncestorAndDescendantInOneList) {
  // {0} is an ancestor of {0,1}; the smallest witness pair is {0,1} x
  // {0,1,5}.
  std::vector<LabelList> lists = {L({{0}, {0, 1}}), L({{0, 1, 5}})};
  auto expected = BruteForceSlca(lists);
  EXPECT_EQ(expected, (std::vector<std::string>{"0.1"}));
  for (auto algorithm : kAll) {
    EXPECT_EQ(RunAll(lists, algorithm), expected);
  }
}

TEST(SlcaBoundaryTest, DuplicateLabelsAcrossLists) {
  // The same node matches both keywords: it is its own SLCA.
  std::vector<LabelList> lists = {L({{0, 2}, {0, 2}}), L({{0, 2}})};
  auto expected = BruteForceSlca(lists);
  EXPECT_EQ(expected, (std::vector<std::string>{"0.2"}));
  for (auto algorithm : kAll) {
    EXPECT_EQ(RunAll(lists, algorithm), expected);
  }
}

TEST(SlcaBoundaryTest, DeepOneBranchChain) {
  // Degenerate path-shaped "tree": every deeper posting subsumes the
  // shallower ones; only the deepest pair survives the smallest filter.
  std::vector<std::vector<uint32_t>> chain;
  std::vector<uint32_t> label;
  for (uint32_t d = 0; d < 40; ++d) {
    label.push_back(0);
    chain.push_back(label);
  }
  std::vector<LabelList> lists = {L(chain), L({chain.back()})};
  auto expected = BruteForceSlca(lists);
  ASSERT_EQ(expected.size(), 1u);
  for (auto algorithm : kAll) {
    EXPECT_EQ(RunAll(lists, algorithm), expected);
  }
}

// --- DAG-compressed vs uncompressed equivalence ------------------------------
//
// The compression contract (DESIGN.md §15): BuildIndexFromDag over
// CompressDocument(doc) produces an index byte-identical to BuildIndex over
// doc, so every refinement algorithm — the three SLCA baselines and ELCA —
// returns identical results over either representation. Checked over random
// trees in three adversarial families (deep chains, stamped-out identical
// subtrees, mixed growth), all built in preorder.

// A random preorder tree build: maintain the rightmost root-to-leaf path,
// descend / pop-to-sibling / append text at random, over tiny tag and word
// vocabularies so subtrees collide (DAG sharing) and keywords repeat.
// Shapes: 0 = deep chain-heavy, 1 = repetitive template stamping, 2 = mixed.
xml::Document RandomDocument(Random& rng, int shape) {
  static const char* kTags[] = {"a", "b", "c"};
  static const char* kWords[] = {"x", "y", "z", "w"};
  auto tag = [&] { return kTags[rng.Uniform(0, 2)]; };
  auto word = [&] { return kWords[rng.Uniform(0, 3)]; };

  xml::Document doc;
  xml::NodeId root = doc.CreateRoot("r");
  if (shape == 1) {
    // Stamp one small template repeatedly (maximum sharing), plus a few
    // one-off subtrees so not everything collapses.
    size_t copies = static_cast<size_t>(rng.Uniform(3, 12));
    for (size_t c = 0; c < copies; ++c) {
      xml::NodeId item = doc.AddChild(root, "item");
      xml::NodeId t = doc.AddChild(item, "t");
      doc.AppendText(t, "x y");
      xml::NodeId u = doc.AddChild(item, "u");
      doc.AppendText(u, "z");
      if (c + 1 == copies || rng.OneIn(0.2)) {
        xml::NodeId extra = doc.AddChild(item, tag());
        doc.AppendText(extra, word());
      }
    }
    return doc;
  }

  std::vector<xml::NodeId> path = {root};
  size_t nodes = static_cast<size_t>(
      shape == 0 ? rng.Uniform(20, 60) : rng.Uniform(5, 80));
  size_t max_depth = shape == 0 ? 30 : 8;
  double descend_p = shape == 0 ? 0.7 : 0.45;
  for (size_t i = 0; i < nodes; ++i) {
    double move = rng.NextDouble();
    if (move < descend_p && path.size() < max_depth) {
      path.push_back(doc.AddChild(path.back(), tag()));
    } else {
      // Pop to a random open ancestor and open a sibling there.
      size_t keep = static_cast<size_t>(
          rng.Uniform(1, static_cast<int64_t>(path.size())));
      path.resize(keep);
      path.push_back(doc.AddChild(path.back(), tag()));
    }
    if (rng.OneIn(0.6)) doc.AppendText(path.back(), word());
    if (rng.OneIn(0.2)) doc.AppendText(path.back(), word());
  }
  return doc;
}

// Flattens the statistics table into a canonical comparable form.
std::map<std::string, std::map<xml::TypeId, std::pair<uint32_t, uint64_t>>>
CanonicalStats(const index::StatisticsTable& stats) {
  std::map<std::string, std::map<xml::TypeId, std::pair<uint32_t, uint64_t>>>
      out;
  for (const auto& [keyword, per_type] : stats.per_keyword()) {
    for (const auto& [type, cell] : per_type) {
      out[keyword][type] = {cell.df, cell.tf};
    }
  }
  return out;
}

std::vector<std::string> ResultLabels(const std::vector<SlcaResult>& results) {
  std::vector<std::string> out;
  for (const auto& r : results) out.push_back(r.dewey.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

class DagEquivalencePropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(DagEquivalencePropertyTest, DagIndexAndQueriesMatchUncompressed) {
  Random rng(GetParam());
  for (int round = 0; round < 12; ++round) {
    int shape = round % 3;
    xml::Document doc = RandomDocument(rng, shape);
    xml::DagDocument dag = xml::CompressDocument(doc);

    // Structural equivalence of the views.
    ASSERT_EQ(dag.LogicalNodeCount(), doc.LogicalNodeCount());
    ASSERT_EQ(dag.types().size(), doc.types().size());
    for (xml::TypeId t = 0; t < doc.types().size(); ++t) {
      ASSERT_EQ(dag.types().tag(t), doc.types().tag(t));
      ASSERT_EQ(dag.types().parent(t), doc.types().parent(t));
    }
    for (xml::NodeId id = 0; id < doc.NodeCount();
         id += 1 + static_cast<xml::NodeId>(rng.Uniform(0, 3))) {
      const xml::Dewey& d = doc.dewey(id);
      ASSERT_EQ(dag.SubtreeTextAt(d), doc.SubtreeTextAt(d))
          << "round " << round << " dewey " << d.ToString();
    }

    // Index-level byte identity.
    auto tree_corpus = index::BuildIndex(doc);
    auto dag_corpus = index::BuildIndexFromDag(dag);
    ASSERT_EQ(dag_corpus->index().keyword_count(),
              tree_corpus->index().keyword_count())
        << "round " << round << " shape " << shape;
    for (const auto& [keyword, list] : tree_corpus->index().lists()) {
      const FlatPostingList* dag_list = dag_corpus->index().Find(keyword);
      ASSERT_NE(dag_list, nullptr) << keyword;
      ASSERT_TRUE(*dag_list == list) << "round " << round << " kw " << keyword;
    }
    ASSERT_EQ(CanonicalStats(dag_corpus->stats()),
              CanonicalStats(tree_corpus->stats()));
    const std::map<xml::TypeId, uint32_t> dag_node_counts(
        dag_corpus->stats().node_counts().begin(),
        dag_corpus->stats().node_counts().end());
    const std::map<xml::TypeId, uint32_t> tree_node_counts(
        tree_corpus->stats().node_counts().begin(),
        tree_corpus->stats().node_counts().end());
    ASSERT_EQ(dag_node_counts, tree_node_counts);

    // Query-level equivalence: random conjunctive queries, every
    // refinement algorithm, plus ELCA.
    auto vocabulary = tree_corpus->index().Vocabulary();
    for (int q = 0; q < 6 && !vocabulary.empty(); ++q) {
      size_t terms = static_cast<size_t>(rng.Uniform(1, 3));
      std::vector<std::string> query;
      for (size_t t = 0; t < terms; ++t) {
        query.push_back(vocabulary[static_cast<size_t>(rng.Uniform(
            0, static_cast<int64_t>(vocabulary.size()) - 1))]);
      }
      for (SlcaAlgorithm algorithm : kAll) {
        auto tree_or = ComputeSlcaForQuery(query, *tree_corpus,
                                           tree_corpus->types(), algorithm);
        auto dag_or = ComputeSlcaForQuery(query, *dag_corpus,
                                          dag_corpus->types(), algorithm);
        ASSERT_TRUE(tree_or.ok());
        ASSERT_TRUE(dag_or.ok());
        EXPECT_EQ(ResultLabels(dag_or.value()), ResultLabels(tree_or.value()))
            << "round " << round << " algo " << static_cast<int>(algorithm);
      }
      // ELCA over spans pinned from both corpora.
      std::vector<index::PostingListHandle> tree_handles;
      std::vector<index::PostingListHandle> dag_handles;
      std::vector<PostingSpan> tree_spans;
      std::vector<PostingSpan> dag_spans;
      for (const std::string& term : query) {
        tree_handles.push_back(
            std::move(tree_corpus->FetchList(term)).value());
        dag_handles.push_back(std::move(dag_corpus->FetchList(term)).value());
        tree_spans.emplace_back(*tree_handles.back());
        dag_spans.emplace_back(*dag_handles.back());
      }
      EXPECT_EQ(ResultLabels(Elca(dag_spans, dag_corpus->types())),
                ResultLabels(Elca(tree_spans, tree_corpus->types())))
          << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagEquivalencePropertyTest,
                         ::testing::Values(1, 11, 21, 31, 41, 51, 61, 71));

}  // namespace
}  // namespace xrefine::slca
