#include "index/index_builder.h"

#include <unordered_map>
#include <vector>

#include "text/tokenizer.h"

namespace xrefine::index {

namespace {

// Cache of the root-to-type chain per type, indexed by depth-1, so the
// per-posting ancestor walks are O(depth) instead of O(depth^2).
class TypeChainCache {
 public:
  explicit TypeChainCache(const xml::NodeTypeTable& types) : types_(types) {}

  const std::vector<xml::TypeId>& ChainOf(xml::TypeId type) {
    auto it = chains_.find(type);
    if (it != chains_.end()) return it->second;
    std::vector<xml::TypeId> chain(types_.depth(type));
    xml::TypeId cur = type;
    for (size_t i = chain.size(); i > 0; --i) {
      chain[i - 1] = cur;
      cur = types_.parent(cur);
    }
    return chains_.emplace(type, std::move(chain)).first->second;
  }

 private:
  const xml::NodeTypeTable& types_;
  std::unordered_map<xml::TypeId, std::vector<xml::TypeId>> chains_;
};

// Document frequencies, from the finished lists (so it serves both
// builders): df(k, T) counts the distinct T-typed nodes whose subtree holds
// a posting of k, i.e. the distinct ancestors of k's postings. Postings are
// in document order, so the postings sharing a depth-d ancestor are
// contiguous, and posting i's ancestors are new exactly below its common
// prefix with posting i-1 — compared in place, with no label copies.
void AddDocumentFrequencies(const InvertedIndex& index, TypeChainCache* chains,
                            StatisticsTable* stats) {
  for (const auto& [keyword, list] : index.lists()) {
    for (size_t i = 0; i < list.size(); ++i) {
      const auto& chain = chains->ChainOf(list.type(i));
      size_t shared =
          i == 0 ? 0 : xml::CommonPrefixDepth(list.label(i - 1), list.label(i));
      for (size_t d = shared; d < chain.size(); ++d) {
        stats->AddDocumentFrequency(keyword, chain[d]);
      }
    }
  }
  stats->FinalizeDistinctCounts();
}

}  // namespace

std::unique_ptr<IndexedCorpus> BuildIndex(const xml::Document& doc,
                                          const IndexBuildOptions& options) {
  auto corpus = std::make_unique<IndexedCorpus>();
  corpus->mutable_types() = doc.types();
  corpus->set_document_view(&doc);
  InvertedIndex& index = corpus->mutable_index();
  StatisticsTable& stats = corpus->mutable_stats();
  TypeChainCache chains(corpus->types());

  if (!doc.has_root()) return corpus;

  // Pass 1: preorder walk in document order. Emits one posting per
  // (keyword, node) and accumulates tf along each node's ancestor types.
  std::vector<xml::NodeId> stack = {doc.root()};
  std::unordered_map<std::string, uint32_t> counts;
  while (!stack.empty()) {
    xml::NodeId id = stack.back();
    stack.pop_back();
    const auto& node = doc.node(id);
    stats.AddNodeOfType(node.type);

    counts.clear();
    if (options.index_tags) {
      for (const auto& term : text::Tokenize(doc.tag(id))) ++counts[term];
    }
    for (const auto& term : text::Tokenize(node.text)) ++counts[term];

    const auto& chain = chains.ChainOf(node.type);
    for (const auto& [term, count] : counts) {
      index.Append(term, xml::DeweyRef(node.dewey), node.type);
      for (xml::TypeId ancestor : chain) {
        stats.AddTermFrequency(term, ancestor, count);
      }
    }

    // Push children reversed so the leftmost is processed first.
    for (auto it = node.children.rbegin(); it != node.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }

  AddDocumentFrequencies(index, &chains, &stats);
  return corpus;
}

std::unique_ptr<IndexedCorpus> BuildIndexFromDag(
    const xml::DagDocument& dag, const IndexBuildOptions& options) {
  auto corpus = std::make_unique<IndexedCorpus>();
  corpus->mutable_types() = dag.types();
  corpus->set_document_view(&dag);
  InvertedIndex& index = corpus->mutable_index();
  StatisticsTable& stats = corpus->mutable_stats();
  TypeChainCache chains(corpus->types());

  if (!dag.has_root()) return corpus;

  // Per-distinct-DAG-node plan: tokenisation and hash-table resolution
  // happen here, once per shared subtree. The instance walk below then only
  // follows pre-resolved pointers — unordered_map nodes never move, so the
  // cached list/cell/count slots stay valid across later insertions.
  struct TermSlot {
    FlatPostingList* list = nullptr;
    std::vector<KeywordTypeStats*> cells;  // aligned with the type chain
    uint32_t count = 0;
  };
  struct NodePlan {
    xml::TypeId type = xml::kInvalidTypeId;
    uint32_t* node_count = nullptr;
    std::vector<TermSlot> slots;
  };
  std::vector<NodePlan> plans(dag.DagNodeCount());
  std::unordered_map<std::string, uint32_t> counts;
  for (xml::DagNodeId id = 0; id < dag.DagNodeCount(); ++id) {
    NodePlan& plan = plans[id];
    plan.type = dag.type(id);
    plan.node_count = stats.MutableNodeCount(plan.type);

    counts.clear();
    if (options.index_tags) {
      for (const auto& term : text::Tokenize(dag.tag(id))) ++counts[term];
    }
    for (const auto& term : text::Tokenize(dag.text(id))) ++counts[term];

    const auto& chain = chains.ChainOf(plan.type);
    plan.slots.reserve(counts.size());
    for (const auto& [term, count] : counts) {
      TermSlot slot;
      slot.list = index.MutableList(term);
      slot.count = count;
      slot.cells.reserve(chain.size());
      for (xml::TypeId ancestor : chain) {
        slot.cells.push_back(stats.MutableKeywordTypeStats(term, ancestor));
      }
      plan.slots.push_back(std::move(slot));
    }
  }

  // Instance walk: preorder over the expansion of the DAG, multiplying each
  // shared subtree out over its instances. Postings land per keyword in
  // document order and tf sums are commutative, so the result is
  // byte-identical to BuildIndex over the uncompressed tree.
  struct Frame {
    xml::DagNodeId id;
    uint32_t next_child;
  };
  std::vector<uint32_t> comps;  // Dewey components of the current instance
  std::vector<Frame> frames;
  auto visit = [&](xml::DagNodeId id) {
    const NodePlan& plan = plans[id];
    ++*plan.node_count;
    for (const TermSlot& slot : plan.slots) {
      slot.list->Append(
          xml::DeweyRef(comps.data(), static_cast<uint32_t>(comps.size())),
          plan.type);
      for (KeywordTypeStats* cell : slot.cells) cell->tf += slot.count;
    }
  };
  comps.push_back(0);
  frames.push_back(Frame{dag.root(), 0});
  visit(dag.root());
  while (!frames.empty()) {
    Frame& top = frames.back();
    if (top.next_child < dag.child_count(top.id)) {
      uint32_t ordinal = top.next_child++;
      xml::DagNodeId child = dag.child(top.id, ordinal);
      comps.push_back(ordinal);
      frames.push_back(Frame{child, 0});
      visit(child);
    } else {
      frames.pop_back();
      comps.pop_back();
    }
  }

  AddDocumentFrequencies(index, &chains, &stats);
  return corpus;
}

}  // namespace xrefine::index
