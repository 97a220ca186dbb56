#include "core/stack_refine.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"

namespace xrefine::core {

namespace {

struct Entry {
  explicit Entry(uint32_t c) : component(c) {}

  uint32_t component;
  KeywordMask mask = 0;              // witnessed keywords of KS
  bool q_emitted_below = false;      // an SLCA of Q was emitted in a child
  xml::TypeId witness = xml::kInvalidTypeId;
  std::vector<uint32_t> emitted;     // RQ ids emitted in this subtree
};

// Document-order merge over the posting spans.
class MergedStream {
 public:
  explicit MergedStream(const std::vector<slca::PostingSpan>& lists)
      : lists_(lists), cursors_(lists.size(), 0) {}

  int Pop(size_t* pos) {
    int best = -1;
    for (size_t i = 0; i < lists_.size(); ++i) {
      if (cursors_[i] >= lists_[i].size) continue;
      if (best < 0 ||
          lists_[i].label(cursors_[i]) <
              lists_[static_cast<size_t>(best)].label(
                  cursors_[static_cast<size_t>(best)])) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) return -1;
    *pos = cursors_[static_cast<size_t>(best)]++;
    return best;
  }

 private:
  const std::vector<slca::PostingSpan>& lists_;
  std::vector<size_t> cursors_;
};

}  // namespace

RefineOutcome StackRefine(const index::IndexSource& corpus,
                          const RefineInput& input,
                          const StackRefineOptions& options) {
  RefineStats stats;
  if (Status s = RefinableStatus(input); !s.ok()) return FailedOutcome(s);
  const size_t m = input.lists.size();
  std::vector<std::pair<RefinedQuery, std::vector<slca::SlcaResult>>>
      candidate_list;

  // Bitmask of the original query's keywords within KS.
  KeywordMask q_mask = 0;
  for (size_t i = 0; i < m; ++i) {
    if (std::find(input.q.begin(), input.q.end(), input.keywords[i]) !=
        input.q.end()) {
      q_mask |= KeywordBit(i);
    }
  }
  const bool q_fully_listed =
      [&] {
        for (const std::string& k : input.q) {
          if (input.keyword_index.count(k) == 0) return false;
        }
        return true;
      }();

  bool need_refine = true;
  std::vector<slca::SlcaResult> q_results;

  // getOptimalRQ per witnessed mask, memoised across pops.
  DpMemo dp(input, 1);
  // RQ candidates found so far: RQ mask -> index into candidate_list.
  std::unordered_map<KeywordMask, uint32_t> rq_ids;

  std::vector<Entry> stack;

  // The popped node's label: the stack's components plus its own.
  auto label_of = [&](const Entry& e) {
    std::vector<uint32_t> components;
    components.reserve(stack.size() + 1);
    for (const Entry& se : stack) components.push_back(se.component);
    components.push_back(e.component);
    return xml::Dewey(std::move(components));
  };

  auto pop = [&]() {
    Entry e = std::move(stack.back());
    stack.pop_back();
    ++stats.nodes_popped;
    size_t depth = stack.size() + 1;

    // Meaningfulness needs only the node's type; the label is built only
    // for nodes that become results.
    slca::SlcaResult node;
    node.type = slca::AncestorTypeAtDepth(corpus.types(), e.witness, depth);
    bool meaningful =
        slca::IsMeaningfulSlca(node, input.search_for, corpus.types());

    // Lines 10-12: e is a meaningful SLCA of Q itself.
    if (q_fully_listed && (e.mask & q_mask) == q_mask && !e.q_emitted_below &&
        meaningful) {
      node.dewey = label_of(e);
      q_results.push_back(std::move(node));
      need_refine = false;
      e.q_emitted_below = true;
    } else if (e.mask != 0 && meaningful) {
      // Lines 13-17: track the refined query witnessed by this subtree.
      const std::vector<KeyedRq>& optimal = dp.TopRqs(e.mask, &stats);
      if (!optimal.empty()) {
        const KeyedRq& rq = optimal.front();
        XR_DCHECK((rq.mask & ~e.mask) == 0);
        auto [it, inserted] = rq_ids.try_emplace(
            rq.mask, static_cast<uint32_t>(candidate_list.size()));
        const uint32_t id = it->second;
        if (inserted) {
          ++stats.candidates_enumerated;
          candidate_list.emplace_back(rq.rq, std::vector<slca::SlcaResult>{});
        }
        // Emit only when no descendant already claimed this RQ (lines
        // 18-19: an ancestor is not a smallest result for the same RQ).
        if (std::find(e.emitted.begin(), e.emitted.end(), id) ==
            e.emitted.end()) {
          node.dewey = label_of(e);
          candidate_list[id].second.push_back(std::move(node));
          e.emitted.push_back(id);
        }
      }
    }

    if (!stack.empty()) {
      Entry& parent = stack.back();
      parent.mask |= e.mask;
      parent.q_emitted_below |= e.q_emitted_below;
      if (parent.witness == xml::kInvalidTypeId) parent.witness = e.witness;
      for (uint32_t id : e.emitted) {
        if (std::find(parent.emitted.begin(), parent.emitted.end(), id) ==
            parent.emitted.end()) {
          parent.emitted.push_back(id);
        }
      }
    }
  };

  MergedStream stream(input.lists);
  size_t pos = 0;
  int list_index;
  uint64_t polls = 0;
  while ((list_index = stream.Pop(&pos)) >= 0) {
    // This loop runs once per posting, so the deadline/cancel poll (an
    // atomic load plus a clock read) is amortised over 256 postings.
    if ((++polls & 255) == 0 && input.Stopped()) return StoppedOutcome(stats);
    const xml::DeweyRef label =
        input.lists[static_cast<size_t>(list_index)].label(pos);
    // Depth-0 (root) labels have no stack entry to mark; skip them, as the
    // SLCA baselines do.
    if (label.empty()) continue;
    size_t p = 0;
    while (p < stack.size() && p < label.depth() &&
           stack[p].component == label[p]) {
      ++p;
    }
    while (stack.size() > p) pop();
    for (size_t i = p; i < label.depth(); ++i) {
      stack.push_back(Entry{label[i]});
    }
    XR_DCHECK(!stack.empty());
    stack.back().mask |= KeywordBit(static_cast<size_t>(list_index));
    if (stack.back().witness == xml::kInvalidTypeId) {
      stack.back().witness =
          input.lists[static_cast<size_t>(list_index)].type(pos);
    }
  }
  while (!stack.empty()) pop();

  (void)need_refine;  // FinalizeOutcome re-derives it from the candidates

  // Register Q's own results as the zero-dissimilarity candidate so the
  // common finalisation treats "no refinement needed" uniformly.
  if (!q_results.empty()) {
    candidate_list.emplace_back(
        RefinedQuery{input.q, 0.0, {}}, std::move(q_results));
  }

  return FinalizeOutcome(corpus, input.q, input.search_for,
                         std::move(candidate_list), options.top_k,
                         options.ranking, stats, options.rank_results,
                         options.infer_return_nodes);
}

}  // namespace xrefine::core
