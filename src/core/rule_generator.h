// Mines the refinement rules relevant to one query from the corpus
// vocabulary and the semantic lexicon (the paper allows rules "obtained
// from document mining, query log analysis or manual annotation",
// Section III-B; this is the document-mining route).
//
// Generated rule families:
//   merging       adjacent query terms whose concatenation is a corpus word
//   split         query term segmentable into >=2 corpus words
//   spelling      out-of-vocabulary term within edit distance <= 2 of a
//                 corpus word (ds = edit distance)
//   synonym       lexicon synonym present in the corpus (ds = lexicon cost)
//   acronym       lexicon acronym <-> expansion, both directions (ds = 1)
//   stemming      corpus word sharing the query term's Porter stem (ds = 1)
//
// The vocabulary-derived structures (sorted words, stem index, segmenter,
// deletion-neighborhood spelling index) live in a shared immutable
// text::VocabularyIndex snapshot cached on the IndexSource, so N engines
// over one corpus build them once. Spelling candidates come from the
// SymSpell-style deletion-neighborhood probe — O(neighborhood) per term —
// instead of a banded edit-distance scan over the entire vocabulary.
#ifndef XREFINE_CORE_RULE_GENERATOR_H_
#define XREFINE_CORE_RULE_GENERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/refinement_rule.h"
#include "index/index_source.h"
#include "text/lexicon.h"
#include "text/vocabulary_index.h"

namespace xrefine::core {

struct RuleGeneratorOptions {
  int max_edit_distance = 2;
  /// Spelling rules only fire for terms at least this long (short terms
  /// produce too many accidental neighbours).
  size_t min_spelling_length = 4;
  /// Max spelling-correction rules per query term, most frequent corpus
  /// words first.
  size_t max_spelling_candidates = 4;
  /// Max adjacent terms considered for one merge.
  size_t max_merge_arity = 3;
  double deletion_cost = 2.0;
  double merge_cost_per_space = 1.0;
  double split_cost_per_space = 1.0;
  double acronym_cost = 1.0;
  double stemming_cost = 1.0;
  size_t max_stemming_candidates = 3;
};

class RuleGenerator {
 public:
  /// `source` and `lexicon` must outlive the generator. Acquires (building
  /// on first use) the source's shared VocabularyIndex snapshot. Only
  /// membership, list sizes and the vocabulary are consulted — never list
  /// contents — so a store-backed source serves rule generation from its
  /// metadata alone.
  RuleGenerator(const index::IndexSource* source,
                const text::Lexicon* lexicon,
                RuleGeneratorOptions options = {});

  /// The rules relevant to `q`, deduplicated, plus the deletion cost.
  RuleSet GenerateFor(const Query& q) const;

  const RuleGeneratorOptions& options() const { return options_; }

 private:
  void AddMergeRules(const Query& q, RuleSet* rules) const;
  void AddSplitRules(const Query& q, RuleSet* rules) const;
  void AddSpellingRules(const Query& q, RuleSet* rules) const;
  void AddSynonymRules(const Query& q, RuleSet* rules) const;
  void AddAcronymRules(const Query& q, RuleSet* rules) const;
  void AddStemmingRules(const Query& q, RuleSet* rules) const;

  bool InCorpus(const std::string& word) const {
    return source_->Contains(word);
  }

  const index::IndexSource* source_;
  const text::Lexicon* lexicon_;
  RuleGeneratorOptions options_;

  // Shared immutable vocabulary structures (sorted words, stem index,
  // segmenter, spelling index) — one snapshot per source, aliased here.
  std::shared_ptr<const text::VocabularyIndex> vocab_;
};

}  // namespace xrefine::core

#endif  // XREFINE_CORE_RULE_GENERATOR_H_
