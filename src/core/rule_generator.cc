#include "core/rule_generator.h"

#include <algorithm>
#include <string_view>

#include "common/metrics.h"
#include "text/porter_stemmer.h"
#include "text/spelling_index.h"

namespace xrefine::core {

namespace {

struct RuleMetrics {
  metrics::Histogram* spelling_probe_us;
};

const RuleMetrics& Metrics() {
  static const RuleMetrics m = [] {
    auto& r = metrics::Registry::Global();
    return RuleMetrics{r.histogram("rules.spelling_probe_us")};
  }();
  return m;
}

}  // namespace

RuleGenerator::RuleGenerator(const index::IndexSource* source,
                             const text::Lexicon* lexicon,
                             RuleGeneratorOptions options)
    : source_(source),
      lexicon_(lexicon),
      options_(options),
      vocab_(source->VocabularyIndexSnapshot(options.max_edit_distance)) {}

RuleSet RuleGenerator::GenerateFor(const Query& q) const {
  RuleSet rules;
  rules.set_deletion_cost(options_.deletion_cost);
  AddMergeRules(q, &rules);
  AddSplitRules(q, &rules);
  AddSpellingRules(q, &rules);
  AddSynonymRules(q, &rules);
  AddAcronymRules(q, &rules);
  AddStemmingRules(q, &rules);
  return rules;
}

void RuleGenerator::AddMergeRules(const Query& q, RuleSet* rules) const {
  // Adjacent runs q[i..i+a) whose concatenation is a corpus word.
  for (size_t i = 0; i < q.size(); ++i) {
    std::string merged = q[i];
    std::vector<std::string> lhs = {q[i]};
    for (size_t a = 2; a <= options_.max_merge_arity && i + a <= q.size();
         ++a) {
      merged += q[i + a - 1];
      lhs.push_back(q[i + a - 1]);
      if (InCorpus(merged)) {
        rules->Add(RefinementRule{
            lhs,
            {merged},
            RefineOp::kMerging,
            options_.merge_cost_per_space * static_cast<double>(a - 1)});
      }
    }
  }
}

void RuleGenerator::AddSplitRules(const Query& q, RuleSet* rules) const {
  for (const std::string& k : q) {
    std::vector<std::string> pieces = vocab_->segmenter().Segment(k);
    if (pieces.size() < 2) continue;
    rules->Add(RefinementRule{
        {k},
        pieces,
        RefineOp::kSplit,
        options_.split_cost_per_space * static_cast<double>(pieces.size() - 1)});
  }
}

void RuleGenerator::AddSpellingRules(const Query& q, RuleSet* rules) const {
  const std::vector<std::string>& words = vocab_->words();
  const int max_d = options_.max_edit_distance;
  for (const std::string& k : q) {
    if (k.size() < options_.min_spelling_length) continue;
    if (InCorpus(k)) continue;  // spelled correctly for this corpus
    metrics::ScopedTimer probe_timer(Metrics().spelling_probe_us);

    // Candidate corpus words within the edit-distance band, as
    // (word id, exact distance) pairs in ascending id order, from a probe
    // of k's deletion neighborhood only.
    std::vector<text::SpellingIndex::Match> matches;
    vocab_->spelling().Candidates(k, &matches);

    // Ranking is distance-major, so a distance class whose candidates all
    // start at or past the max_spelling_candidates cutoff can never be
    // selected: drop it before paying its ListSize lookups or its share of
    // the sort.
    std::vector<size_t> per_distance(static_cast<size_t>(max_d) + 1, 0);
    for (const auto& m : matches) {
      if (m.distance >= 1) ++per_distance[static_cast<size_t>(m.distance)];
    }
    int cutoff = max_d;
    size_t cumulative = 0;
    for (int d = 1; d <= max_d; ++d) {
      cumulative += per_distance[static_cast<size_t>(d)];
      if (cumulative >= options_.max_spelling_candidates) {
        cutoff = d;
        break;
      }
    }

    // Candidates carry string_views into the shared word list (which
    // outlives the generator), so the sort moves 24-byte structs instead
    // of reallocating strings.
    struct Candidate {
      std::string_view word;
      int distance;
      size_t frequency;
    };
    std::vector<Candidate> candidates;
    candidates.reserve(cumulative);
    for (const auto& m : matches) {
      if (m.distance == 0 || m.distance > cutoff) continue;
      std::string_view word = words[m.word_id];
      candidates.push_back(
          Candidate{word, m.distance, source_->ListSize(word)});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                if (a.frequency != b.frequency) return a.frequency > b.frequency;
                return a.word < b.word;
              });
    size_t limit = std::min(candidates.size(), options_.max_spelling_candidates);
    for (size_t i = 0; i < limit; ++i) {
      rules->Add(RefinementRule{{k},
                                {std::string(candidates[i].word)},
                                RefineOp::kSubstitution,
                                static_cast<double>(candidates[i].distance)});
    }
  }
}

void RuleGenerator::AddSynonymRules(const Query& q, RuleSet* rules) const {
  for (const std::string& k : q) {
    for (const text::Synonym& syn : lexicon_->SynonymsOf(k)) {
      if (!InCorpus(syn.word)) continue;
      rules->Add(RefinementRule{
          {k}, {syn.word}, RefineOp::kSubstitution, syn.cost});
    }
  }
}

void RuleGenerator::AddAcronymRules(const Query& q, RuleSet* rules) const {
  // Expansion direction: acronym in the query -> its expansion words.
  for (const std::string& k : q) {
    const std::vector<std::string>* expansion = lexicon_->ExpansionOf(k);
    if (expansion == nullptr) continue;
    bool all_present = true;
    for (const std::string& w : *expansion) {
      if (!InCorpus(w)) {
        all_present = false;
        break;
      }
    }
    if (all_present) {
      rules->Add(RefinementRule{
          {k}, *expansion, RefineOp::kSubstitution, options_.acronym_cost});
    }
  }
  // Formation direction: a contiguous run of query terms equal to a known
  // expansion -> the acronym.
  for (size_t i = 0; i < q.size(); ++i) {
    for (size_t len = 2; len <= 4 && i + len <= q.size(); ++len) {
      std::vector<std::string> run(q.begin() + static_cast<ptrdiff_t>(i),
                                   q.begin() + static_cast<ptrdiff_t>(i + len));
      for (const std::string& acronym : lexicon_->AcronymsFor(run)) {
        if (!InCorpus(acronym)) continue;
        rules->Add(RefinementRule{
            run, {acronym}, RefineOp::kSubstitution, options_.acronym_cost});
      }
    }
  }
}

void RuleGenerator::AddStemmingRules(const Query& q, RuleSet* rules) const {
  const std::vector<std::string>& words = vocab_->words();
  for (const std::string& k : q) {
    const std::vector<uint32_t>* variants =
        vocab_->StemVariants(text::PorterStem(k));
    if (variants == nullptr) continue;
    size_t added = 0;
    for (uint32_t id : *variants) {
      const std::string& variant = words[id];
      if (variant == k) continue;
      if (added >= options_.max_stemming_candidates) break;
      rules->Add(RefinementRule{
          {k}, {variant}, RefineOp::kSubstitution, options_.stemming_cost});
      ++added;
    }
  }
}

}  // namespace xrefine::core
