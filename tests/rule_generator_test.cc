// Tests for corpus-driven refinement-rule mining (Section III-B rule
// families) and the RuleSet container.
#include <gtest/gtest.h>

#include "core/rule_generator.h"
#include "tests/test_helpers.h"
#include "text/lexicon.h"

namespace xrefine::core {
namespace {

using testutil::MakeFigure1Corpus;

class RuleGeneratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = MakeFigure1Corpus();
    lexicon_ = text::Lexicon::BuiltIn();
    generator_ = std::make_unique<RuleGenerator>(corpus_.index.get(),
                                                 &lexicon_);
  }

  bool HasRule(const RuleSet& rules, const std::vector<std::string>& lhs,
               const std::vector<std::string>& rhs) const {
    for (const auto& r : rules.rules()) {
      if (r.lhs == lhs && r.rhs == rhs) return true;
    }
    return false;
  }

  testutil::Corpus corpus_;
  text::Lexicon lexicon_;
  std::unique_ptr<RuleGenerator> generator_;
};

TEST_F(RuleGeneratorTest, SpellingRuleForOutOfVocabularyTerm) {
  RuleSet rules = generator_->GenerateFor({"databse", "xml"});
  EXPECT_TRUE(HasRule(rules, {"databse"}, {"database"}));
  // ds equals the edit distance.
  for (const auto& r : rules.rules()) {
    if (r.lhs == std::vector<std::string>{"databse"} &&
        r.rhs == std::vector<std::string>{"database"}) {
      EXPECT_DOUBLE_EQ(r.ds, 1.0);
      EXPECT_EQ(r.op, RefineOp::kSubstitution);
    }
  }
}

TEST_F(RuleGeneratorTest, NoSpellingRuleForInVocabularyTerm) {
  RuleSet rules = generator_->GenerateFor({"database"});
  for (const auto& r : rules.rules()) {
    EXPECT_NE(r.lhs, (std::vector<std::string>{"database"}));
  }
}

TEST_F(RuleGeneratorTest, MergeRuleForAdjacentFragments) {
  RuleSet rules = generator_->GenerateFor({"data", "base"});
  EXPECT_TRUE(HasRule(rules, {"data", "base"}, {"database"}));
}

TEST_F(RuleGeneratorTest, SplitRuleForMergedToken) {
  // "skylinecomputation" splits into two corpus words.
  RuleSet rules = generator_->GenerateFor({"skylinecomputation"});
  EXPECT_TRUE(
      HasRule(rules, {"skylinecomputation"}, {"skyline", "computation"}));
}

TEST_F(RuleGeneratorTest, SynonymRulesComeFromLexicon) {
  RuleSet rules = generator_->GenerateFor({"publication"});
  // Only synonyms present in this corpus appear.
  EXPECT_TRUE(HasRule(rules, {"publication"}, {"article"}));
  EXPECT_TRUE(HasRule(rules, {"publication"}, {"inproceedings"}));
  EXPECT_FALSE(HasRule(rules, {"publication"}, {"paper"}));  // not in data
}

TEST_F(RuleGeneratorTest, AcronymExpansionBothDirections) {
  RuleSet expand = generator_->GenerateFor({"www"});
  EXPECT_TRUE(HasRule(expand, {"www"}, {"world", "wide", "web"}));
  // Note: forming "www" from {world, wide, web} requires "www" to occur in
  // the corpus, which it does not here.
  RuleSet form = generator_->GenerateFor({"world", "wide", "web"});
  EXPECT_FALSE(HasRule(form, {"world", "wide", "web"}, {"www"}));
}

TEST_F(RuleGeneratorTest, StemmingRulesLinkMorphologicalVariants) {
  // Corpus has "matching"; query says "matched".
  RuleSet rules = generator_->GenerateFor({"matched"});
  bool has_stem_rule = false;
  for (const auto& r : rules.rules()) {
    if (r.lhs == std::vector<std::string>{"matched"} &&
        r.rhs == std::vector<std::string>{"matching"}) {
      has_stem_rule = true;
    }
  }
  EXPECT_TRUE(has_stem_rule);
}

TEST_F(RuleGeneratorTest, DeletionCostFlowsFromOptions) {
  RuleGeneratorOptions options;
  options.deletion_cost = 5.5;
  RuleGenerator generator(corpus_.index.get(), &lexicon_, options);
  RuleSet rules = generator.GenerateFor({"xml"});
  EXPECT_DOUBLE_EQ(rules.deletion_cost(), 5.5);
}

TEST_F(RuleGeneratorTest, DeletionCostExceedsUnitRuleCosts) {
  // The paper's principle: deletion must cost more than any other single
  // operation.
  RuleSet rules = generator_->GenerateFor(
      {"databse", "data", "base", "www", "publication"});
  for (const auto& r : rules.rules()) {
    EXPECT_LE(r.ds, rules.deletion_cost()) << r.DebugString();
  }
}

TEST_F(RuleGeneratorTest, SpellingCandidatesAreBounded) {
  RuleGeneratorOptions options;
  options.max_spelling_candidates = 1;
  RuleGenerator generator(corpus_.index.get(), &lexicon_, options);
  RuleSet rules = generator.GenerateFor({"databse"});
  size_t spelling = 0;
  for (const auto& r : rules.rules()) {
    if (r.lhs == std::vector<std::string>{"databse"}) ++spelling;
  }
  EXPECT_LE(spelling, 1u);
}

// Pins the mined RuleSets — spelling candidates above all — byte for byte
// across edit-distance budgets and candidate caps: one FNV-1a digest over
// every rule's DebugString. Generated while the full-vocabulary banded
// edit-distance scan was still the reference the deletion-neighborhood
// index was checked against, so it carries that equivalence forward. To
// regenerate after an intended change, copy the "actual" digest printed.
TEST_F(RuleGeneratorTest, SpellingRuleSetsMatchGoldenDigest) {
  const std::vector<Query> queries = {
      {"databse", "xml"},           {"machne", "learnig"},
      {"skylin", "computaton"},     {"wolrd", "wide", "web"},
      {"twig", "pattrn", "matchng"}, {"onlin", "databas", "serch"}};
  uint64_t h = 1469598103934665603ull;
  auto fold = [&h](const std::string& bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (int max_d : {1, 2}) {
    for (size_t cap : {size_t{1}, size_t{4}}) {
      RuleGeneratorOptions options;
      options.max_edit_distance = max_d;
      options.max_spelling_candidates = cap;
      RuleGenerator generator(corpus_.index.get(), &lexicon_, options);
      for (const Query& q : queries) {
        RuleSet rules = generator.GenerateFor(q);
        for (const auto& r : rules.rules()) {
          fold(r.DebugString());
          fold("\n");
        }
        fold("|");
      }
    }
  }
  EXPECT_EQ(h, 0x831255096ea584c9ull) << "actual 0x" << std::hex << h << "ull";
}

TEST(RuleSetTest, IndexesRulesByLastLhsKeyword) {
  RuleSet rules;
  rules.Add(RefinementRule{
      {"on", "line"}, {"online"}, RefineOp::kMerging, 1.0});
  rules.Add(RefinementRule{{"line"}, {"lines"}, RefineOp::kSubstitution, 1.0});
  const auto* ending = rules.RulesEndingWith("line");
  ASSERT_NE(ending, nullptr);
  EXPECT_EQ(ending->size(), 2u);
  EXPECT_EQ(rules.RulesEndingWith("on"), nullptr);
}

TEST(RuleSetTest, NewKeywordsExcludesQueryTerms) {
  RuleSet rules;
  rules.Add(RefinementRule{{"a"}, {"b", "c"}, RefineOp::kSubstitution, 1.0});
  rules.Add(RefinementRule{{"d"}, {"c", "e"}, RefineOp::kSubstitution, 1.0});
  auto fresh = rules.NewKeywords({"a", "e"});
  EXPECT_EQ(fresh, (std::vector<std::string>{"b", "c"}));
}

}  // namespace
}  // namespace xrefine::core
