// Golden outcomes for the three refinement algorithms. Each configuration
// (algorithm x in-memory/store-backed source x DBLP/Baseball corpus) runs a
// seeded query set and folds every outcome — RQ keywords, dissimilarity,
// similarity, dependence, rank and result Deweys — into one FNV-1a digest.
// The digests pin exact outcomes: a rewrite of an algorithm's scan loop that
// changes any answer, score or result order fails here, however small.
//
// To regenerate after an intended semantic change, run the test and copy
// the "actual" digests it prints into kGolden.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/xrefine.h"
#include "index/index_store.h"
#include "index/store_index_source.h"
#include "storage/kvstore.h"
#include "text/lexicon.h"
#include "workload/baseball_generator.h"
#include "workload/corruption.h"
#include "workload/dblp_generator.h"
#include "workload/query_generator.h"

namespace xrefine::core {
namespace {

constexpr size_t kQueriesPerCorpus = 80;

uint64_t Fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Canonical(const RefineOutcome& outcome) {
  std::string out = outcome.status.ToString();
  out += outcome.needs_refinement ? "|R" : "|N";
  for (const auto& r : outcome.original_results) {
    out += ' ';
    out += r.dewey.ToString();
  }
  char buf[128];
  for (const RankedRq& rq : outcome.refined) {
    out += '\n';
    for (const std::string& k : rq.rq.keywords) {
      out += k;
      out += ',';
    }
    std::snprintf(buf, sizeof(buf), " %.17g %.17g %.17g %.17g",
                  rq.rq.dissimilarity, rq.similarity, rq.dependence, rq.rank);
    out += buf;
    for (const auto& r : rq.results) {
      out += ' ';
      out += r.dewey.ToString();
    }
  }
  return out;
}

/// One generated corpus, its store-backed twin and a seeded query set.
struct GoldenCorpus {
  xml::Document doc;
  std::unique_ptr<index::IndexedCorpus> index;
  std::unique_ptr<storage::KVStore> store;
  std::unique_ptr<index::StoreBackedIndexSource> store_source;
  std::vector<Query> queries;
};

std::unique_ptr<GoldenCorpus> MakeGoldenCorpus(xml::Document doc,
                                               const std::string& target_tag,
                                               uint64_t query_seed,
                                               const text::Lexicon& lexicon) {
  auto c = std::make_unique<GoldenCorpus>();
  c->doc = std::move(doc);
  c->index = index::BuildIndex(c->doc);
  auto store_or = storage::KVStore::Open("");
  EXPECT_TRUE(store_or.ok());
  c->store = std::move(store_or).value();
  EXPECT_TRUE(index::SaveCorpus(*c->index, c->store.get()).ok());
  index::StoreIndexSourceOptions source_options;
  // Small enough that the query set evicts lists mid-run.
  source_options.cache_capacity_bytes = 16u << 10;
  auto source_or =
      index::StoreBackedIndexSource::Open(c->store.get(), source_options);
  EXPECT_TRUE(source_or.ok());
  c->store_source = std::move(source_or).value();

  workload::Corruptor corruptor(&c->index->index(), &lexicon);
  workload::QueryGeneratorOptions qg;
  qg.target_tag = target_tag;
  qg.seed = query_seed;
  workload::QueryGenerator qgen(&c->doc, c->index.get(), &corruptor, qg);
  for (const auto& cq : qgen.GeneratePool(kQueriesPerCorpus)) {
    c->queries.push_back(cq.corrupted);
  }
  return c;
}

class RefineGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lexicon_ = new text::Lexicon(text::Lexicon::BuiltIn());
    workload::DblpOptions dblp;
    dblp.num_authors = 120;
    dblp.seed = 17;
    dblp_ = MakeGoldenCorpus(workload::GenerateDblp(dblp), "inproceedings",
                             101, *lexicon_)
                .release();
    workload::BaseballOptions baseball;
    baseball.teams_per_division = 3;
    baseball.players_per_team = 15;
    baseball.seed = 29;
    baseball_ = MakeGoldenCorpus(workload::GenerateBaseball(baseball),
                                 "player", 202, *lexicon_)
                    .release();
  }
  static void TearDownTestSuite() {
    delete baseball_;
    delete dblp_;
    delete lexicon_;
  }

  static uint64_t Digest(const GoldenCorpus& c, RefineAlgorithm algorithm,
                         bool store_backed) {
    XRefineOptions options;
    options.algorithm = algorithm;
    const index::IndexSource* source =
        store_backed ? static_cast<const index::IndexSource*>(
                           c.store_source.get())
                     : c.index.get();
    XRefine engine(source, lexicon_, options);
    uint64_t h = 1469598103934665603ull;
    for (const Query& q : c.queries) h = Fnv1a(Canonical(engine.Run(q)), h);
    return h;
  }

  static text::Lexicon* lexicon_;
  static GoldenCorpus* dblp_;
  static GoldenCorpus* baseball_;
};

text::Lexicon* RefineGoldenTest::lexicon_ = nullptr;
GoldenCorpus* RefineGoldenTest::dblp_ = nullptr;
GoldenCorpus* RefineGoldenTest::baseball_ = nullptr;

struct Golden {
  const char* corpus;
  RefineAlgorithm algorithm;
  uint64_t digest;  // the same for the in-memory and store-backed source
};

// Generated with the string-keyed scan loops that preceded the keyword
// bitmasks; the bitmask loops reproduce them exactly.
constexpr Golden kGolden[] = {
    {"dblp", RefineAlgorithm::kPartition, 0x1ce6108b4a7a6311ull},
    {"dblp", RefineAlgorithm::kShortListEager, 0x5ddac305b6ecc628ull},
    {"dblp", RefineAlgorithm::kStackRefine, 0x643b5404a3e03300ull},
    {"baseball", RefineAlgorithm::kPartition, 0x97f94bdd680f1577ull},
    {"baseball", RefineAlgorithm::kShortListEager, 0x97f94bdd680f1577ull},
    {"baseball", RefineAlgorithm::kStackRefine, 0x76e1b0500d9b3f38ull},
};

// The digests only pin something if the query sets exercise refinement:
// most queries must come back with ranked refinements and results.
TEST_F(RefineGoldenTest, QuerySetsAreNonTrivial) {
  for (const GoldenCorpus* c : {dblp_, baseball_}) {
    ASSERT_EQ(c->queries.size(), kQueriesPerCorpus);
    XRefine engine(c->index.get(), lexicon_, XRefineOptions{});
    size_t refined = 0;
    for (const Query& q : c->queries) {
      RefineOutcome out = engine.Run(q);
      if (out.needs_refinement && !out.refined.empty() &&
          !out.refined.front().results.empty()) {
        ++refined;
      }
    }
    EXPECT_GE(refined, kQueriesPerCorpus / 2);
  }
}

TEST_F(RefineGoldenTest, OutcomesMatchGoldenDigests) {
  for (const Golden& g : kGolden) {
    const GoldenCorpus& c =
        std::string(g.corpus) == "dblp" ? *dblp_ : *baseball_;
    for (bool store_backed : {false, true}) {
      uint64_t actual = Digest(c, g.algorithm, store_backed);
      EXPECT_EQ(actual, g.digest)
          << g.corpus << " " << RefineAlgorithmName(g.algorithm)
          << (store_backed ? " store" : " memory") << ": actual 0x"
          << std::hex << actual << "ull";
    }
  }
}

}  // namespace
}  // namespace xrefine::core
