// Bibliographic search over a generated DBLP-style corpus: builds a
// realistic-size synthetic bibliography, persists its index into the
// on-disk B+-tree store, reloads it, and runs refined keyword queries —
// the full paper pipeline including Section VII's index construction.
//
//   ./build/examples/bibliographic_search [num_authors]
#include <cstdlib>
#include <iostream>

#include "common/timer.h"
#include "core/xrefine.h"
#include "index/index_builder.h"
#include "index/index_store.h"
#include "storage/kvstore.h"
#include "text/lexicon.h"
#include "workload/dblp_generator.h"
#include "workload/query_generator.h"

int main(int argc, char** argv) {
  size_t num_authors = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 400;

  // 1. Generate the corpus.
  xrefine::Timer timer;
  xrefine::workload::DblpOptions gen_options;
  gen_options.num_authors = num_authors;
  auto doc = xrefine::workload::GenerateDblp(gen_options);
  std::cout << "generated " << doc.NodeCount() << " nodes in "
            << timer.ElapsedMillis() << " ms\n";

  // 2. Build and persist the index (Section VII).
  timer.Reset();
  auto corpus = xrefine::index::BuildIndex(doc);
  std::cout << "indexed " << corpus->index().keyword_count()
            << " keywords in " << timer.ElapsedMillis() << " ms\n";

  const std::string store_path = "/tmp/xrefine_biblio_index.db";
  std::remove(store_path.c_str());
  timer.Reset();
  auto store_or = xrefine::storage::KVStore::Open(store_path);
  if (!store_or.ok()) {
    std::cerr << store_or.status() << "\n";
    return 1;
  }
  auto status =
      xrefine::index::SaveCorpus(*corpus, store_or.value().get());
  if (!status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  std::cout << "persisted index (" << store_or.value()->size()
            << " keys) in " << timer.ElapsedMillis() << " ms\n";

  // 3. Reload from disk, attach the document for snippets.
  timer.Reset();
  auto loaded_or = xrefine::index::LoadCorpus(*store_or.value());
  if (!loaded_or.ok()) {
    std::cerr << loaded_or.status() << "\n";
    return 1;
  }
  auto loaded = std::move(loaded_or).value();
  loaded->set_document_view(&doc);
  std::cout << "reloaded index in " << timer.ElapsedMillis() << " ms\n";

  // 4. Generate a few corrupted queries and refine them.
  auto lexicon = xrefine::text::Lexicon::BuiltIn();
  xrefine::core::XRefine engine(loaded.get(), &lexicon, {});

  xrefine::workload::Corruptor corruptor(&loaded->index(), &lexicon);
  xrefine::workload::QueryGeneratorOptions qg_options;
  qg_options.target_tag = "inproceedings";
  xrefine::workload::QueryGenerator qgen(&doc, loaded.get(), &corruptor,
                                         qg_options);

  for (int i = 0; i < 5; ++i) {
    auto cq = qgen.GenerateAny();
    if (!cq.has_value()) break;
    std::cout << "\nintended " << xrefine::core::QueryToString(cq->intended)
              << "\ncorrupted " << xrefine::core::QueryToString(cq->corrupted)
              << "  [" << xrefine::workload::CorruptionKindName(cq->kind)
              << "]\n";
    timer.Reset();
    auto outcome = engine.Run(cq->corrupted);
    double ms = timer.ElapsedMillis();
    std::cout << "refined in " << ms << " ms, needs refinement: "
              << (outcome.needs_refinement ? "yes" : "no") << "\n";
    for (const auto& ranked : outcome.refined) {
      std::cout << "  RQ " << xrefine::core::QueryToString(ranked.rq.keywords)
                << "  dSim=" << ranked.rq.dissimilarity << "  results="
                << ranked.results.size() << "\n";
    }
  }
  return 0;
}
