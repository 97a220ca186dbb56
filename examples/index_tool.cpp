// Offline index builder / inspector: the Section VII pipeline as a tool.
//
//   ./build/examples/index_tool build <data.xml> <index.db>
//   ./build/examples/index_tool stats <index.db>
//   ./build/examples/index_tool lookup <index.db> <keyword>
#include <cstring>
#include <functional>
#include <iostream>

#include "common/timer.h"
#include "index/index_builder.h"
#include "index/index_store.h"
#include "storage/kvstore.h"
#include "xml/xml_parser.h"

namespace {

int Build(const std::string& xml_path, const std::string& db_path) {
  xrefine::Timer timer;
  auto doc_or = xrefine::xml::ParseXmlFile(xml_path);
  if (!doc_or.ok()) {
    std::cerr << "parse: " << doc_or.status() << "\n";
    return 1;
  }
  std::cout << "parsed " << doc_or->NodeCount() << " nodes in "
            << timer.ElapsedMillis() << " ms\n";

  timer.Reset();
  auto corpus = xrefine::index::BuildIndex(*doc_or);
  std::cout << "built index: " << corpus->index().keyword_count()
            << " keywords, " << corpus->types().size() << " node types in "
            << timer.ElapsedMillis() << " ms\n";

  timer.Reset();
  auto store_or = xrefine::storage::KVStore::Open(db_path);
  if (!store_or.ok()) {
    std::cerr << "open: " << store_or.status() << "\n";
    return 1;
  }
  auto status = xrefine::index::SaveCorpus(*corpus, store_or.value().get());
  if (!status.ok()) {
    std::cerr << "save: " << status << "\n";
    return 1;
  }
  std::cout << "persisted " << store_or.value()->size() << " records to "
            << db_path << " in " << timer.ElapsedMillis() << " ms\n";
  return 0;
}

int WithLoadedCorpus(
    const std::string& db_path,
    const std::function<int(const xrefine::index::IndexedCorpus&)>& fn) {
  auto store_or = xrefine::storage::KVStore::Open(db_path);
  if (!store_or.ok()) {
    std::cerr << "open: " << store_or.status() << "\n";
    return 1;
  }
  auto corpus_or = xrefine::index::LoadCorpus(*store_or.value());
  if (!corpus_or.ok()) {
    std::cerr << "load: " << corpus_or.status() << "\n";
    return 1;
  }
  return fn(**corpus_or);
}

int Stats(const std::string& db_path) {
  return WithLoadedCorpus(db_path, [](const auto& corpus) {
    std::cout << "keywords:   " << corpus.index().keyword_count() << "\n";
    std::cout << "node types: " << corpus.types().size() << "\n";
    size_t postings = 0;
    for (const auto& [k, list] : corpus.index().lists()) {
      postings += list.size();
    }
    std::cout << "postings:   " << postings << "\n";
    std::cout << "top node types by instance count:\n";
    std::vector<std::pair<uint32_t, xrefine::xml::TypeId>> by_count;
    for (xrefine::xml::TypeId t = 0; t < corpus.types().size(); ++t) {
      by_count.emplace_back(corpus.stats().node_count(t), t);
    }
    std::sort(by_count.rbegin(), by_count.rend());
    for (size_t i = 0; i < std::min<size_t>(10, by_count.size()); ++i) {
      std::cout << "  " << by_count[i].first << "  "
                << corpus.types().path(by_count[i].second) << "  (G="
                << corpus.stats().distinct_keywords(by_count[i].second)
                << ")\n";
    }
    return 0;
  });
}

int Lookup(const std::string& db_path, const std::string& keyword) {
  return WithLoadedCorpus(db_path, [&](const auto& corpus) {
    const auto* list = corpus.index().Find(keyword);
    if (list == nullptr) {
      std::cout << "keyword \"" << keyword << "\" not in corpus\n";
      return 0;
    }
    std::cout << "\"" << keyword << "\": " << list->size() << " postings\n";
    for (size_t i = 0; i < list->size(); ++i) {
      if (i >= 10) {
        std::cout << "  ...\n";
        break;
      }
      std::cout << "  " << list->DeweyAt(i).ToString() << "  "
                << corpus.types().path(list->type(i)) << "\n";
    }
    return 0;
  });
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 4 && std::strcmp(argv[1], "build") == 0) {
    return Build(argv[2], argv[3]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "stats") == 0) {
    return Stats(argv[2]);
  }
  if (argc >= 4 && std::strcmp(argv[1], "lookup") == 0) {
    return Lookup(argv[2], argv[3]);
  }
  std::cerr << "usage:\n  index_tool build <data.xml> <index.db>\n"
               "  index_tool stats <index.db>\n"
               "  index_tool lookup <index.db> <keyword>\n";
  return 1;
}
