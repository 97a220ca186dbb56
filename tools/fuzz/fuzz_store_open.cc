// Fuzz surface: the whole store-open path over an untrusted file image.
// The input bytes ARE the page file: KVStore::Open, the metadata decoders
// (node types, statistics, co-occurrence cache), LoadCorpus over every
// stored posting record, and StoreBackedIndexSource::Open with its
// header-only vocabulary scan, then FetchList — every layer must either
// reject the image with a clean Status or serve it without crashing. This
// is the closest harness to "an attacker hands the engine a database file".
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "index/cooccurrence.h"
#include "index/index_store.h"
#include "index/statistics.h"
#include "index/store_index_source.h"
#include "storage/kvstore.h"
#include "storage/pager.h"
#include "tools/fuzz/fuzz_driver.h"
#include "xml/node_type.h"

namespace {

std::string ScratchPath() {
  static const std::string path =
      "fuzz_store_open." + std::to_string(::getpid()) + ".tmp";
  static const bool registered = [] {
    std::atexit([] {
      std::remove(("fuzz_store_open." + std::to_string(::getpid()) + ".tmp")
                      .c_str());
    });
    return true;
  }();
  (void)registered;
  return path;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  namespace storage = xrefine::storage;
  namespace index = xrefine::index;

  // The image verbatim — NOT padded. A length that is no multiple of the
  // page size must be rejected by the pager, and that rejection path is
  // part of the surface; seeds are whole-page images, so mutations mostly
  // keep exercising the deeper layers.
  const std::string path = ScratchPath();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    if (!out) return 0;
  }

  storage::PagerOptions pager_options;
  pager_options.max_cached_pages = 64;
  auto store_or = storage::KVStore::Open(path, pager_options);
  if (!store_or.ok()) return 0;
  const auto& store = store_or.value();

  // Metadata-only load (what the store-backed source boots through).
  {
    xrefine::xml::NodeTypeTable types;
    index::StatisticsTable stats;
    index::CooccurrenceTable cooccurrence(nullptr, &types);
    (void)index::LoadCorpusMetadata(*store, &types, &stats, &cooccurrence);
  }

  // Full eager load: decodes every posting record in the file.
  (void)index::LoadCorpus(*store);

  // Store-backed source: header-only vocabulary scan on open, then a
  // bounded set of real fetches so the record bodies get decoded through
  // the cache.
  index::StoreIndexSourceOptions source_options;
  source_options.cache_capacity_bytes = 1 << 16;
  auto source_or =
      index::StoreBackedIndexSource::Open(store.get(), source_options);
  if (!source_or.ok()) return 0;
  const auto& source = source_or.value();
  std::vector<std::string> keywords;
  source->ForEachKeyword([&](std::string_view keyword) {
    if (keywords.size() < 16) keywords.emplace_back(keyword);
  });
  for (const std::string& keyword : keywords) {
    (void)source->ListSize(keyword);
    (void)source->FetchList(keyword);
  }
  return 0;
}
