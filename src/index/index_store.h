// Persists an IndexedCorpus into the KVStore (the paper stores its indexes
// in Berkeley DB B-trees, Section VII) and loads it back. Key spaces:
//   "m\0types"      node-type table
//   "m\0typestats"  N_T and G_T per type
//   "i\0<keyword>"  inverted list
//   "f\0<keyword>"  frequent-table row (df/tf per type)
#ifndef XREFINE_INDEX_INDEX_STORE_H_
#define XREFINE_INDEX_INDEX_STORE_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/statusor.h"
#include "index/index_builder.h"
#include "storage/kvstore.h"

namespace xrefine::index {

/// The store key of `keyword`'s inverted list ("i\0<keyword>").
std::string InvertedListKey(std::string_view keyword);

/// The store key of `keyword`'s frequent-table row ("f\0<keyword>").
std::string FreqRowKey(std::string_view keyword);

/// Writes the corpus into `store` and flushes it. A non-empty store is
/// first cleared of inverted-list and frequent-table keys that the new
/// corpus does not contain — without this, saving a smaller corpus over a
/// larger one would leave stale keywords that a reload resurrects.
/// Inverted lists are written in the blocked format (posting_blocks.h).
[[nodiscard]] Status SaveCorpus(const IndexedCorpus& corpus,
                                storage::KVStore* store);

/// Reads a corpus back. The result has no Document attached; queries still
/// run (results are Dewey labels), but subtree snippets are unavailable.
/// A record in any format but version 3 fails the load with Corruption.
[[nodiscard]] StatusOr<std::unique_ptr<IndexedCorpus>> LoadCorpus(
    const storage::KVStore& store);

/// Loads everything about a saved corpus EXCEPT the inverted lists: node
/// types, per-type statistics, per-keyword frequent-table rows, and the
/// persisted co-occurrence cache. The store-backed source boots through
/// this so opening a corpus never materialises a posting list.
[[nodiscard]] Status LoadCorpusMetadata(const storage::KVStore& store,
                                        xml::NodeTypeTable* types,
                                        StatisticsTable* stats,
                                        CooccurrenceTable* cooccurrence);

}  // namespace xrefine::index

#endif  // XREFINE_INDEX_INDEX_STORE_H_
