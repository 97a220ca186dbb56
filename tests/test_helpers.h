// Shared fixtures: the paper's Figure 1 document and helpers.
#ifndef XREFINE_TESTS_TEST_HELPERS_H_
#define XREFINE_TESTS_TEST_HELPERS_H_

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "index/index_builder.h"
#include "xml/document.h"
#include "xml/xml_parser.h"

namespace xrefine::testutil {

// The running example of the paper (Figure 1), abridged: two authors, the
// first with an inproceedings and an article, the second with publications
// and a hobby.
inline constexpr const char* kFigure1Xml = R"(
<bib>
  <author>
    <name>John Martin</name>
    <publications>
      <inproceedings>
        <title>efficient XML keyword search on online database</title>
        <year>2003</year>
        <booktitle>sigmod</booktitle>
      </inproceedings>
      <article>
        <title>XML twig pattern matching</title>
        <year>2005</year>
        <journal>vldb</journal>
      </article>
    </publications>
  </author>
  <author>
    <name>Mary Smith</name>
    <publications>
      <inproceedings>
        <title>skyline computation over data stream</title>
        <year>2006</year>
        <booktitle>icde</booktitle>
      </inproceedings>
      <article>
        <title>machine learning for world wide web search</title>
        <year>2004</year>
        <journal>kdd</journal>
      </article>
    </publications>
    <hobby>tennis</hobby>
  </author>
</bib>
)";

inline xml::Document ParseFigure1() {
  auto doc = xml::ParseXml(kFigure1Xml);
  if (!doc.ok()) std::abort();
  return std::move(doc).value();
}

/// A document plus its index, tied together for lifetime safety.
struct Corpus {
  std::unique_ptr<xml::Document> doc;
  std::unique_ptr<index::IndexedCorpus> index;
};

inline Corpus MakeCorpus(const std::string& xml_text) {
  Corpus c;
  auto doc = xml::ParseXml(xml_text);
  if (!doc.ok()) std::abort();
  c.doc = std::make_unique<xml::Document>(std::move(doc).value());
  c.index = index::BuildIndex(*c.doc);
  return c;
}

inline Corpus MakeFigure1Corpus() { return MakeCorpus(kFigure1Xml); }

/// All Dewey labels of `results`, as strings, for compact assertions.
template <typename Results>
std::vector<std::string> DeweyStrings(const Results& results) {
  std::vector<std::string> out;
  for (const auto& r : results) out.push_back(r.dewey.ToString());
  return out;
}

/// A hand-built one-posting v3 record (every varint spelled out) whose
/// label (0, 2^32-1) carries a Dewey component no builder emits: in the
/// block payload only (the max label says (0, 5)), or, with
/// `in_max_label`, in the block's max label too.
inline std::string MaxComponentPostingRecord(bool in_max_label) {
  const std::string max_varint("\xff\xff\xff\xff\x0f", 5);
  std::string payload("\x00\x00\x02\x00", 4);  // type, reuse 0, fresh 2, 0
  payload += max_varint;
  std::string record("\x03\x01\x01", 3);  // v3, total 1, capacity 1
  record.push_back(static_cast<char>(payload.size()));
  record.append("\x01\x02\x00", 3);  // count 1, max depth 2, component 0
  record += in_max_label ? max_varint : std::string("\x05", 1);
  return record + payload;
}

#ifdef XREFINE_FUZZ_CORPUS_DIR
/// The stored record carried by a committed posting_decode fuzz-corpus
/// file (the file minus the harness's 8 leading probe bytes).
inline std::string PostingCorpusRecord(const std::string& name) {
  std::ifstream in(
      std::string(XREFINE_FUZZ_CORPUS_DIR) + "/posting_decode/" + name,
      std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes.size() > 8 ? bytes.substr(8) : std::string();
}
#endif

}  // namespace xrefine::testutil

#endif  // XREFINE_TESTS_TEST_HELPERS_H_
