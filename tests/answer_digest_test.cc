// Golden answer digest: every question of all five benchmarks at scale
// 0.05, answered by KGQAn (serial pipeline, QU inference shim off) and by
// both baselines, must produce exactly the answers recorded in
// tests/data/answer_digest.txt.  Thresholds such as "macro F1 > 0.15"
// let a refactor change answers and still pass; this test does not.
//
// The file holds one hash per (system, benchmark, question index) over
// the response flags and the answers sorted by their N-Triples rendering,
// plus one digest over all of them.  On a mismatch the test names the
// first question whose answers differ.  A change that alters answers on
// purpose regenerates the file with
//
//   answer_digest_test --record
//
// and says why in CHANGES.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/edgqa_like.h"
#include "baselines/ganswer_like.h"
#include "benchgen/benchmark.h"
#include "core/engine.h"
#include "rdf/term.h"
#include "util/rng.h"

namespace kgqan {

// Set by --record in main(): write the file instead of checking it.
bool g_record = false;

namespace {

constexpr double kScale = 0.05;

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// One line of the digest file: which question, and its answer hash.
struct Entry {
  std::string system;
  std::string benchmark;
  size_t question = 0;
  std::string hash;
  std::string text;  // The question, for failure messages; not stored.

  std::string Line() const {
    return system + " " + benchmark + " " + std::to_string(question) + " " +
           hash;
  }
};

std::string AnswerHash(const core::QaResponse& r) {
  std::vector<std::string> answers;
  answers.reserve(r.answers.size());
  for (const rdf::Term& a : r.answers) answers.push_back(rdf::ToNTriples(a));
  std::sort(answers.begin(), answers.end());
  std::string buf;
  buf += r.understood ? 'u' : '-';
  buf += r.is_boolean ? (r.boolean_answer ? 'T' : 'F') : '-';
  for (const std::string& a : answers) {
    buf += '\x1f';
    buf += a;
  }
  return Hex(util::Fnv1a64(buf));
}

std::vector<Entry> ComputeEntries() {
  std::vector<Entry> entries;
  for (benchgen::BenchmarkId id : benchgen::AllBenchmarks()) {
    benchgen::Benchmark bench = benchgen::BuildBenchmark(id, kScale);

    core::KgqanConfig config;
    config.num_threads = 1;
    config.qu.inference.enabled = false;
    core::KgqanEngine kgqan(config);
    baselines::GAnswerLike ganswer;
    baselines::EdgqaLike edgqa;
    if (id == benchgen::BenchmarkId::kDblp) {
      edgqa.ConfigureLabelPredicates(
          bench.endpoint->name(), {"http://purl.org/dc/terms/title",
                                   "http://xmlns.com/foaf/0.1/name"});
    } else if (id == benchgen::BenchmarkId::kMag) {
      edgqa.ConfigureLabelPredicates(bench.endpoint->name(),
                                     {"http://xmlns.com/foaf/0.1/name"});
    }
    ganswer.Preprocess(*bench.endpoint);
    edgqa.Preprocess(*bench.endpoint);

    core::QaSystem* systems[] = {&kgqan, &ganswer, &edgqa};
    for (core::QaSystem* system : systems) {
      for (size_t q = 0; q < bench.questions.size(); ++q) {
        const std::string& text = bench.questions[q].text;
        core::QaResponse r = system->Answer(text, *bench.endpoint);
        entries.push_back(Entry{system->name(), bench.name, q, AnswerHash(r),
                                text});
      }
    }
  }
  return entries;
}

std::string Digest(const std::vector<Entry>& entries) {
  std::string buf;
  for (const Entry& e : entries) buf += e.Line() + "\n";
  return Hex(util::Fnv1a64(buf));
}

TEST(AnswerDigestTest, AnswersMatchGoldenDigest) {
  std::vector<Entry> entries = ComputeEntries();
  ASSERT_FALSE(entries.empty());
  const std::string digest = Digest(entries);
  const std::string path = KGQAN_ANSWER_DIGEST_FILE;

  if (g_record) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << "# Golden answers: all five benchmarks at scale 0.05, KGQAn "
           "(num_threads=1, QU shim off) and both baselines.\n"
        << "# Regenerate with `answer_digest_test --record` only when "
           "answers change on purpose.\n"
        << "digest " << digest << "\n";
    for (const Entry& e : entries) out << e.Line() << "\n";
    std::printf("[record] wrote %zu entries, digest %s, to %s\n",
                entries.size(), digest.c_str(), path.c_str());
    return;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "golden digest file " << path
                  << " is missing; run answer_digest_test --record";
  std::string golden_digest;
  std::vector<std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("digest ", 0) == 0) {
      golden_digest = line.substr(7);
      continue;
    }
    golden.push_back(line);
  }

  for (size_t i = 0; i < entries.size() && i < golden.size(); ++i) {
    ASSERT_EQ(entries[i].Line(), golden[i])
        << "first question whose answers differ: " << entries[i].system
        << " on " << entries[i].benchmark << ", question "
        << entries[i].question << ": \"" << entries[i].text << "\"";
  }
  ASSERT_EQ(entries.size(), golden.size())
      << "number of answered questions differs from the golden file";
  EXPECT_EQ(digest, golden_digest);
}

}  // namespace
}  // namespace kgqan

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--record") kgqan::g_record = true;
  }
  return RUN_ALL_TESTS();
}
