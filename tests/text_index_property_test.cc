// Property test for the full-text index: TextIndex::MatchLiterals (the
// k-way posting merge) must return exactly the vector the test-only
// hash-map ReferenceMatchLiterals (reference_text_index.h) returns — same
// ids, same rank order, same truncation — on random literal corpora with
// skewed word frequencies (a few words shared by most literals, a long
// tail of rare ones) and random bif:contains queries: ORs of single words
// (the linker's shape), AND groups, repeated words, words absent from the
// index and more distinct words than a 64-bit mask holds, at limits 0, 1,
// small, and at or above the match count.
//
// The binary has its own main: `--seed=N` (or the KGQAN_PROPERTY_SEED
// environment variable) reseeds the generator, so CI can rotate seeds and
// a failure is reproducible locally with the printed flag.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/graph.h"
#include "reference_text_index.h"
#include "store/triple_store.h"
#include "text/text_index.h"
#include "util/rng.h"

namespace kgqan::text {

// Set from --seed / KGQAN_PROPERTY_SEED in main() before RUN_ALL_TESTS.
uint64_t g_property_seed = 0x7E47u;

namespace {

// Vocabulary word `i` ("w" + i); absent words use another prefix.
std::string NumberedWord(const char* prefix, int64_t i) {
  std::string word(prefix);
  word += std::to_string(i);
  return word;
}

class CorpusGen {
 public:
  CorpusGen(uint64_t seed, int vocabulary)
      : rng_(seed), vocabulary_(vocabulary) {}

  // A word of the vocabulary, skewed towards low indices: w0 lands in
  // roughly a third of all draws, the tail words rarely.
  std::string Word() {
    const double u = double(rng_.UniformInt(0, 1 << 20)) / double(1 << 20);
    const int idx = static_cast<int>(std::pow(u, 3.0) * vocabulary_);
    return NumberedWord("w", std::min(idx, vocabulary_ - 1));
  }
  // A word no literal contains.
  std::string AbsentWord() {
    return NumberedWord("absent", rng_.UniformInt(0, 9));
  }

  rdf::Graph Corpus(int literals) {
    rdf::Graph g;
    for (int i = 0; i < literals; ++i) {
      std::string text;
      const int n_words = static_cast<int>(rng_.UniformInt(1, 8));
      for (int w = 0; w < n_words; ++w) {
        text += (w == 0 ? "" : (rng_.UniformInt(0, 3) == 0 ? ", " : " "));
        text += Word();
      }
      const std::string subject = NumberedWord("http://t/e", i);
      switch (rng_.UniformInt(0, 9)) {
        case 0:  // Language-tagged: indexed.
          g.AddIri(subject, "http://t/label", rdf::LangLiteral(text, "en"));
          break;
        case 1:  // Numeric: never indexed.
          g.AddIri(subject, "http://t/count", rdf::IntLiteral(i));
          break;
        case 2:  // The same literal under a second subject.
          g.AddIri(subject, "http://t/label", rdf::StringLiteral(text));
          g.AddIri(subject + "b", "http://t/alias", rdf::StringLiteral(text));
          break;
        default:
          g.AddIri(subject, "http://t/label", rdf::StringLiteral(text));
      }
    }
    return g;
  }

  std::string QueryWord() {
    return rng_.UniformInt(0, 9) == 0 ? AbsentWord() : Word();
  }

  ContainsQuery Query() {
    ContainsQuery q;
    switch (rng_.UniformInt(0, 3)) {
      case 0:
      case 1: {  // OR of single words: the JIT linker's probe shape.
        const int n = static_cast<int>(rng_.UniformInt(1, 8));
        for (int i = 0; i < n; ++i) q.or_groups.push_back({QueryWord()});
        break;
      }
      case 2: {  // AND groups, some with a repeated word.
        const int n = static_cast<int>(rng_.UniformInt(1, 4));
        for (int i = 0; i < n; ++i) {
          std::vector<std::string> group;
          const int size = static_cast<int>(rng_.UniformInt(1, 3));
          for (int w = 0; w < size; ++w) group.push_back(QueryWord());
          if (rng_.UniformInt(0, 4) == 0) group.push_back(group.front());
          q.or_groups.push_back(std::move(group));
        }
        break;
      }
      default: {  // More distinct words than a 64-bit mask, plus an AND.
        const int n = static_cast<int>(rng_.UniformInt(65, 100));
        for (int i = 0; i < n; ++i) {
          q.or_groups.push_back({NumberedWord("w", i % vocabulary_)});
        }
        q.or_groups.push_back({Word(), Word()});
        for (size_t g = 0; g < q.or_groups.size(); ++g) {
          std::swap(q.or_groups[g],
                    q.or_groups[rng_.UniformInt(0, int64_t(g))]);
        }
        break;
      }
    }
    // A word repeated across groups.
    if (rng_.UniformInt(0, 4) == 0) {
      q.or_groups.push_back({q.or_groups.front().front()});
    }
    return q;
  }

  util::Rng& rng() { return rng_; }

 private:
  util::Rng rng_;
  int vocabulary_;
};

std::string Describe(const ContainsQuery& q) {
  std::string out;
  for (const auto& group : q.or_groups) {
    if (!out.empty()) out += " OR ";
    for (size_t i = 0; i < group.size(); ++i) {
      out += (i == 0 ? "" : " AND ") + group[i];
    }
  }
  return out;
}

TEST(TextIndexPropertyTest, MergeEqualsReferenceAtEveryLimit) {
  constexpr int kCorpora = 16;
  constexpr int kQueriesPerCorpus = 40;
  util::Rng master(g_property_seed);
  size_t nonempty = 0;
  size_t truncated = 0;
  for (int round = 0; round < kCorpora; ++round) {
    const int vocabulary = static_cast<int>(master.UniformInt(70, 300));
    CorpusGen gen(master.Next(), vocabulary);
    const int literals = static_cast<int>(gen.rng().UniformInt(50, 1500));
    store::TripleStore store(gen.Corpus(literals));
    TextIndex index(store);
    for (int c = 0; c < kQueriesPerCorpus; ++c) {
      ContainsQuery query = gen.Query();
      const size_t matches =
          reference::ReferenceMatchLiterals(
              index, query, std::numeric_limits<size_t>::max())
              .size();
      const size_t limits[] = {
          0,
          1,
          static_cast<size_t>(gen.rng().UniformInt(2, 20)),
          matches + static_cast<size_t>(gen.rng().UniformInt(0, 3)),
          std::numeric_limits<size_t>::max(),
      };
      for (size_t limit : limits) {
        SCOPED_TRACE("seed " + std::to_string(g_property_seed) + " round " +
                     std::to_string(round) + " query " + std::to_string(c) +
                     " limit " + std::to_string(limit) + "\n" +
                     Describe(query));
        std::vector<rdf::TermId> want =
            reference::ReferenceMatchLiterals(index, query, limit);
        ASSERT_EQ(index.MatchLiterals(query, limit), want);
        if (!want.empty()) ++nonempty;
        if (want.size() < matches) ++truncated;
      }
    }
  }
  // The generator must reach both interesting regimes.
  EXPECT_GE(nonempty, size_t{kCorpora * kQueriesPerCorpus});
  EXPECT_GE(truncated, size_t{kCorpora * kQueriesPerCorpus});
}

}  // namespace
}  // namespace kgqan::text

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  uint64_t seed = kgqan::text::g_property_seed;
  if (const char* env = std::getenv("KGQAN_PROPERTY_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }
  kgqan::text::g_property_seed = seed;
  std::printf("[property] seed=%llu  (repro: text_index_property_test "
              "--seed=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  return RUN_ALL_TESTS();
}
