// Output checks and the benchmark's checked-in data: answer and result
// digests, the golden per-question answer file, and the SPARQL replay log.

#ifndef KGQAN_PERFBENCH_GOLDEN_H_
#define KGQAN_PERFBENCH_GOLDEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/qa_interface.h"
#include "sparql/result_set.h"
#include "traced_endpoint.h"
#include "util/status.h"

namespace kgqan::perfbench {

// Hash of one response: understood/boolean flags and the answers sorted
// by their N-Triples rendering, so answer order does not matter.
uint64_t AnswerHash(const core::QaResponse& response);

// Order-insensitive digest of a result set: columns, ASK value and the
// sorted multiset of rendered rows.
uint64_t ResultDigest(const sparql::ResultSet& rs);

// Digest over (benchmark, question index, answer hash) for a whole pass;
// `hashes[b][q]` is question q of benchmark b in benchgen order.
uint64_t PassDigest(const std::vector<std::string>& bench_names,
                    const std::vector<std::vector<uint64_t>>& hashes);

std::string Hex(uint64_t value);

// Per-question answer hashes of a cold pass at `scale`.
struct GoldenAnswers {
  double scale = 0.0;
  std::vector<std::vector<uint64_t>> hashes;  // [benchmark][question].
};

util::Status WriteGolden(const std::string& path, const GoldenAnswers& golden);
util::StatusOr<GoldenAnswers> ReadGolden(const std::string& path);

// One replayed request: the KG it targets (index in
// benchgen::AllBenchmarks()), its class, and its expected result.
struct LogEntry {
  size_t kg = 0;
  QueryClass cls = QueryClass::kSelect;
  size_t rows = 0;
  uint64_t digest = 0;
  std::string sparql;
};

struct ReplayLog {
  double scale = 0.0;
  std::vector<LogEntry> entries;
};

util::Status WriteLog(const std::string& path, const ReplayLog& log);
util::StatusOr<ReplayLog> ReadLog(const std::string& path);

}  // namespace kgqan::perfbench

#endif  // KGQAN_PERFBENCH_GOLDEN_H_
