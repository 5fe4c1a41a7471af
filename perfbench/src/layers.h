// Per-layer accounting of the traced run: folds KgqanResult phase times
// and the wrapped endpoint's spans into the per-layer metrics.

#ifndef KGQAN_PERFBENCH_LAYERS_H_
#define KGQAN_PERFBENCH_LAYERS_H_

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "core/engine.h"
#include "traced_endpoint.h"

namespace kgqan::perfbench {

class Report;

// Short metric keys of the five benchmarks' KGs, in benchgen order.
inline constexpr std::array<const char*, 5> kKgKeys = {"qald9", "lcquad",
                                                       "yago", "dblp", "mag"};

class LayerAccounting {
 public:
  // Phase times and candidate counts of one answered question.
  void AddResult(size_t kg, const core::KgqanResult& result);

  // The endpoint spans of one question (all carrying its trace id).  Per
  // class the wall time covered by at least one request is charged, so
  // parallel probes count once along the question's blocking path.
  void AddQuestionCalls(size_t kg, const std::vector<EndpointCall>& calls);

  // Spans of a stream where several questions were in flight: grouped by
  // trace id first, then charged per question as above.
  void AddInterleavedCalls(size_t kg, const std::vector<EndpointCall>& calls);

  // Spans of replayed requests (one request per operation).
  void AddReplayCalls(const std::vector<EndpointCall>& calls);

  // Times sparql::ParseQuery on each call's text, off the timed path.
  void TimeParses(const std::vector<EndpointCall>& calls);

  // Emits every per-layer metric the accounting owns.  `replay_counts`
  // (nullable) overrides sparql.<class>.n with the per-pass log counts.
  void Emit(Report* report,
            const std::array<size_t, kNumClasses>* replay_counts) const;

  // Prints the per-KG linking attribution table (text probes vs predicate
  // probes vs scoring) to stderr.
  void PrintKgTable() const;

 private:
  // Per-class count, duration and rows of one request.
  void CountCall(const EndpointCall& call);

  struct PerKg {
    size_t questions = 0;
    double link_ms = 0.0;
    double text_ms = 0.0;
    double pred_ms = 0.0;
    size_t text_n = 0;
    size_t pred_n = 0;
    double linking_wait_ms = 0.0;  // Union over all linking classes.
  };

  size_t questions_ = 0;
  double qu_ms_ = 0.0;
  double link_ms_ = 0.0;
  double exec_ms_ = 0.0;
  double round_trips_ = 0.0;
  double generated_ = 0.0;
  double executed_ = 0.0;
  double productive_ = 0.0;
  double linking_wait_ms_ = 0.0;
  double exec_wait_ms_ = 0.0;
  std::array<double, kNumClasses> class_wait_ms_{};
  std::array<size_t, kNumClasses> class_calls_{};
  std::array<std::vector<double>, kNumClasses> class_us_;
  std::vector<double> parse_us_;
  double rows_ = 0.0;
  size_t calls_ = 0;
  std::array<PerKg, kKgKeys.size()> per_kg_{};
};

}  // namespace kgqan::perfbench

#endif  // KGQAN_PERFBENCH_LAYERS_H_
