// The benchmark's output: named metrics with units, a correctness verdict,
// and a provenance record, printed as JSON lines (the result last).

#ifndef KGQAN_PERFBENCH_REPORT_H_
#define KGQAN_PERFBENCH_REPORT_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace kgqan::perfbench {

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit);

  // Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);

  // Provenance fields (a repeated key keeps the last value); values are
  // emitted as JSON strings or numbers.
  void Note(const std::string& key, const std::string& value);
  void Note(const std::string& key, double value);

  // Prints {"provenance": {...}} and then the result object
  // {"correct", "attempted", "failed", "metrics"} as the last line.
  void Print(size_t attempted, size_t failed);

 private:
  void SetNote(const std::string& key, std::string json);

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;  // Raw JSON.
  bool correct_ = true;
};

}  // namespace kgqan::perfbench

#endif  // KGQAN_PERFBENCH_REPORT_H_
