// kgqan_perfbench: the repository's benchmark.  One process runs one named
// workload for a fixed time, checks every output, and prints its metrics
// as JSON (see README.md for the workloads and the metric-to-layer map).
//
//   kgqan_perfbench --workload cold_kgqa|warm_zipf|sparql_replay|serve_open
//                   --seed N --seconds S --trace 0|1 --data-dir DIR
//                   [--scale X] [--commit SHA]
//   kgqan_perfbench --record --data-dir DIR [--scale X]
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that reports the per-layer metrics from bench-side spans.  --record runs
// one cold pass and writes the golden answers and the SPARQL replay log.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "benchgen/benchmark.h"
#include "core/engine.h"
#include "eval/metrics.h"
#include "golden.h"
#include "layers.h"
#include "report.h"
#include "serve/qa_server.h"
#include "stats.h"
#include "traced_endpoint.h"
#include "util/rng.h"

#ifndef KGQAN_PERFBENCH_BUILD_TYPE
#define KGQAN_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef KGQAN_PERFBENCH_COMPILER
#define KGQAN_PERFBENCH_COMPILER "unknown"
#endif

namespace kgqan::perfbench {
namespace {

// ---- Fixed workload parameters (part of the benchmark's definition). ----

// warm_zipf: popularity skew of the question stream.  Ranks map to
// questions through a fixed permutation, so the seed changes the draws but
// not which questions are popular.
constexpr double kZipfExponent = 1.1;
constexpr uint64_t kZipfRankSeed = 0x7A1F5EEDULL;

// serve_open: offered rate (about half of the 65 q/s that 3 workers
// sustain against a 2 ms endpoint on a 4-vCPU VM), workers, injected
// endpoint RTT.
constexpr double kServeRateQps = 30.0;
constexpr size_t kServeWorkers = 3;
constexpr double kServeRttMs = 2.0;
// serve_open times this many requests whatever --seconds says, so that at
// least 10 latencies lie above p99.  Before them, kServeWarmup questions
// warm the fresh server closed loop (a cold server's first 3-6 s of
// requests run 2-4x slower); their answers are checked but not timed.
constexpr size_t kServeTimed = 1000;
constexpr size_t kServeWarmup = 200;
constexpr size_t kLcQuadIndex = 1;  // Position in benchgen::AllBenchmarks().

// A request slower than this (or failed) does not count towards goodput;
// serve_open also passes it as each request's deadline.
constexpr double kLatencyLimitMs = 1000.0;

// cold_kgqa measures at least this many passes (more while --seconds have
// not elapsed): host speed drifts by 5-10% from one 7 s pass to the next,
// and pooling passes averages that out of p50_ms and qps.
constexpr int kColdMinPasses = 2;

// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 2;
constexpr int kServeSetupReps = 21;  // One small KG: cheap, but noisy.

// Distinct non-text log entries kept per (KG, class) when recording; text
// probes are all kept.
constexpr size_t kLogCapPerClass = 400;
constexpr uint64_t kLogSampleSeed = 0x1065EEDULL;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  double scale = 1.0;
  std::string data_dir;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--record") {
      args->record = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--scale") {
      args->scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  if (args->data_dir.empty() || args->scale <= 0.0) return false;
  return args->record || args->seconds > 0.0;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Peak resident set size of the process (ru_maxrss is in KiB on Linux).
double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---- Set-up ----

struct Kgs {
  std::vector<benchgen::Benchmark> benches;  // benchgen::AllBenchmarks order.
  std::vector<std::string> names;
  double build_s = 0.0;
};

// Builds the benchmarks of `ids` (the others stay empty placeholders so
// indices match benchgen::AllBenchmarks()).
Kgs BuildKgs(const std::vector<size_t>& ids, double scale) {
  Kgs kgs;
  const std::vector<benchgen::BenchmarkId> all = benchgen::AllBenchmarks();
  kgs.benches.resize(all.size());
  kgs.names.resize(all.size());
  const int64_t start = NowNanos();
  for (size_t b : ids) {
    kgs.benches[b] = benchgen::BuildBenchmark(all[b], scale);
    kgs.names[b] = kgs.benches[b].name;
  }
  kgs.build_s = Seconds(NowNanos() - start);
  return kgs;
}

std::vector<size_t> AllKgIds() { return {0, 1, 2, 3, 4}; }

// The engine of every workload: default configuration with the QU
// inference cost model switched off.  The model is a fixed cost that no
// change may optimise, and on a shared VM its arithmetic on three server
// workers ran 15-25% slower from one run to the next, which swamped the
// serving layer's figures.
core::KgqanConfig BenchConfig() {
  core::KgqanConfig config;
  config.qu.inference.enabled = false;
  return config;
}

// The engine of the KG-bound workloads also runs with num_threads = 1.
// With the default pool every question waits on several thread hand-offs,
// and on a shared VM their wake-up latency changes 2-3x from one run to the
// next; serve_open keeps the default pool.
core::KgqanConfig KgBoundConfig() {
  core::KgqanConfig config = BenchConfig();
  config.num_threads = 1;
  return config;
}

size_t IndexBytes(const Kgs& kgs) {
  size_t bytes = 0;
  for (const benchgen::Benchmark& b : kgs.benches) {
    if (b.endpoint != nullptr) bytes += b.endpoint->ApproxIndexBytes();
  }
  return bytes;
}

// ---- Output checks ----

struct QuestionRef {
  size_t bench = 0;
  size_t index = 0;
};

std::vector<QuestionRef> AllQuestions(const Kgs& kgs) {
  std::vector<QuestionRef> refs;
  for (size_t b = 0; b < kgs.benches.size(); ++b) {
    for (size_t q = 0; q < kgs.benches[b].questions.size(); ++q) {
      refs.push_back({b, q});
    }
  }
  return refs;
}

// Checks every answer against the golden file and scores F1 against gold
// once per distinct question.
class AnswerCheck {
 public:
  AnswerCheck(const Kgs& kgs, GoldenAnswers golden, Report* report)
      : kgs_(kgs), report_(report), golden_(std::move(golden.hashes)) {
    f1_.resize(kgs.benches.size());
    for (size_t b = 0; b < kgs.benches.size(); ++b) {
      f1_[b].assign(kgs.benches[b].questions.size(), -1.0);
    }
  }

  // False (and the run is marked incorrect) when the answer differs.
  bool Check(QuestionRef ref, const core::QaResponse& response) {
    const bool covered =
        ref.bench < golden_.size() &&
        golden_[ref.bench].size() == kgs_.benches[ref.bench].questions.size();
    if (!covered || golden_[ref.bench][ref.index] != AnswerHash(response)) {
      Mismatch(covered ? "answer of " + kgs_.names[ref.bench] +
                             " question " + std::to_string(ref.index) +
                             " differs from the golden answer"
                       : "golden answers do not cover " +
                             kgs_.names[ref.bench]);
      return false;
    }
    double& f1 = f1_[ref.bench][ref.index];
    if (f1 < 0.0) {
      f1 = eval::ScoreQuestion(kgs_.benches[ref.bench].questions[ref.index],
                               response)
               .f1;
    }
    return true;
  }

  // Checks a complete pass (hashes[b][q] for every question) against the
  // golden digest.
  void CheckPass(const std::vector<std::vector<uint64_t>>& hashes,
                 const char* what) {
    const uint64_t digest = PassDigest(kgs_.names, hashes);
    report_->Note(std::string("answer_digest.") + what, Hex(digest));
    if (digest != PassDigest(kgs_.names, golden_)) {
      report_->Fail(std::string("answer digest of the ") + what +
                    " pass differs from the golden digest");
    }
  }

  double MacroF1() const {
    double sum = 0.0;
    size_t n = 0;
    for (const auto& bench : f1_) {
      for (double f1 : bench) {
        if (f1 < 0.0) continue;
        sum += f1;
        ++n;
      }
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

 private:
  void Mismatch(const std::string& why) {
    if (++mismatches_ <= 5) report_->Fail(why);
    if (mismatches_ == 5) report_->Fail("further mismatches not shown");
  }

  const Kgs& kgs_;
  Report* report_;
  std::vector<std::vector<uint64_t>> golden_;
  std::vector<std::vector<double>> f1_;  // -1 until answered.
  size_t mismatches_ = 0;
};

// ---- Operation accounting shared by every workload ----

struct OpStats {
  size_t attempted = 0;
  size_t failed = 0;
  size_t within_limit = 0;       // Succeeded within kLatencyLimitMs.
  std::vector<double> latency_ms;  // Successful operations only.
  double busy_s = 0.0;           // Sum of operation times (closed loop).

  void Record(double ms, bool ok) {
    ++attempted;
    busy_s += ms / 1e3;
    if (!ok) {
      ++failed;
      return;
    }
    latency_ms.push_back(ms);
    if (ms <= kLatencyLimitMs) ++within_limit;
  }
};

// The end-to-end metrics of `stats` over `window_s` seconds.
void EmitEndToEnd(Report* report, const OpStats& stats, double window_s,
                  double setup_s, double answer_f1) {
  const double ok = static_cast<double>(stats.attempted - stats.failed);
  report->Add("setup_s", setup_s, "s");
  report->Add("qps", window_s > 0.0 ? ok / window_s : 0.0, "1/s");
  report->Add("p50_ms", Percentile(stats.latency_ms, 50.0), "ms");
  report->Add("p99_ms", Percentile(stats.latency_ms, 99.0), "ms");
  report->Add("ok_frac",
              stats.attempted > 0 ? ok / static_cast<double>(stats.attempted)
                                  : 0.0,
              "frac");
  report->Add("answer_f1", answer_f1, "frac");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  report->Add("goodput_qps",
              window_s > 0.0
                  ? static_cast<double>(stats.within_limit) / window_s
                  : 0.0,
              "1/s");
  const size_t n = stats.latency_ms.size();
  report->Note("latency_samples", static_cast<double>(n));
  report->Note("latency_samples_above_p99",
               static_cast<double>(SamplesAbove(n, 99.0)));
  if (SamplesAbove(n, 99.0) < 10) {
    std::fprintf(stderr,
                 "perfbench: note: only %zu samples above p99 (n=%zu)\n",
                 SamplesAbove(n, 99.0), n);
  }
}

// Relative increase of the mean operation time under tracing.
double OverheadFrac(const OpStats& untraced, const OpStats& traced) {
  const double u = Mean(untraced.latency_ms);
  const double t = Mean(traced.latency_ms);
  return u > 0.0 ? (t - u) / u : 0.0;
}

// ---- Closed-loop question workloads ----

// One client asking questions of one engine, optionally through wrapped
// endpoints that record per-layer spans.
class Asker {
 public:
  Asker(const Kgs& kgs, AnswerCheck* check) : kgs_(kgs), check_(check) {}

  // Wraps every endpoint from now on; spans go to `layers`.
  void EnableTracing(LayerAccounting* layers) {
    layers_ = layers;
    traced_.clear();
    for (const benchgen::Benchmark& b : kgs_.benches) {
      traced_.push_back(b.endpoint == nullptr
                            ? nullptr
                            : std::make_unique<TracedEndpoint>(
                                  b.endpoint.get(), /*record_digests=*/false));
    }
  }
  void DisableTracing() {
    layers_ = nullptr;
    traced_.clear();
  }

  // Asks one question; returns its answer hash.
  uint64_t Ask(const core::KgqanEngine& engine, QuestionRef ref,
               OpStats* stats) {
    const benchgen::Benchmark& bench = kgs_.benches[ref.bench];
    sparql::Endpoint* endpoint = layers_ != nullptr
                                     ? traced_[ref.bench].get()
                                     : bench.endpoint.get();
    const int64_t start = NowNanos();
    core::KgqanResult result =
        engine.AnswerFull(bench.questions[ref.index].text, *endpoint);
    const double ms = Millis(NowNanos() - start);
    const bool ok =
        check_->Check(ref, result.response) && !result.deadline_exceeded;
    stats->Record(ms, ok);
    if (layers_ != nullptr) {
      std::vector<EndpointCall> calls = traced_[ref.bench]->TakeCalls();
      layers_->AddResult(ref.bench, result);
      layers_->AddQuestionCalls(ref.bench, calls);
      layers_->TimeParses(calls);
    }
    return AnswerHash(result.response);
  }

 private:
  const Kgs& kgs_;
  AnswerCheck* check_;
  LayerAccounting* layers_ = nullptr;
  std::vector<std::unique_ptr<TracedEndpoint>> traced_;
};


// Per-layer metrics that come from outside LayerAccounting.  The serving
// layer's read 0 on the closed-loop workloads.
struct LayerExtras {
  double link_cache_hit_rate = 0.0;
  double answer_cache_hit_rate = 0.0;
  double index_bytes = 0.0;
  double build_s = 0.0;
  double overhead_frac = 0.0;
  double queue_ms_p50 = 0.0;
  double queue_ms_p99 = 0.0;
  double service_ms_p50 = 0.0;
  double shed_frac = 0.0;
  double deadline_frac = 0.0;
  double lag_ms_p99 = 0.0;
};

void EmitLayers(Report* report, const LayerAccounting& layers,
                const LayerExtras& x,
                const std::array<size_t, kNumClasses>* replay_counts) {
  layers.Emit(report, replay_counts);
  report->Add("link.cache.hit_rate", x.link_cache_hit_rate, "frac");
  report->Add("exec.answer_cache.hit_rate", x.answer_cache_hit_rate, "frac");
  report->Add("store.index_bytes", x.index_bytes, "bytes");
  report->Add("store.build_s", x.build_s, "s");
  report->Add("trace.overhead_frac", x.overhead_frac, "frac");
  report->Add("serve.queue_ms.p50", x.queue_ms_p50, "ms");
  report->Add("serve.queue_ms.p99", x.queue_ms_p99, "ms");
  report->Add("serve.service_ms.p50", x.service_ms_p50, "ms");
  report->Add("serve.shed_frac", x.shed_frac, "frac");
  report->Add("serve.deadline_frac", x.deadline_frac, "frac");
  report->Add("gen.lag_ms.p99", x.lag_ms_p99, "ms");
}

double HitRate(size_t hits, size_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

// Cache hit rates of the questions answered between two counter reads.
void SetHitRates(const core::RuntimeCounters& before,
                 const core::RuntimeCounters& after, LayerExtras* x) {
  x->link_cache_hit_rate =
      HitRate(after.linking_cache_hits - before.linking_cache_hits,
              after.linking_cache_misses - before.linking_cache_misses);
  x->answer_cache_hit_rate =
      HitRate(after.answer_cache_hits - before.answer_cache_hits,
              after.answer_cache_misses - before.answer_cache_misses);
}

// Loads the golden answers; without answers recorded at this scale the
// run cannot check its outputs and stops.
std::optional<GoldenAnswers> LoadGolden(const Args& args) {
  auto golden = ReadGolden(args.data_dir + "/answers.tsv");
  if (!golden.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", golden.status().ToString().c_str());
    return std::nullopt;
  }
  if (golden->scale != args.scale) {
    std::fprintf(stderr,
                 "perfbench: the golden answers were recorded at scale %g; "
                 "re-record them for scale %g (run.py --record)\n",
                 golden->scale, args.scale);
    return std::nullopt;
  }
  return *std::move(golden);
}

struct Setup {
  Kgs kgs;
  double setup_s = 0.0;  // Median of the repetitions.
  double build_s = 0.0;  // Median BuildBenchmark time alone.
};

// Builds the KGs of `ids` and an engine `reps` times, keeping the last
// build; setup_s is the median build-plus-engine time.
Setup SetupKgs(const std::vector<size_t>& ids, double scale,
               const core::KgqanConfig& config, int reps) {
  Setup setup;
  std::vector<double> times;
  std::vector<double> builds;
  for (int rep = 0; rep < reps; ++rep) {
    setup.kgs = Kgs{};  // Free the previous build first.
    const int64_t start = NowNanos();
    setup.kgs = BuildKgs(ids, scale);
    core::KgqanEngine engine(config);
    times.push_back(Seconds(NowNanos() - start));
    builds.push_back(setup.kgs.build_s);
  }
  setup.setup_s = Median(times);
  setup.build_s = Median(builds);
  return setup;
}

std::vector<std::vector<uint64_t>> EmptyHashes(const Kgs& kgs) {
  std::vector<std::vector<uint64_t>> hashes(kgs.benches.size());
  for (size_t b = 0; b < kgs.benches.size(); ++b) {
    hashes[b].resize(kgs.benches[b].questions.size());
  }
  return hashes;
}

int64_t DeadlineAfter(double seconds) {
  return NowNanos() + static_cast<int64_t>(seconds * 1e9);
}

// cold_kgqa: passes over a seeded shuffle of every question, each pass by
// a freshly built engine, so every linking and embedding cache misses.
int RunColdKgqa(const Args& args, Report* report) {
  const core::KgqanConfig config = KgBoundConfig();
  std::optional<GoldenAnswers> golden = LoadGolden(args);
  if (!golden.has_value()) return 1;
  Setup setup = SetupKgs(AllKgIds(), args.scale, config, kSetupReps);
  const Kgs& kgs = setup.kgs;
  AnswerCheck check(kgs, *std::move(golden), report);
  Asker asker(kgs, &check);

  std::vector<QuestionRef> order = AllQuestions(kgs);
  util::Rng rng(args.seed);
  rng.Shuffle(order);

  // One pass with a fresh engine, checked against the golden digest.
  auto pass = [&](OpStats* stats, const char* what, LayerExtras* extras) {
    core::KgqanEngine engine(config);
    const core::RuntimeCounters before = engine.Counters();
    std::vector<std::vector<uint64_t>> hashes = EmptyHashes(kgs);
    for (const QuestionRef& ref : order) {
      hashes[ref.bench][ref.index] = asker.Ask(engine, ref, stats);
    }
    check.CheckPass(hashes, what);
    if (extras != nullptr) SetHitRates(before, engine.Counters(), extras);
  };

  OpStats stats;
  if (!args.trace) {
    // Every started pass completes, so each question weighs the same in
    // the percentiles whatever the run length.
    const int64_t deadline = DeadlineAfter(args.seconds);
    for (int passes = 0; passes < kColdMinPasses || NowNanos() < deadline;
         ++passes) {
      pass(&stats, "cold", nullptr);
    }
    EmitEndToEnd(report, stats, stats.busy_s, setup.setup_s,
                 check.MacroF1());
    report->Print(stats.attempted, stats.failed);
    return 0;
  }

  // Traced run: one untraced pass, then one traced pass through the
  // wrapped endpoints, both complete and over the same order.
  OpStats untraced;
  pass(&untraced, "cold", nullptr);
  LayerAccounting layers;
  LayerExtras extras;
  asker.EnableTracing(&layers);
  pass(&stats, "traced", &extras);
  asker.DisableTracing();
  layers.PrintKgTable();
  extras.index_bytes = static_cast<double>(IndexBytes(kgs));
  extras.build_s = setup.build_s;
  extras.overhead_frac = OverheadFrac(untraced, stats);
  EmitLayers(report, layers, extras, nullptr);
  report->Print(untraced.attempted + stats.attempted,
                untraced.failed + stats.failed);
  return 0;
}

// Inverse-CDF sampler of Zipf(kZipfExponent) ranks 0..n-1.
class ZipfSampler {
 public:
  explicit ZipfSampler(size_t n) : cdf_(n) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(util::Rng& rng) const {
    const double u = rng.UniformDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// warm_zipf: a Zipf stream over every question against one long-lived
// engine, warmed by one untimed pass, so linking is served from cache.
int RunWarmZipf(const Args& args, Report* report) {
  const core::KgqanConfig config = KgBoundConfig();
  std::optional<GoldenAnswers> golden = LoadGolden(args);
  if (!golden.has_value()) return 1;
  Setup setup = SetupKgs(AllKgIds(), args.scale, config, kSetupReps);
  const Kgs& kgs = setup.kgs;
  AnswerCheck check(kgs, *std::move(golden), report);
  Asker asker(kgs, &check);

  const int64_t warm_start = NowNanos();
  core::KgqanEngine engine(config);
  std::vector<QuestionRef> questions = AllQuestions(kgs);
  {
    OpStats warm_up;
    std::vector<std::vector<uint64_t>> hashes = EmptyHashes(kgs);
    for (const QuestionRef& ref : questions) {
      hashes[ref.bench][ref.index] = asker.Ask(engine, ref, &warm_up);
    }
    check.CheckPass(hashes, "warm-up");
    if (warm_up.failed > 0) report->Fail("warm-up pass had failures");
  }
  const double setup_s = setup.setup_s + Seconds(NowNanos() - warm_start);

  util::Rng(kZipfRankSeed).Shuffle(questions);  // Rank -> question.
  const ZipfSampler zipf(questions.size());
  util::Rng rng(args.seed);
  auto stream = [&](OpStats* stats, double seconds) {
    const int64_t deadline = DeadlineAfter(seconds);
    while (NowNanos() < deadline) {
      asker.Ask(engine, questions[zipf.Draw(rng)], stats);
    }
  };

  OpStats stats;
  if (!args.trace) {
    stream(&stats, args.seconds);
    EmitEndToEnd(report, stats, stats.busy_s, setup_s, check.MacroF1());
    report->Print(stats.attempted, stats.failed);
    return 0;
  }

  OpStats untraced;
  stream(&untraced, args.seconds / 2);
  LayerAccounting layers;
  LayerExtras extras;
  asker.EnableTracing(&layers);
  const core::RuntimeCounters before = engine.Counters();
  stream(&stats, args.seconds / 2);
  SetHitRates(before, engine.Counters(), &extras);
  asker.DisableTracing();
  extras.index_bytes = static_cast<double>(IndexBytes(kgs));
  extras.build_s = setup.build_s;
  extras.overhead_frac = OverheadFrac(untraced, stats);
  EmitLayers(report, layers, extras, nullptr);
  report->Print(untraced.attempted + stats.attempted,
                untraced.failed + stats.failed);
  return 0;
}

// sparql_replay: the checked-in log of engine requests, replayed in
// seeded order through Endpoint::Query; each result must match the
// recorded row count and digest.
int RunSparqlReplay(const Args& args, Report* report) {
  Setup setup = SetupKgs(AllKgIds(), args.scale, KgBoundConfig(), kSetupReps);
  const Kgs& kgs = setup.kgs;
  const int64_t load_start = NowNanos();
  auto log = ReadLog(args.data_dir + "/sparql_log.tsv");
  const double setup_s = setup.setup_s + Seconds(NowNanos() - load_start);
  if (!log.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", log.status().ToString().c_str());
    return 1;
  }
  if (log->scale != args.scale || log->entries.empty()) {
    std::fprintf(stderr,
                 "perfbench: the replay log was recorded at scale %g; "
                 "re-record it for scale %g (run.py --record)\n",
                 log->scale, args.scale);
    return 1;
  }
  std::array<size_t, kNumClasses> class_counts{};
  for (const LogEntry& e : log->entries) {
    if (e.kg >= kgs.benches.size()) {
      std::fprintf(stderr, "perfbench: replay log names KG %zu\n", e.kg);
      return 1;
    }
    ++class_counts[static_cast<size_t>(e.cls)];
  }
  report->Note("replay_log_entries", static_cast<double>(log->entries.size()));

  std::vector<std::unique_ptr<TracedEndpoint>> traced;
  for (const benchgen::Benchmark& b : kgs.benches) {
    traced.push_back(std::make_unique<TracedEndpoint>(b.endpoint.get(),
                                                      /*record_digests=*/false));
  }
  std::vector<size_t> order(log->entries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Rng rng(args.seed);
  size_t mismatches = 0;

  auto replay = [&](OpStats* stats, double seconds, LayerAccounting* layers) {
    // Every started pass completes, so each entry weighs the same whatever
    // the run length (a MAG text probe costs 2,000 small requests).
    const int64_t deadline = DeadlineAfter(seconds);
    while (NowNanos() < deadline) {
      rng.Shuffle(order);
      for (size_t i : order) {
        const LogEntry& e = log->entries[i];
        sparql::Endpoint* endpoint =
            layers != nullptr ? traced[e.kg].get()
                              : kgs.benches[e.kg].endpoint.get();
        const int64_t start = NowNanos();
        auto rs = endpoint->Query(e.sparql);
        const double ms = Millis(NowNanos() - start);
        const bool ok = rs.ok() &&
                        (rs->is_ask() ? size_t{1} : rs->NumRows()) == e.rows &&
                        ResultDigest(*rs) == e.digest;
        stats->Record(ms, ok);
        if (!ok && ++mismatches <= 5) {
          report->Fail("replayed " + std::string(QueryClassName(e.cls)) +
                       " request on " + kgs.names[e.kg] +
                       " does not match the log: " + e.sparql.substr(0, 120));
        }
        if (layers != nullptr) {
          std::vector<EndpointCall> calls = traced[e.kg]->TakeCalls();
          layers->AddReplayCalls(calls);
          layers->TimeParses(calls);
        }
      }
    }
  };

  OpStats stats;
  if (!args.trace) {
    replay(&stats, args.seconds, nullptr);
    // A replay answers no questions, so answer_f1 does not apply and reads
    // 1; result mismatches show in ok_frac.
    EmitEndToEnd(report, stats, stats.busy_s, setup_s, 1.0);
    report->Print(stats.attempted, stats.failed);
    return 0;
  }
  OpStats untraced;
  replay(&untraced, args.seconds / 2, nullptr);
  LayerAccounting layers;
  replay(&stats, args.seconds / 2, &layers);
  LayerExtras extras;
  extras.index_bytes = static_cast<double>(IndexBytes(kgs));
  extras.build_s = setup.build_s;
  extras.overhead_frac = OverheadFrac(untraced, stats);
  EmitLayers(report, layers, extras, &class_counts);
  report->Print(untraced.attempted + stats.attempted,
                untraced.failed + stats.failed);
  return 0;
}

// serve_open: Poisson arrivals of LC-QuAD questions at a fixed offered
// rate into a QaServer (default engine pool, injected endpoint RTT).
// Latency runs from each request's scheduled send time.
int RunServeOpen(const Args& args, Report* report) {
  const core::KgqanConfig config = BenchConfig();
  serve::QaServerOptions options;
  options.num_workers = kServeWorkers;
  std::optional<GoldenAnswers> golden = LoadGolden(args);
  if (!golden.has_value()) return 1;

  // Set-up: the LC-QuAD KG, an engine and a server, kServeSetupReps times.
  Kgs kgs;
  std::vector<double> times;
  std::vector<double> builds;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    kgs = Kgs{};
    const int64_t start = NowNanos();
    kgs = BuildKgs({kLcQuadIndex}, args.scale);
    core::KgqanEngine engine(config);
    serve::QaServer server(&engine, kgs.benches[kLcQuadIndex].endpoint.get(),
                           options);
    times.push_back(Seconds(NowNanos() - start));
    builds.push_back(kgs.build_s);
  }
  sparql::Endpoint* endpoint = kgs.benches[kLcQuadIndex].endpoint.get();
  endpoint->set_injected_latency_ms(kServeRttMs);
  AnswerCheck check(kgs, *std::move(golden), report);

  // The request stream: every LC-QuAD question in seeded order, cycling
  // through them again when the stream is longer (a repeated question finds
  // its entity links in the linking cache).  The first kServeWarmup warm
  // the server; the timed requests follow.
  std::vector<QuestionRef> questions;
  for (size_t q = 0; q < kgs.benches[kLcQuadIndex].questions.size(); ++q) {
    questions.push_back({kLcQuadIndex, q});
  }
  util::Rng rng(args.seed);
  rng.Shuffle(questions);
  std::vector<QuestionRef> sample;
  for (size_t i = 0; i < kServeWarmup + kServeTimed; ++i) {
    sample.push_back(questions[i % questions.size()]);
  }
  // Poisson arrivals conditioned on the request count: the send times are
  // sorted uniform draws over the stream's span at the offered rate, so
  // every run offers the same load over the same span.
  const double span_s = static_cast<double>(kServeTimed) / kServeRateQps;
  std::vector<int64_t> due_offset_ns;
  for (size_t i = 0; i < kServeTimed; ++i) {
    due_offset_ns.push_back(
        static_cast<int64_t>(rng.UniformDouble() * span_s * 1e9));
  }
  std::sort(due_offset_ns.begin(), due_offset_ns.end());

  struct Segment {
    OpStats warm_up;
    OpStats stats;  // Timed requests only.
    double window_s = 0.0;
    size_t shed = 0;
    size_t deadline = 0;
    std::vector<double> queue_ms;
    std::vector<double> service_ms;
    std::vector<double> lag_ms;
  };
  // Warms a fresh engine and server, then sends them the first `n` timed
  // requests; `layers` (nullable) routes both through a wrapped endpoint
  // and `extras` (nullable) receives the engine's cache hit rates.
  auto run_segment = [&](size_t n, LayerAccounting* layers,
                         LayerExtras* extras) {
    Segment seg;
    core::KgqanEngine engine(config);
    const core::RuntimeCounters before = engine.Counters();
    std::unique_ptr<TracedEndpoint> traced;
    if (layers != nullptr) {
      traced = std::make_unique<TracedEndpoint>(endpoint, false);
    }
    serve::QaServer server(
        &engine, layers != nullptr ? traced.get() : endpoint, options);
    auto submit = [&](QuestionRef ref) {
      return server.Submit(kgs.benches[ref.bench].questions[ref.index].text,
                           kLatencyLimitMs);
    };
    // Checks a response; false when it failed or differs from the golden
    // answer.
    auto finish = [&](QuestionRef ref, const serve::QaServerResponse& r) {
      if (layers != nullptr) layers->AddResult(ref.bench, r.result);
      return !r.deadline_exceeded && check.Check(ref, r.result.response);
    };

    // Warm-up: closed loop, one request per worker in flight.
    std::deque<std::pair<QuestionRef, std::future<serve::QaServerResponse>>>
        warming;
    auto finish_warming = [&] {
      auto& [ref, future] = warming.front();
      serve::QaServerResponse response = future.get();
      seg.warm_up.Record(response.total_ms, finish(ref, response));
      warming.pop_front();
    };
    for (size_t i = 0; i < kServeWarmup; ++i) {
      if (warming.size() == kServeWorkers) finish_warming();
      auto submitted = submit(sample[i]);
      if (!submitted.ok()) {
        seg.warm_up.Record(0.0, false);
        continue;
      }
      warming.emplace_back(sample[i], std::move(*submitted));
    }
    while (!warming.empty()) finish_warming();

    struct Sent {
      QuestionRef ref;
      int64_t due_ns;
      int64_t send_ns;
      std::future<serve::QaServerResponse> future;
    };
    std::vector<Sent> sent;
    const int64_t start = NowNanos();
    for (size_t i = 0; i < n; ++i) {
      const int64_t due = start + due_offset_ns[i];
      const int64_t wait = due - NowNanos();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      const int64_t send = NowNanos();
      seg.lag_ms.push_back(Millis(send - due));
      const QuestionRef ref = sample[kServeWarmup + i];
      auto submitted = submit(ref);
      if (!submitted.ok()) {
        if (submitted.status().code() == util::StatusCode::kOverloaded) {
          ++seg.shed;
        }
        seg.stats.Record(0.0, false);
        continue;
      }
      sent.push_back(Sent{ref, due, send, std::move(*submitted)});
    }
    int64_t last_done = start;
    for (Sent& s : sent) {
      serve::QaServerResponse response = s.future.get();
      const double latency =
          Millis(s.send_ns - s.due_ns) + response.total_ms;
      if (response.deadline_exceeded) ++seg.deadline;
      seg.stats.Record(latency, finish(s.ref, response));
      seg.queue_ms.push_back(response.queue_ms);
      seg.service_ms.push_back(response.total_ms - response.queue_ms);
      last_done = std::max(
          last_done, s.send_ns + static_cast<int64_t>(response.total_ms * 1e6));
    }
    server.Shutdown();
    seg.window_s = Seconds(last_done - start);
    if (extras != nullptr) SetHitRates(before, engine.Counters(), extras);
    if (layers != nullptr) {
      std::vector<EndpointCall> calls = traced->TakeCalls();
      layers->AddInterleavedCalls(kLcQuadIndex, calls);
      layers->TimeParses(calls);
    }
    return seg;
  };
  if (!args.trace) {
    Segment seg = run_segment(kServeTimed, nullptr, nullptr);
    EmitEndToEnd(report, seg.stats, seg.window_s, Median(times),
                 check.MacroF1());
    report->Print(seg.warm_up.attempted + seg.stats.attempted,
                  seg.warm_up.failed + seg.stats.failed);
    return 0;
  }
  // Traced run: the first half of the timed requests twice, untraced and
  // then traced, each against a freshly warmed engine and server.
  const size_t half = kServeTimed / 2;
  Segment untraced = run_segment(half, nullptr, nullptr);
  LayerAccounting layers;
  LayerExtras extras;
  Segment traced = run_segment(half, &layers, &extras);
  const double attempted = static_cast<double>(traced.stats.attempted);
  extras.queue_ms_p50 = Percentile(traced.queue_ms, 50.0);
  extras.queue_ms_p99 = Percentile(traced.queue_ms, 99.0);
  extras.service_ms_p50 = Percentile(traced.service_ms, 50.0);
  extras.shed_frac = static_cast<double>(traced.shed) / attempted;
  extras.deadline_frac = static_cast<double>(traced.deadline) / attempted;
  extras.lag_ms_p99 = Percentile(traced.lag_ms, 99.0);
  extras.index_bytes = static_cast<double>(IndexBytes(kgs));
  extras.build_s = Median(builds);
  extras.overhead_frac = OverheadFrac(untraced.stats, traced.stats);
  EmitLayers(report, layers, extras, nullptr);
  report->Print(untraced.warm_up.attempted + untraced.stats.attempted +
                    traced.warm_up.attempted + traced.stats.attempted,
                untraced.warm_up.failed + untraced.stats.failed +
                    traced.warm_up.failed + traced.stats.failed);
  return 0;
}

// --record: one cold pass in benchgen order through recording endpoints;
// writes the golden answers and the replay log (every text probe, and a
// seeded sample of at most kLogCapPerClass distinct requests per KG and
// class for the other classes).
int Record(const Args& args) {
  Kgs kgs = BuildKgs(AllKgIds(), args.scale);
  core::KgqanEngine engine(KgBoundConfig());
  std::vector<std::unique_ptr<TracedEndpoint>> traced;
  for (const benchgen::Benchmark& b : kgs.benches) {
    traced.push_back(std::make_unique<TracedEndpoint>(b.endpoint.get(),
                                                      /*record_digests=*/true));
  }
  GoldenAnswers golden;
  golden.scale = args.scale;
  golden.hashes = EmptyHashes(kgs);
  std::map<std::pair<size_t, std::string>, LogEntry> distinct;
  std::array<size_t, kNumClasses> requests{};
  for (const QuestionRef& ref : AllQuestions(kgs)) {
    core::KgqanResult result = engine.AnswerFull(
        kgs.benches[ref.bench].questions[ref.index].text, *traced[ref.bench]);
    golden.hashes[ref.bench][ref.index] = AnswerHash(result.response);
    for (EndpointCall& call : traced[ref.bench]->TakeCalls()) {
      ++requests[static_cast<size_t>(call.cls)];
      if (!call.ok) continue;
      LogEntry entry{ref.bench, call.cls, call.rows, call.digest, call.sparql};
      distinct.emplace(std::make_pair(ref.bench, std::move(call.sparql)),
                       std::move(entry));
    }
  }
  // Group by (KG, class) in sorted order, then sample the large groups.
  std::map<std::pair<size_t, size_t>, std::vector<LogEntry>> groups;
  for (auto& [key, entry] : distinct) {
    groups[{entry.kg, static_cast<size_t>(entry.cls)}].push_back(
        std::move(entry));
  }
  ReplayLog log;
  log.scale = args.scale;
  util::Rng rng(kLogSampleSeed);
  std::array<size_t, kNumClasses> kept{};
  std::array<size_t, kNumClasses> unique{};
  for (auto& [key, entries] : groups) {
    unique[key.second] += entries.size();
    if (key.second != static_cast<size_t>(QueryClass::kText) &&
        entries.size() > kLogCapPerClass) {
      rng.Shuffle(entries);
      entries.resize(kLogCapPerClass);
      std::sort(entries.begin(), entries.end(),
                [](const LogEntry& a, const LogEntry& b) {
                  return a.sparql < b.sparql;
                });
    }
    kept[key.second] += entries.size();
    for (LogEntry& e : entries) log.entries.push_back(std::move(e));
  }
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    std::fprintf(stderr, "%-7s requests %7zu distinct %7zu kept %6zu\n",
                 QueryClassName(static_cast<QueryClass>(cls)), requests[cls],
                 unique[cls], kept[cls]);
  }
  util::Status status = WriteGolden(args.data_dir + "/answers.tsv", golden);
  if (status.ok()) status = WriteLog(args.data_dir + "/sparql_log.tsv", log);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("recorded %zu answers (digest %s) and %zu log entries\n",
              AllQuestions(kgs).size(),
              Hex(PassDigest(kgs.names, golden.hashes)).c_str(),
              log.entries.size());
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kgqan_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --data-dir DIR [--scale X] [--commit SHA]\n"
                 "       kgqan_perfbench --record --data-dir DIR [--scale X]\n");
    return 2;
  }
  if (args.record) return Record(args);

  Report report;
  report.Note("workload", args.workload);
  report.Note("seed", static_cast<double>(args.seed));
  report.Note("seconds", args.seconds);
  report.Note("trace", args.trace ? 1.0 : 0.0);
  report.Note("scale", args.scale);
  report.Note("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.Note("compiler", KGQAN_PERFBENCH_COMPILER);
  report.Note("build_type", KGQAN_PERFBENCH_BUILD_TYPE);
#ifdef __OPTIMIZE__
  report.Note("optimized", "true");
#else
  report.Note("optimized", "false");
  std::fprintf(stderr, "perfbench: WARNING: non-optimised build; timings "
                       "are not comparable\n");
#endif
  report.Note("commit", args.commit);
  report.Note("serve_rtt_ms", kServeRttMs);
  report.Note("serve_rate_qps", kServeRateQps);
  report.Note("serve_workers", static_cast<double>(kServeWorkers));
  report.Note("latency_limit_ms", kLatencyLimitMs);

  if (args.workload == "cold_kgqa") return RunColdKgqa(args, &report);
  if (args.workload == "warm_zipf") return RunWarmZipf(args, &report);
  if (args.workload == "sparql_replay") return RunSparqlReplay(args, &report);
  if (args.workload == "serve_open") return RunServeOpen(args, &report);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}

}  // namespace
}  // namespace kgqan::perfbench

int main(int argc, char** argv) { return kgqan::perfbench::Main(argc, argv); }
