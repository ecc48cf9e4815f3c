// Measurement arithmetic and host probes for the benchmark program
// (wolfbench.cpp): order statistics, the tail-percentile rule, span records
// with self time, metric-name validation, per-pass resident-memory growth,
// and the host calibration probes. Nothing here touches the WOLF library,
// so tests/measure_test.cpp checks it in isolation.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

// ---- order statistics --------------------------------------------------

// Median; the mean of the two middle values for an even count. 0 when empty.
double median(std::vector<double> values);

// First quartile, median and third quartile by the "exclusive" method of
// Python's statistics.quantiles(values, n=4), so spreads printed here match
// the ones computed from a set of runs. Needs at least two values; with one
// value all three are that value.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> values);

// (q3 - q1) / q2, the spread a metric is judged by; 0 when q2 is 0.
double spread(const std::vector<double>& values);

// Mean of the faster half of a run's passes: the ceil(n/2) smallest values
// when lower is better (times), the ceil(n/2) largest otherwise (rates).
// On a shared host, interference from other tenants only ever slows a
// pass, so its passes split into an undisturbed lower half and a tail
// whose size swings from run to run; the faster half's mean moves less
// between runs than the median, which sits on that boundary. 0 when
// empty.
double fast_half_mean(std::vector<double> values, bool lower_is_better);

// The highest percentile of a fixed ladder (99.9, 99, 95, 90, 80, 75, 50)
// that still has at least `min_beyond` samples strictly past its rank,
// using nearest-rank percentiles. `percentile` is 0 when no rung qualifies
// (fewer than 2 * min_beyond samples).
struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t beyond = 0;   // samples ranked past the chosen percentile
  std::size_t samples = 0;  // sample count the rule was applied to
};
Tail tail(std::vector<double> values, std::size_t min_beyond = 10);

// ---- spans ---------------------------------------------------------------

// One timed call into a layer. `trace` groups the spans of one program,
// cycle, pass or session; `parent` is the id of the enclosing span (0 at
// the root).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

// Monotonic nanoseconds (steady clock).
std::int64_t now_ns();

// Thread-safe in-memory span store; spans are written out once, at exit.
class SpanLog {
 public:
  // RAII span: starts on construction, records on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::uint64_t parent = 0,
          std::uint64_t trace = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return record_.id; }

   private:
    SpanLog& log_;
    SpanRecord record_;
  };

  std::uint64_t next_id();
  void add(SpanRecord record);
  // Every recorded span, in id order.
  std::vector<SpanRecord> snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

// Self time of every span: its duration minus the part of its interval
// covered by the union of its children's intervals (children may overlap
// when they ran concurrently). Indexed like `spans`.
std::vector<double> self_seconds(const std::vector<SpanRecord>& spans);

// Sum of self time, in seconds, over spans named `name`.
double total_self_seconds(const std::vector<SpanRecord>& spans,
                          const std::vector<double>& self,
                          const std::string& name);

// One JSON object per line: id, parent, trace, name, start_ns, end_ns.
void write_spans_jsonl(std::ostream& os, const std::vector<SpanRecord>& spans);

// ---- metric names ----------------------------------------------------------

// A metric name starts with a letter or digit and holds at most 64 letters,
// digits, '_', '.' and '-'.
bool valid_metric_name(const std::string& name);
// A unit holds 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
bool valid_unit(const std::string& unit);

// ---- resident memory -------------------------------------------------------

// The value of `key` (e.g. "VmHWM") in a /proc/<pid>/status-style file, in
// KiB; -1 when the file or key is missing.
long status_kib(const std::string& status_path, const std::string& key);

// VmHWM growth over one pass. begin() resets the high-water mark to the
// current resident size by writing "5" to clear_refs; where that file is
// missing or not writable the fallback measures growth from the high-water
// mark at begin() instead, which reads low when an earlier peak exceeds
// this pass's (reset() reports which method ran).
class RssGrowth {
 public:
  explicit RssGrowth(std::string proc_dir = "/proc/self");
  void begin();
  double growth_mb() const;
  bool reset() const { return reset_; }

 private:
  std::string proc_dir_;
  bool reset_ = false;
  long base_kib_ = 0;
};

// Minor page faults of this process so far (getrusage).
long minor_faults();

// ---- host probes -------------------------------------------------------------

// Parallelism a short multi-thread spin actually achieves: the same fixed
// ALU kernel run once alone and then on `threads` threads at once, reported
// as threads * t_alone / t_together (1.0 when the threads got one core).
double cpus_available(int threads);

// A fixed branchy kernel plus a pointer chase over a buffer larger than L2,
// timed in seconds. Run at the start and end of a run so host drift is
// visible next to any regression.
double calibration_seconds();

// The host's current speed: a fixed kernel of data-dependent branches
// (about 65 ms on an idle Sapphire Rapids vCPU), timed in seconds. The benchmark
// times it before every pass; the median over a run, against
// kReferenceNominalSeconds, scales the run's times to a host of nominal
// speed (host_scale).
double reference_seconds();
inline constexpr double kReferenceNominalSeconds = 0.065;

// Factor that turns times measured on this host into times on a host
// where reference_seconds() reads kReferenceNominalSeconds: nominal /
// median(reference samples). 1 when there are no samples.
double host_scale(const std::vector<double>& reference_samples);

}  // namespace perfbench
