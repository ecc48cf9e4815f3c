#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>
#include <utility>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  if (ld == 1) {
    q.q1 = q.q2 = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"), n = 4, in exact integer math.
  const long n = 4, m = ld + 1;
  double cut[3];
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(n - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  q.q1 = cut[0];
  q.q2 = cut[1];
  q.q3 = cut[2];
  return q;
}

double spread(const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  return q.q2 == 0 ? 0 : (q.q3 - q.q1) / q.q2;
}

double fast_half_mean(std::vector<double> values, bool lower_is_better) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  if (!lower_is_better) std::reverse(values.begin(), values.end());
  const std::size_t half = (values.size() + 1) / 2;
  return std::accumulate(values.begin(), values.begin() + static_cast<long>(half), 0.0) /
         static_cast<double>(half);
}

Tail tail(std::vector<double> values, std::size_t min_beyond) {
  static constexpr double kLadder[] = {99.9, 99, 95, 90, 80, 75, 50};
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (double p : kLadder) {
    // Nearest rank; the epsilon keeps p * n that is integral in exact
    // arithmetic from rounding up a rank.
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(p / 100.0 * n - 1e-9)));
    const std::size_t beyond = values.size() - rank;
    if (beyond >= min_beyond) {
      t.percentile = p;
      t.value = values[rank - 1];
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog::Scope::Scope(SpanLog& log, std::string name, std::uint64_t parent,
                      std::uint64_t trace)
    : log_(log) {
  record_.id = log.next_id();
  record_.parent = parent;
  record_.trace = trace;
  record_.name = std::move(name);
  record_.start_ns = now_ns();
}

SpanLog::Scope::~Scope() {
  record_.end_ns = now_ns();
  log_.add(std::move(record_));
}

std::uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanLog::add(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> SpanLog::snapshot() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

std::vector<double> self_seconds(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    const auto parent = index.find(s.parent);
    if (s.parent != 0 && parent != index.end())
      children[parent->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;  // end of the union so far
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

double total_self_seconds(const std::vector<SpanRecord>& spans,
                          const std::vector<double>& self,
                          const std::string& name) {
  double total = 0;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == name) total += self[i];
  return total;
}

void write_spans_jsonl(std::ostream& os, const std::vector<SpanRecord>& spans) {
  for (const SpanRecord& s : spans)
    os << "{\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"trace\": " << s.trace << ", \"name\": \"" << s.name
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << "}\n";
}

namespace {

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || !is_alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

long status_kib(const std::string& status_path, const std::string& key) {
  std::ifstream is(status_path);
  std::string line;
  const std::string prefix = key + ":";
  while (std::getline(is, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream fields(line.substr(prefix.size()));
    long kib = -1;
    fields >> kib;
    return fields ? kib : -1;
  }
  return -1;
}

RssGrowth::RssGrowth(std::string proc_dir) : proc_dir_(std::move(proc_dir)) {}

void RssGrowth::begin() {
  std::ofstream clear(proc_dir_ + "/clear_refs");
  reset_ = static_cast<bool>(clear << "5" << std::flush);
  base_kib_ = status_kib(proc_dir_ + "/status", "VmHWM");
}

double RssGrowth::growth_mb() const {
  const long now = status_kib(proc_dir_ + "/status", "VmHWM");
  if (now < 0 || base_kib_ < 0) return 0;
  return static_cast<double>(std::max(0L, now - base_kib_)) / 1024.0;
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

namespace {

// Dependent multiply-xorshift chain: ALU only, no memory traffic.
std::uint64_t spin(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x *= 0x9e3779b97f4a7c15ULL;
  }
  return x;
}

std::atomic<std::uint64_t> g_sink{0};

double timed_spin(int threads, std::uint64_t iterations) {
  const std::int64_t start = now_ns();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t)
    workers.emplace_back([iterations, t] {
      g_sink.fetch_xor(spin(iterations, static_cast<std::uint64_t>(t) + 1));
    });
  for (std::thread& w : workers) w.join();
  return static_cast<double>(now_ns() - start) * 1e-9;
}

}  // namespace

double cpus_available(int threads) {
  constexpr std::uint64_t kIterations = 20'000'000;
  const double alone = timed_spin(1, kIterations);
  const double together = timed_spin(threads, kIterations);
  return together <= 0 ? 0 : threads * alone / together;
}

namespace {

// Data-dependent branches on a xorshift stream: about one mispredict in
// two iterations, no memory traffic.
std::uint64_t branchy(int iterations, std::uint64_t acc) {
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (x & 1) acc += x >> 3;
    else if (x & 2) acc ^= x;
    else acc -= x >> 5;
  }
  return acc;
}

}  // namespace

double reference_seconds() {
  const std::int64_t start = now_ns();
  g_sink.fetch_xor(branchy(10'000'000, 0));
  return static_cast<double>(now_ns() - start) * 1e-9;
}

double host_scale(const std::vector<double>& reference_samples) {
  const double m = median(reference_samples);
  return m <= 0 ? 1 : kReferenceNominalSeconds / m;
}

double calibration_seconds() {
  // Pointer chase over 16 MiB: one random cycle through 2M slots (Sattolo),
  // built before the clock starts.
  constexpr std::size_t kSlots = std::size_t{1} << 21;
  std::vector<std::uint64_t> next(kSlots);
  std::iota(next.begin(), next.end(), std::uint64_t{0});
  std::uint64_t state = 0x2014;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(next[i], next[(state >> 33) % i]);
  }
  const std::int64_t start = now_ns();
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < kSlots; ++i) at = next[at];
  g_sink.fetch_xor(branchy(10'000'000, at));
  return static_cast<double>(now_ns() - start) * 1e-9;
}

}  // namespace perfbench
