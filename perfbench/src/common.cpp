#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/util/rng.h"

namespace perfbench {

std::uint64_t engine_seed(std::uint64_t seed, std::uint64_t index) {
  cvr::SplitMix64 mixer(seed);
  std::uint64_t value = mixer.next();
  for (std::uint64_t i = 0; i < index; ++i) value = mixer.next();
  return value;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double slots_per_second(const std::vector<double>& slot_s) {
  double total = 0.0;
  for (const double s : slot_s) total += s;
  return total > 0.0 ? static_cast<double>(slot_s.size()) / total : 0.0;
}

double pass_quantile(const std::vector<std::vector<double>>& passes, double q) {
  std::vector<double> per_pass;
  for (const auto& pass : passes) per_pass.push_back(quantile(pass, q));
  return median(per_pass);
}

void Fingerprint::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (word >> (8 * i)) & 0xffu;
    state_ *= 0x100000001b3ull;
  }
}

void Fingerprint::add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

void Fingerprint::add(const cvr::sim::UserOutcome& o) {
  for (const double v :
       {o.avg_qoe, o.avg_quality, o.avg_level, o.avg_delay_ms, o.variance,
        o.prediction_accuracy, o.fps, o.fault_slots, o.time_to_recover_slots,
        o.qoe_dip, o.frames_dropped_in_fault, o.home_server, o.migrations}) {
    add(v);
  }
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

bool same_outcomes(const std::vector<cvr::sim::UserOutcome>& a,
                   const std::vector<cvr::sim::UserOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    Fingerprint fa;
    Fingerprint fb;
    fa.add(a[i]);
    fb.add(b[i]);
    if (fa.hex() != fb.hex()) return false;
  }
  return true;
}

void RunReport::fail(const std::string& what) {
  ++failed;
  errors.push_back(what);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double calibration_us() {
  std::vector<double> times;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 7; ++rep) {
    const double start = now_s();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    double acc = 1.0;
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc = acc * 0.999999 + static_cast<double>(x & 0xffff) * 1e-9;
    }
    sink = sink + acc + static_cast<double>(x & 1);
    times.push_back((now_s() - start) * 1e6);
  }
  return median(times);
}

std::string machine_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  std::string escaped;
  for (const char c : cpu) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  std::ostringstream out;
  out << "{\"cpu\": \"" << escaped
      << "\", \"cores\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << PERFBENCH_COMPILER
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}";
  return out.str();
}

std::vector<double> SpanRecorder::self_seconds() const {
  std::vector<double> self(names_.size(), 0.0);
  for (const Span& span : spans_) self[span.name] += span.end - span.start;
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      self[spans_[span.parent].name] -= span.end - span.start;
    }
  }
  return self;
}

void SpanRecorder::write_csv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fputs("name,parent,start_us,end_us\n", file);
  for (const Span& span : spans_) {
    std::fprintf(file, "%s,%lld,%.3f,%.3f\n", names_[span.name].c_str(),
                 span.parent == kNoParent ? -1LL
                                          : static_cast<long long>(span.parent),
                 (span.start - origin) * 1e6, (span.end - origin) * 1e6);
  }
  std::fclose(file);
}

PassThroughAllocator::PassThroughAllocator(
    std::unique_ptr<cvr::core::Allocator> inner, bool time_solves)
    : inner_(std::move(inner)), time_solves_(time_solves) {}

cvr::core::Allocation PassThroughAllocator::allocate(
    const cvr::core::SlotProblem& problem) {
  cvr::core::Allocation out;
  allocate_into(problem, out);
  return out;
}

void PassThroughAllocator::allocate_into(const cvr::core::SlotProblem& problem,
                                         cvr::core::Allocation& out) {
  stamp(problem);
  if (!time_solves_) {
    inner_->allocate_into(problem, out);
    return;
  }
  const double start = now_s();
  inner_->allocate_into(problem, out);
  solves_.push_back(now_s() - start);
}

std::unique_ptr<cvr::core::Allocator> PassThroughAllocator::clone() const {
  std::unique_ptr<cvr::core::Allocator> inner = inner_->clone();
  if (inner == nullptr) return nullptr;
  return std::make_unique<PassThroughAllocator>(std::move(inner), time_solves_);
}

void PassThroughAllocator::arm() {
  armed_ = now_s();
  lead_ = nullptr;
  slot_starts_.clear();
  solves_.clear();
  slot_starts_.reserve(4096);
  if (time_solves_) solves_.reserve(4096);
}

void PassThroughAllocator::stamp(const cvr::core::SlotProblem& problem) {
  if (lead_ == nullptr) lead_ = &problem;
  if (&problem == lead_) slot_starts_.push_back(now_s());
}

double PassThroughAllocator::setup_seconds() const {
  return slot_starts_.empty() ? 0.0 : slot_starts_.front() - armed_;
}

std::vector<double> PassThroughAllocator::slot_seconds() const {
  std::vector<double> slots;
  for (std::size_t i = 1; i < slot_starts_.size(); ++i) {
    slots.push_back(slot_starts_[i] - slot_starts_[i - 1]);
  }
  return slots;
}

}  // namespace perfbench
