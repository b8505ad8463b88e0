// Shared plumbing of the repository benchmark: clocks, order statistics,
// output fingerprints, the metric sink, the in-memory span recorder, the
// pass-through allocator that stamps slot cadence, and machine facts.
//
// Nothing here reaches into the library beyond its public headers; all
// timing happens around calls into public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/allocator.h"
#include "src/sim/metrics.h"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The seed handed to an engine for `seed` on the command line, and for
/// its `index`-th independent episode: SplitMix64 output, so every engine
/// seed has full-width entropy whatever digits the caller picked.
std::uint64_t engine_seed(std::uint64_t seed, std::uint64_t index = 0);

/// Median (mean of the two middle values for an even count); 0 if empty.
double median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1]; 0 if empty.
double quantile(std::vector<double> values, double q);

double mean(const std::vector<double>& values);

/// Slots per second over a list of slot durations (seconds).
double slots_per_second(const std::vector<double>& slot_s);

/// The median across passes of each pass's q-quantile slot duration;
/// `passes[p]` holds the slot durations of pass p. Like the median pass
/// rate, it drops a pass that a burst of load on the shared host slowed.
double pass_quantile(const std::vector<std::vector<double>>& passes, double q);

/// FNV-1a over 64-bit words: a deterministic digest of output bits.
class Fingerprint {
 public:
  void add(std::uint64_t word);
  void add(double value);  ///< Exact bit pattern, so -0.0 != 0.0.
  void add(const cvr::sim::UserOutcome& outcome);
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// True iff every field of the two outcome lists is bit-identical.
bool same_outcomes(const std::vector<cvr::sim::UserOutcome>& a,
                   const std::vector<cvr::sim::UserOutcome>& b);

/// Named metric values with units, plus the check bookkeeping the
/// result line reports.
struct RunReport {
  std::map<std::string, double> values;
  /// Digest of the first pass's outputs; run.py compares it with the
  /// committed golden.
  std::string fingerprint;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Records a failed check (the run then reports correct = false).
  void fail(const std::string& what);
  /// fail() unless `ok`.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Median wall time, in microseconds, of a fixed integer/floating-point
/// kernel that shares no code with the library: a yardstick for machine
/// speed, so two sets of runs on drifting hardware can be told apart.
double calibration_us();

/// One line of JSON naming the CPU model, core count, compiler and build
/// type this binary runs with.
std::string machine_json();

/// In-memory trace: one record per span (name, start, end, parent),
/// written out once at the end of a run.
class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit SpanRecorder(std::vector<std::string> names) : names_(std::move(names)) {}

  /// Opens a span; returns its index for end() and as a parent id.
  std::uint32_t begin(std::uint32_t name, std::uint32_t parent = kNoParent) {
    spans_.push_back(Span{name, parent, now_s(), 0.0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  double end(std::uint32_t index) {
    const double t = now_s();
    spans_[index].end = t;
    return t;
  }

  struct Span {
    std::uint32_t name;
    std::uint32_t parent;
    double start;
    double end;
  };
  const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Per-name self time in seconds: each span's duration minus the part
  /// covered by its direct children.
  std::vector<double> self_seconds() const;

  /// Writes "name,parent,start_us,end_us" rows (times relative to the
  /// first span) to `path`; best effort.
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// A core::Allocator wrapper that forwards every call to `inner` and
/// records when it was called: the first call marks the end of engine
/// set-up, each call on the first-seen problem marks the start of a slot
/// (an engine reuses one problem per server, so the first server's
/// problem recurs once per slot), and optionally each solve's duration.
/// It never touches the problem or the allocation, so outcomes are
/// bit-identical with and without it.
class PassThroughAllocator : public cvr::core::Allocator {
 public:
  explicit PassThroughAllocator(std::unique_ptr<cvr::core::Allocator> inner,
                                bool time_solves = false);

  std::string_view name() const override { return inner_->name(); }
  cvr::core::Allocation allocate(const cvr::core::SlotProblem& problem) override;
  void allocate_into(const cvr::core::SlotProblem& problem,
                     cvr::core::Allocation& out) override;
  void reset() override { inner_->reset(); }
  void set_thread_pool(cvr::ThreadPool* pool) override {
    inner_->set_thread_pool(pool);
  }
  bool stateless() const override { return inner_->stateless(); }
  std::unique_ptr<cvr::core::Allocator> clone() const override;

  /// Forgets all stamps; call right before entering the engine.
  void arm();
  /// Seconds from arm() to the first call (0 if never called).
  double setup_seconds() const;
  /// Durations of every slot but the last, whose end no call marks (the
  /// engine's teardown follows it).
  std::vector<double> slot_seconds() const;
  const std::vector<double>& solve_seconds() const { return solves_; }

 private:
  void stamp(const cvr::core::SlotProblem& problem);

  std::unique_ptr<cvr::core::Allocator> inner_;
  bool time_solves_;
  double armed_ = 0.0;
  const cvr::core::SlotProblem* lead_ = nullptr;
  std::vector<double> slot_starts_;
  std::vector<double> solves_;
};

}  // namespace perfbench
