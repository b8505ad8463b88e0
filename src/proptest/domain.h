// Domain generators + shrinkers + fixture printers for the harness.
//
// Everything the built-in properties (properties.cpp) generate lives
// here: per-slot allocation problems (with tie-heavy and loss-aware
// variants), user channels, fault-schedule configs, wire messages,
// seeded single-byte corruption cases for the codec, and tile-cache
// scripts. Each type has
//
//   * a generator (pure function of cvr::Rng — see gen.h),
//   * a ShrinkTraits specialization proposing strictly simpler
//     instances (drop users, lower level ceilings, halve bandwidths),
//   * a FixtureTraits specialization printing a literal C++ fixture.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "src/content/tile.h"
#include "src/core/allocator.h"
#include "src/faults/fault_schedule.h"
#include "src/proptest/fixture.h"
#include "src/proptest/gen.h"
#include "src/proptest/shrink.h"
#include "src/proto/messages.h"

namespace cvr::proptest {

// ---------------------------------------------------------------------------
// SlotProblem

/// Knobs for the SlotProblem generator. Defaults match the broad sweep
/// used by most allocator properties; the named presets below tighten
/// them for specific oracles.
struct SlotProblemGenConfig {
  std::size_t min_users = 1;
  std::size_t max_users = 8;
  /// Probability that a generated user is a byte-identical copy of an
  /// earlier user — identical marginal scores at every level, forcing
  /// exact argmax ties (the scan-vs-heap tie-break oracle needs them).
  double duplicate_user_probability = 0.0;
  /// Probability of quantizing all rates/bandwidths to a coarse 0.25
  /// grid, which makes exactly-on-the-cap budget boundaries common.
  double quantize_probability = 0.0;
  /// Probability of attaching a Section-VIII frame_loss table (may
  /// break h's concavity; keep 0 for properties that assume it).
  double loss_aware_probability = 0.0;
  /// Only build rate/delay tables analytically (CRF rate function +
  /// M/M/1 delay); required by the concavity property. When false,
  /// half the users get arbitrary strictly-increasing random tables.
  bool analytic_tables_only = false;
  /// Server budget = (sum of level-1 rates) * uniform[tight, roomy].
  double min_tightness = 0.9;
  double max_tightness = 3.5;
  /// Probability of rescaling a user's tables to the edges of the
  /// double range: rate axis by an exact power of two (2^-1000 or
  /// 2^600 — ordering preserved, densities pushed to ~2^±1000) and,
  /// half the time, delays into the DENORMAL range. The h-table must
  /// stay bit-identical to the direct h_value path even here.
  double extreme_rate_probability = 0.0;
};

/// Preset for the differential oracles that need an exact solver:
/// small N so BruteForceAllocator stays fast.
SlotProblemGenConfig small_exact_config();

/// Preset for the scan-vs-heap bit-identity sweep: duplicate users and
/// quantized rates to hammer score ties and budget boundaries.
SlotProblemGenConfig tie_heavy_config();

/// Preset for properties that assume the published (loss-oblivious,
/// analytic-table) model, e.g. discrete concavity of h.
SlotProblemGenConfig published_model_config();

/// Preset for the table≡direct bit-exactness sweep at the edges of the
/// double range: up to 21 users, tie-heavy duplicates, and
/// extreme/denormal-scaled tables.
SlotProblemGenConfig extreme_rates_config();

core::SlotProblem gen_slot_problem(cvr::Rng& rng,
                                   const SlotProblemGenConfig& config);

/// Generator form of gen_slot_problem for CVR_PROPERTY.
Gen<core::SlotProblem> slot_problems(SlotProblemGenConfig config = {});

template <>
struct ShrinkTraits<core::SlotProblem> {
  static std::vector<core::SlotProblem> candidates(
      const core::SlotProblem& problem);
};

template <>
struct FixtureTraits<core::SlotProblem> {
  static std::string show(const core::SlotProblem& problem);
};

// ---------------------------------------------------------------------------
// Fault schedules

Gen<faults::FaultScheduleConfig> fault_schedule_configs();

template <>
struct ShrinkTraits<faults::FaultScheduleConfig> {
  static std::vector<faults::FaultScheduleConfig> candidates(
      const faults::FaultScheduleConfig& config);
};

template <>
struct FixtureTraits<faults::FaultScheduleConfig> {
  static std::string show(const faults::FaultScheduleConfig& config);
};

// ---------------------------------------------------------------------------
// Wire messages

using WireMessage =
    std::variant<proto::PoseUpdate, proto::DeliveryAck, proto::ReleaseAck,
                 proto::TileHeader, proto::ConnectRequest,
                 proto::AdmitResponse, proto::DisconnectNotice,
                 proto::UserHandoff>;

WireMessage gen_wire_message(cvr::Rng& rng);
Gen<WireMessage> wire_messages();

/// Encodes whichever alternative the variant holds.
proto::Buffer encode_wire_message(const WireMessage& message);

template <>
struct ShrinkTraits<WireMessage> {
  static std::vector<WireMessage> candidates(const WireMessage& message);
};

template <>
struct FixtureTraits<WireMessage> {
  static std::string show(const WireMessage& message);
};

// ---------------------------------------------------------------------------
// Seeded malformed-bytes corpus

/// One corruption of a valid encoded frame. The mutation is sound for
/// a CRC32-framed codec: a single overwritten byte (an error burst of
/// <= 8 bits) is always detected, and truncation/appending violates
/// framing — so decode must throw; silently accepting the mutant frame
/// is a codec bug unless the mutation was a no-op.
struct MutationCase {
  enum class Op { kOverwriteByte, kTruncate, kAppend };

  WireMessage message;       ///< The valid message that was encoded.
  Op op = Op::kOverwriteByte;
  std::size_t position = 0;  ///< Byte index (overwrite) / new size (truncate).
  std::uint8_t value = 0;    ///< Overwrite/append byte value.

  /// The corrupted frame (encode + mutate).
  proto::Buffer mutated() const;
  /// True when the mutation leaves the frame byte-identical (e.g.
  /// overwriting a byte with its current value) — such cases are
  /// vacuously fine and the property skips them.
  bool is_noop() const;
};

MutationCase gen_mutation_case(cvr::Rng& rng);
Gen<MutationCase> mutation_cases();

template <>
struct ShrinkTraits<MutationCase> {
  static std::vector<MutationCase> candidates(const MutationCase& mutation);
};

template <>
struct FixtureTraits<MutationCase> {
  static std::string show(const MutationCase& mutation);
};

// ---------------------------------------------------------------------------
// Welford / QoE-accumulator sample streams

/// Samples spanning magnitudes (1e-6 .. 1e9, signed) plus a split point
/// for the merge property.
struct SampleStream {
  std::vector<double> samples;
  std::size_t split = 0;  ///< In [0, samples.size()].
};

Gen<SampleStream> sample_streams(std::size_t max_len = 300);

template <>
struct ShrinkTraits<SampleStream> {
  static std::vector<SampleStream> candidates(const SampleStream& stream);
};

template <>
struct FixtureTraits<SampleStream> {
  static std::string show(const SampleStream& stream);
};

/// One user's per-slot outcomes for the QoE-accumulator decomposition
/// property: chosen level, displayed quality (0 on a miss), delay.
struct QoeTrace {
  struct Step {
    int chosen = 1;
    double displayed = 0.0;
    double delay = 0.0;
  };
  std::vector<Step> steps;
};

Gen<QoeTrace> qoe_traces(std::size_t max_len = 200);

template <>
struct ShrinkTraits<QoeTrace> {
  static std::vector<QoeTrace> candidates(const QoeTrace& trace);
};

template <>
struct FixtureTraits<QoeTrace> {
  static std::string show(const QoeTrace& trace);
};

// ---------------------------------------------------------------------------
// Server tile-cache scripts

/// A ServerTileCache configuration plus a script of window moves and
/// lookups. The window centre starts at cell (0, 0).
struct CacheScript {
  struct Op {
    /// True: shift the centre by (dx, dy) and advance. False: look up
    /// `count` consecutive ids, the first being tile `tile` at level
    /// `level` of the cell (dx, dy) away from the centre; each further
    /// id takes the next (tile, level) offset, then the next cell in y.
    bool advance = true;
    std::int32_t dx = 0;
    std::int32_t dy = 0;
    int tile = 0;
    int level = 1;
    int count = 1;
  };
  std::size_t capacity = 1;
  std::int32_t radius = 0;
  std::vector<Op> ops;

  /// Runs the script: on_advance(GridCell) for each move, on_lookup(
  /// VideoId) for each id looked up, in order.
  template <typename Advance, typename Lookup>
  void replay(Advance&& on_advance, Lookup&& on_lookup) const {
    constexpr int kIds = content::kTilesPerFrame * content::kNumQualityLevels;
    content::GridCell center{0, 0};
    for (const Op& op : ops) {
      if (op.advance) {
        center.gx += op.dx;
        center.gy += op.dy;
        on_advance(center);
        continue;
      }
      const int first = op.tile * content::kNumQualityLevels + op.level - 1;
      for (int i = 0; i < op.count; ++i) {
        const int id = first + i;
        on_lookup(content::pack_video_id(
            {{center.gx + op.dx, center.gy + op.dy + id / kIds},
             (id % kIds) / content::kNumQualityLevels,
             static_cast<content::QualityLevel>(
                 id % content::kNumQualityLevels + 1)}));
      }
    }
  }
};

/// Capacities 1..25 000 (often below one cell, or within a few ids of
/// one window), radii 0..4, and scripts mixing one-cell steps, jumps of
/// 2..2r+1 cells, teleports, repeated centres, lookups around the
/// window and floods of misses far from it.
Gen<CacheScript> cache_scripts();

template <>
struct ShrinkTraits<CacheScript> {
  static std::vector<CacheScript> candidates(const CacheScript& script);
};

template <>
struct FixtureTraits<CacheScript> {
  static std::string show(const CacheScript& script);
};

}  // namespace cvr::proptest
