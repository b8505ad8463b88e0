// The benchmark's three workloads (perfbench/README.md explains why each
// exists and which layer metric should move which end-to-end metric).
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the benchmark's own smoke test.
  bool smoke = false;
  /// "skip_upload_pose" drops one pose upload from the traced
  /// paper_system loop; the identity check must then fail.
  std::string perturb;
  std::string trace_dir;  ///< Where span files go; empty = not written.
};

void run_paper_system(const Options& options, RunReport& report);
void run_fleet_failover(const Options& options, RunReport& report);
void run_service_churn(const Options& options, RunReport& report);

}  // namespace perfbench
