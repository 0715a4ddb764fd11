// elephant_perf: the repository benchmark's binary (run.py builds and
// invokes it). Usage:
//
//   elephant_perf --workload fig2_cold|scan_warm|oltp_wal --seed N
//                 --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints one JSON object as the last line of stdout: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Exits 1 when a correctness check failed and
// 2 on a usage or set-up error (no result is printed then).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perf.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::RunOptions* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  perfbench::Report report;
  perfbench::Tracer tracer(options.trace);
  bool ran;
  if (options.workload == "fig2_cold") {
    ran = perfbench::RunFig2Cold(options, &tracer, &report);
  } else if (options.workload == "scan_warm") {
    ran = perfbench::RunScanWarm(options, &tracer, &report);
  } else if (options.workload == "oltp_wal") {
    ran = perfbench::RunOltpWal(options, &tracer, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (!ran) return 2;
  const std::string spans = options.out_dir + "/spans-" + options.workload +
                            "-" + std::to_string(options.seed) + ".jsonl";
  if (options.trace && !tracer.WriteJsonl(spans)) {
    std::fprintf(stderr, "could not write %s\n", spans.c_str());
    return 2;
  }
  for (const perfbench::Report::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.Fail("metric " + m.name + " is not a finite number");
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
