// perfbench: the repository's serving benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tmp-dir <dir>] [--trace-out <file>]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics. The last stdout line is one
// JSON record; an oracle mismatch exits nonzero before printing it.
// perfbench/run.py builds this binary and is the documented entry
// point.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace topk::perfbench {
namespace {

// Same names and units as BENCHMARK.json (run.py cross-checks them).
const std::vector<MetricDef> kEndToEnd = {
    {"qps", "1/s"},
    {"read_p50_us", "us"},
    {"setup_s", "s"},
    {"rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"core.query_us_p50", "us"},
    {"core.emitted_per_result", "ratio"},
    {"core.nodes_per_query", "count"},
    {"core.prioritized_per_query", "count"},
    {"core.rounds_per_query", "count"},
    {"core.full_scans_per_query", "count"},
    {"core.fallbacks", "count"},
    {"core.build_s", "s"},
    {"core.overhead_vs_ideal", "ratio"},
    {"range1d.pri_ideal_us_p50", "us"},
    {"range1d.max_us_p50", "us"},
    {"parallel.deepk_us_p50", "us"},
    {"parallel.serial_deepk_us_p50", "us"},
    {"parallel.speedup", "ratio"},
    {"common.select_us_p50", "us"},
    {"serve.dispatch_us", "us"},
    {"serve.scaling_eff", "ratio"},
    {"epoch.acquire_ns", "ns"},
    {"epoch.publish_us_p50", "us"},
    {"epoch.shadow_build_ms_p50", "ms"},
    {"epoch.live_epochs_max", "count"},
    {"federate.rounds_per_query", "count"},
    {"federate.fetches_per_query", "count"},
    {"federate.pulled_per_query", "count"},
    {"federate.transferred_per_query", "count"},
    {"federate.cache_hit_rate", "ratio"},
    {"federate.invalidations", "count"},
    {"federate.unstable_retries", "count"},
    {"federate.exhaustive_fallbacks", "count"},
    {"federate.hit_us_p50", "us"},
    {"federate.miss_us_p50", "us"},
    {"federate.miss_us_p99", "us"},
    {"em.ack_us_p50", "us"},
    {"em.ack_us_p99", "us"},
    {"em.fsyncs_per_ack", "count"},
    {"em.wal_bytes_per_ack", "B"},
    {"em.bytes_written_per_user_byte", "ratio"},
    {"em.checkpoint_ms_p50", "ms"},
    {"em.recover_ms", "ms"},
    {"em.replayed_records", "count"},
    {"churn.updates_per_s", "1/s"},
    {"churn.write_p50_us", "us"},
    {"churn.publish_p50_ms", "ms"},
    {"churn.publish_p99_ms", "ms"},
    {"read_p99_us", "us"},
    {"trace.qps_overhead", "ratio"},
    {"trace.read_p50_overhead", "ratio"},
    {"trace.read_p99_overhead", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve-thm1|federate-zipf|churn-durable|deepk-parallel "
               "--seed N --seconds S --trace 0|1 [--tmp-dir DIR] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing flag value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--tmp-dir") {
      args.tmp_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_seed) Usage("need --workload and --seed");
  return args;
}

}  // namespace
}  // namespace topk::perfbench

int main(int argc, char** argv) {
  using namespace topk::perfbench;
  const Args args = Parse(argc, argv);
  SelfCheckPercentiles();
  Report report(args.trace ? kPerLayer : kEndToEnd);
  if (args.trace) {
    // Layers a workload leaves idle read zero.
    for (const MetricDef& d : kPerLayer) report.Set(d.name, 0.0);
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (args.workload == "serve-thm1") {
    RunServeThm1(args, &report);
  } else if (args.workload == "federate-zipf") {
    RunFederateZipf(args, &report);
  } else if (args.workload == "churn-durable") {
    RunChurnDurable(args, &report);
  } else if (args.workload == "deepk-parallel") {
    RunDeepkParallel(args, &report);
  } else {
    Usage("unknown workload");
  }
  report.Print();
  return 0;
}
