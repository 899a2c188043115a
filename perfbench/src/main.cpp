// perfbench: the repository benchmark.  One workload per process:
//
//   perfbench --workload serve-cold|engine-sweep
//             --seed N --seconds S --trace 0|1
//             [--git-sha SHA] [--work-dir DIR] [--spans FILE]
//
// Prints a provenance header, the report, and as its last line one JSON
// object with "correct", "attempted", "failed" and "metrics" (end-to-end
// metrics untraced, per-layer metrics traced).  Exits 0 when every output
// check passed, 1 when one failed, 2 on bad usage or a non-Release build.
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve-cold|engine-sweep --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA] [--work-dir DIR] [--spans FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: built as '%s'; results are only "
                 "produced by a Release build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  Options opt;
  opt.work_dir = ".bench_build/work";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--git-sha") {
        opt.git_sha = value;
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else if (flag == "--spans") {
        opt.span_path = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (!(opt.seconds > 0 && opt.seconds <= 600)) {
    return usage("--seconds must be in (0, 600]");
  }
  RunOutput (*run)(const Options&, Tracer&) = nullptr;
  if (opt.workload == "serve-cold") run = run_serve_cold;
  if (opt.workload == "engine-sweep") run = run_engine_sweep;
  if (run == nullptr) return usage("unknown --workload");
  opt.work_dir += "/" + opt.workload + "-" + std::to_string(opt.seed);
  if (opt.span_path.empty()) opt.span_path = opt.work_dir + "-spans.json";

  std::printf("perfbench-header %s\n", provenance_json(opt).c_str());
  std::fflush(stdout);
  Tracer tracer;
  int code = 1;
  try {
    std::filesystem::create_directories(opt.work_dir);
    const RunOutput out = run(opt, tracer);
    code = report(opt, out, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    code = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(opt.work_dir, ignored);
  return code;
}
