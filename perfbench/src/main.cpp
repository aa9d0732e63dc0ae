// perfbench: the end-to-end benchmark of the cebis sweep, live and
// socket paths. Usually launched through perfbench/run.py, which builds
// this binary from source first:
//
//   perfbench --workload sweep|live|socket [--seed N] [--seconds S]
//             [--trace 0|1] [--out DIR] [--small]
//             [--perturb-reference] [--git-sha SHA]
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the traced pass and reports the per-layer
// ones, writing the span JSON to DIR. Exit 2 on bad arguments or on a
// build without NDEBUG; exit 1 when a workload throws.

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "harness.h"

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.c_str();  // stop at the first NUL
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload sweep|live|socket "
               "[--seed N] [--seconds S] [--trace 0|1] [--out DIR] "
               "[--small] [--perturb-reference] [--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: built without NDEBUG (build type %s); timings of "
               "an unoptimized build are not comparable - refusing to run\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  perfbench::Options options;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t n = 0;
    if (arg == "--small") {
      options.small = true;
    } else if (arg == "--perturb-reference") {
      options.perturb_reference = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      if (!parse_u64(argv[++i], options.seed)) return usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!parse_u64(argv[++i], n) || n == 0) return usage("bad --seconds");
      options.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      options.trace = v == "1";
    } else if (arg == "--out") {
      options.out_dir = argv[++i];
    } else if (arg == "--git-sha") {
      git_sha = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const char* tmp = std::getenv("TMPDIR");
  options.tmp_dir = tmp != nullptr && *tmp != '\0' ? tmp : options.out_dir;
  if (options.workload != "sweep" && options.workload != "live" &&
      options.workload != "socket") {
    return usage("--workload must be sweep, live or socket");
  }

  std::printf(
      "host: {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"ndebug\": true, \"git_sha\": \"%s\", "
      "\"seed\": %llu, \"workload\": \"%s\", \"trace\": %d, \"seconds\": %.0f, "
      "\"small\": %s}\n",
      sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, git_sha.c_str(),
      static_cast<unsigned long long>(options.seed), options.workload.c_str(),
      options.trace ? 1 : 0, options.seconds, options.small ? "true" : "false");
  std::fflush(stdout);

  perfbench::Report report;
  try {
    if (options.workload == "sweep") {
      perfbench::run_sweep(options, report);
    } else if (options.workload == "live") {
      perfbench::run_live(options, report);
    } else {
      perfbench::run_socket(options, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload aborted: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  std::printf("%s\n", report.json().c_str());
  return 0;
}
