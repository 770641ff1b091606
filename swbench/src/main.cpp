// swbench entry point: argument parsing, the environment gate, CPU
// placement and the result line. Run through swbench/run.py, which builds
// this binary from the checkout first.
#include <sys/personality.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "mag/kernels/runtime.h"
#include "obs/progress.h"
#include "serve/version.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "swbench: %s\n"
               "usage: swbench --workload llg_maj|serve_sweep "
               "--seed N --seconds S --trace 0|1\n"
               "               --expected FILE [--short] "
               "[--negative-control]\n"
               "               [--source-digest HEX] [--trace-out FILE]\n",
               why);
  return 2;
}

void print_result(const swbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& m : r.metrics.all()) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  swbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--expected") {
        opt.expected_digests = value();
      } else if (a == "--source-digest") {
        opt.source_digest = value();
      } else if (a == "--trace-out") {
        opt.trace_out = value();
      } else if (a == "--short") {
        opt.short_mode = true;
      } else if (a == "--negative-control") {
        opt.negative_control = true;
      } else {
        return usage(("unknown argument '" + a + "'").c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (opt.workload != "llg_maj" && opt.workload != "serve_sweep") {
    return usage("--workload must be llg_maj or serve_sweep");
  }
  if (!have_seed || !have_seconds || !have_trace || !(opt.seconds > 0) ||
      opt.expected_digests.empty()) {
    return usage("--seed, --seconds (> 0), --trace and --expected are "
                 "required");
  }
  // Kernel-path and intra-solve overrides would change what is measured.
  for (const char* var : {"SWSIM_KERNEL_REF", "SWSIM_CELL_JOBS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "swbench: refusing to run with %s set\n", var);
      return 2;
    }
  }

  // Placement before any thread exists, so every thread inherits it.
  const bool llg = opt.workload == "llg_maj";
  const auto allowed = swbench::allowed_cpus();
  const auto cpus = swbench::pick_cpus(allowed, llg ? 2 : 1);
  std::string error;
  if (cpus.empty() || !swbench::pin_process(cpus, &error)) {
    std::fprintf(stderr, "swbench: cannot pin to a CPU set: %s\n",
                 error.c_str());
    return 1;
  }
  swsim::mag::kernels::set_force_reference(0);
  swsim::mag::kernels::set_cell_jobs(1);
  swsim::obs::ProgressReporter::global().suppress_output();

  const auto info = swsim::serve::build_info();
  std::printf("env: workload=%s seed=%llu seconds=%g trace=%d short=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.short_mode ? 1 : 0);
  const int persona = personality(0xffffffff);
  std::printf("env: cpus=%s (allowed %s) address_randomization=%s\n",
              swbench::cpu_list(cpus).c_str(),
              swbench::cpu_list(allowed).c_str(),
              persona != -1 && (persona & ADDR_NO_RANDOMIZE) ? "off" : "on");
  std::printf("env: git_sha=%s source_digest=%s version=%s\n",
              info.git_sha.c_str(),
              opt.source_digest.empty() ? "-" : opt.source_digest.c_str(),
              info.version.c_str());
  std::printf("env: build_type=%s compiler='%s' flags='%s'\n",
              info.build_type.c_str(), info.compiler.c_str(),
              info.flags.c_str());
  std::fflush(stdout);

  swbench::Result result;
  try {
    const swbench::Placement place{cpus, allowed};
    result = llg ? swbench::run_llg_maj(opt, place)
                 : swbench::run_serve_sweep(opt, place);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swbench: %s\n", e.what());
    return 1;
  }
  print_result(result);
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
