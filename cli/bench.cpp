// Bench commands: run the bench suite and compare/gate its BENCH_*.json
// artifacts (schema swsim.bench/1, written by the shared bench harness).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "bench/harness.h"
#include "cli/commands.h"
#include "io/table.h"

namespace swsim::cli {

using io::Table;

namespace {

// Where the bench binaries live: next to this executable's build tree
// (build/cli/swsim -> build/bench), overridable with --bin-dir.
std::string default_bench_bin_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  const std::filesystem::path exe(buf);
  return (exe.parent_path().parent_path() / "bench").string();
}

swsim::bench::CompareOptions compare_options_from(const Args& args) {
  swsim::bench::CompareOptions opts;
  opts.rel_tolerance = args.number("tolerance", opts.rel_tolerance);
  opts.mad_k = args.number("mad-k", opts.mad_k);
  if (opts.rel_tolerance < 0.0) {
    throw std::invalid_argument("--tolerance must be >= 0");
  }
  if (opts.mad_k < 0.0) {
    throw std::invalid_argument("--mad-k must be >= 0");
  }
  return opts;
}

// Loads and compares one BENCH file pair and prints the per-case table
// under `label`. Returns the number of regressions, or -1 (after saying
// why) when a file cannot be read.
int compare_files(const char* cmd, const std::string& base_path,
                  const std::string& cur_path, const std::string& label,
                  const swsim::bench::CompareOptions& opts) {
  using swsim::bench::Verdict;
  swsim::bench::BenchDoc base, cur;
  try {
    base = swsim::bench::load_bench_file(base_path);
    cur = swsim::bench::load_bench_file(cur_path);
  } catch (const std::exception& e) {
    std::cerr << cmd << ": " << e.what() << '\n';
    return -1;
  }
  const auto result = swsim::bench::compare_benches(base, cur, opts);
  if (base.env.git_sha != cur.env.git_sha ||
      base.env.compiler != cur.env.compiler ||
      base.env.build_type != cur.env.build_type ||
      base.env.cores != cur.env.cores ||
      base.env.kernel_isa != cur.env.kernel_isa) {
    const auto isa = [](const std::string& s) {
      return s.empty() ? std::string("unrecorded") : s;
    };
    std::cout << "note: environments differ (base " << base.env.git_sha
              << ", " << base.env.compiler << ", " << base.env.build_type
              << ", " << base.env.cores << " cores, kernel isa "
              << isa(base.env.kernel_isa) << "; current " << cur.env.git_sha
              << ", " << cur.env.compiler << ", " << cur.env.build_type
              << ", " << cur.env.cores << " cores, kernel isa "
              << isa(cur.env.kernel_isa) << ")\n";
  }
  if (base.quick != cur.quick) {
    std::cout << "note: comparing a --quick run against a full run\n";
  }
  Table t({"case", "base median", "current", "delta", "threshold",
           "verdict"});
  for (const auto& d : result.deltas) {
    const bool both = d.verdict != Verdict::kNew &&
                      d.verdict != Verdict::kMissing;
    t.add_row({d.name,
               d.verdict == Verdict::kNew ? "-" : Table::num(d.base_median, 6),
               d.verdict == Verdict::kMissing ? "-"
                                              : Table::num(d.cur_median, 6),
               both ? Table::num(d.cur_median - d.base_median, 6) : "-",
               both ? Table::num(d.threshold, 6) : "-",
               swsim::bench::verdict_name(d.verdict)});
  }
  std::cout << label << ":\n" << t.str();
  if (result.regressions > 0) {
    std::cout << result.regressions << " regression"
              << (result.regressions == 1 ? "" : "s") << " detected\n";
  } else {
    std::cout << "no regressions";
    if (result.improvements > 0) {
      std::cout << " (" << result.improvements << " improvement"
                << (result.improvements == 1 ? "" : "s")
                << " — consider refreshing the baseline)";
    }
    std::cout << '\n';
  }
  return result.regressions;
}

}  // namespace

int cmd_bench_list(const Args&) {
  Table t({"name", "binary", "primary output", "runtime"});
  for (const auto& b : swsim::bench::bench_registry()) {
    t.add_row({b.name, std::string("bench_") + b.name, b.output,
               b.heavy ? "heavy (minutes full / --quick)" : "seconds"});
  }
  std::cout << t.str()
            << "\nrun with: swsim bench run <name...> [--quick]\n";
  return 0;
}

int cmd_bench_run(const Args& args) {
  const auto& registry = swsim::bench::bench_registry();
  std::vector<std::string> names = args.positional();
  if (names.empty()) {
    for (const auto& b : registry) names.push_back(b.name);
  }
  for (const auto& name : names) {
    if (std::ranges::find(registry, name, &swsim::bench::BenchTarget::name) ==
        registry.end()) {
      std::cerr << "bench run: unknown bench '" << name
                << "' (see: swsim bench list)\n";
      return 2;
    }
  }

  // Benches run from the output directory (below), so a relative --bin-dir
  // must be resolved against the *current* cwd before the cd.
  const std::string bin_dir =
      std::filesystem::absolute(
          args.value("bin-dir").value_or(default_bench_bin_dir()))
          .string();
  const std::string out_dir = args.value("out-dir").value_or(".");
  std::string flags;
  if (args.has("quick")) flags += " --quick";
  if (const auto v = args.value("repeats")) flags += " --repeats " + *v;
  if (const auto v = args.value("warmup")) flags += " --warmup " + *v;

  int failures = 0;
  for (const auto& name : names) {
    const std::string bin = bin_dir + "/bench_" + name;
    if (!std::filesystem::exists(bin)) {
      std::cerr << "bench run: no binary at " << bin
                << " (build the bench targets, or pass --bin-dir)\n";
      return 2;
    }
    std::cout << "=== bench " << name << " ===\n" << std::flush;
    // Benches write their CSV/PGM artifacts into the cwd, so run them from
    // the output directory and let the harness drop BENCH_<name>.json there.
    const std::string cmd = "cd '" + out_dir + "' && '" + bin + "'" + flags;
    const int rc = std::system(cmd.c_str());
    const int exit_code =
        rc == -1 ? -1 : (WIFEXITED(rc) ? WEXITSTATUS(rc) : -1);
    if (exit_code != 0) {
      std::cerr << "bench run: " << name << " exited with "
                << exit_code << '\n';
      ++failures;
    }
  }
  if (failures > 0) {
    std::cerr << "bench run: " << failures << " of " << names.size()
              << " benches failed\n";
    return 1;
  }
  return 0;
}

int cmd_bench_diff(const Args& args) {
  const std::string& base_path = args.positional()[0];
  const std::string& cur_path = args.positional()[1];
  const int regressions =
      compare_files("bench diff", base_path, cur_path,
                    base_path + " -> " + cur_path, compare_options_from(args));
  return regressions < 0 ? 2 : (regressions > 0 ? 1 : 0);
}

int cmd_bench_gate(const Args& args) {
  const auto baseline_dir = args.value("baseline");
  if (!baseline_dir) {
    std::cerr << "bench gate: --baseline <dir> is required\n";
    return 2;
  }
  const std::string current_dir = args.value("current").value_or(".");
  const auto opts = compare_options_from(args);

  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(current_dir, ec)) {
    const std::string fname = entry.path().filename().string();
    if (fname.starts_with("BENCH_") && fname.ends_with(".json") &&
        fname.size() > 11) {
      files.push_back(fname);
    }
  }
  if (ec) {
    std::cerr << "bench gate: cannot read '" << current_dir
              << "': " << ec.message() << '\n';
    return 2;
  }
  if (files.empty()) {
    std::cerr << "bench gate: no BENCH_*.json in '" << current_dir
              << "' (run `swsim bench run` first)\n";
    return 2;
  }
  std::sort(files.begin(), files.end());

  int total_regressions = 0;
  int compared = 0;
  for (const auto& fname : files) {
    const std::string base_path = *baseline_dir + "/" + fname;
    if (!std::filesystem::exists(base_path)) {
      std::cout << "gate: " << fname << ": no baseline (new bench?) — "
                << "skipped\n";
      continue;
    }
    const int regressions = compare_files(
        "bench gate", base_path, current_dir + "/" + fname, fname, opts);
    if (regressions < 0) return 2;
    total_regressions += regressions;
    std::cout << '\n';
    ++compared;
  }
  if (compared == 0) {
    std::cerr << "bench gate: nothing to compare ('" << *baseline_dir
              << "' holds no matching baselines)\n";
    return 2;
  }
  if (total_regressions > 0) {
    std::cout << "gate: FAIL — " << total_regressions << " regression"
              << (total_regressions == 1 ? "" : "s") << " across "
              << compared << " bench file" << (compared == 1 ? "" : "s")
              << '\n';
    return 1;
  }
  std::cout << "gate: OK — " << compared << " bench file"
            << (compared == 1 ? "" : "s") << " within tolerance\n";
  return 0;
}

}  // namespace swsim::cli
