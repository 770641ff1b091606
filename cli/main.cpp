// swsim — the command-line front end of the spin-wave gate library. Every
// command is registered once, in the table below: its arguments, the flags
// it accepts, a help line and its handler. `swsim help` prints from it.
#include <algorithm>
#include <iostream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "cli/commands.h"

namespace swsim::cli {
namespace {

const FlagGroup kEngineFlags{
    "engine",
    {{"jobs", "n", "worker threads (0 = hardware concurrency)"},
     {"no-cache", "", "disable result memoization"},
     {"cache-dir", "dir", "spill evicted results to (and reuse them from) it"},
     {"cell-jobs", "n", "threads inside each LLG solve; same bytes for any "
      "value (default 1, 0 = hardware threads; env SWSIM_CELL_JOBS)"},
     {"timeout", "s", "per-job wall-clock budget (0 = none)"},
     {"max-retries", "n", "retry budget for transient job failures"},
     {"retry-backoff", "s", "linear backoff between retry attempts"},
     {"inject", "spec,...", "arm faults (testing): throw:<label>, "
      "divergence:<label>, stall:<label>:<s>, nan:<step>"}}};

const FlagGroup kRunFlags{
    "run",
    {{"stats", "", "print engine counters (threads, hit rate, parallelism)"},
     {"trace-out", "f", "write Chrome trace_event JSON of the solve"},
     {"metrics-out", "f", "write the metrics registry as JSON"},
     {"log-json", "f", "write structured events (retries, quarantines, ...)"},
     {"log-level", "l", "debug|info|warn|error (needs --log-json)"},
     {"profile-out", "f", "write a swsim.profile/1 JSON run profile"},
     {"progress", "", "live progress line on stderr (default: on a terminal)"},
     {"no-progress", "", "suppress the progress line"}}};

const FlagGroup kEndpointFlags{
    "endpoint",
    {{"socket", "path", "the daemon's Unix socket (or --port)"},
     {"port", "n", "the daemon's loopback TCP port, 1-65535 (or --socket)"}}};

Handler cmd_help;

}  // namespace

const FlagGroup kWorkloadFlags{
    "workload",
    {{"gate", "name", "yield: the gate, unless given as [gate]"},
     {"lambda", "nm", "spin-wave wavelength"},
     {"width", "nm", "waveguide width"},
     {"sigma-length", "nm", "yield: length spread"},
     {"sigma-amp", "frac", "yield: amplitude spread"},
     {"trials", "n", "yield: virtual devices"},
     {"cell", "nm", "micromag: cell size"},
     {"early-stop", "", "micromag: end settled solves"}}};

std::span<const Command> commands() {
  const std::vector<const FlagGroup*> solve = {&kEngineFlags, &kRunFlags};
  static const std::vector<Command> table = {
      {"truthtable", "<maj|xor|xnor|and|or|nand|nor|maj5|maj7>",
       {{"lambda", "nm"}, {"width", "nm"}}, solve,
       "a gate's truth table (the paper's Tables I and II)", cmd_truthtable},
      {"dispersion", "", {{"thickness", "nm"},
       {"material", "fecob|yig|permalloy"}, {"applied", "kA/m"}}, {},
       "spin-wave dispersion: f, group velocity, attenuation", cmd_dispersion},
      {"yield", "[maj|xor]", {{"gate", "maj|xor"}, {"lambda", "nm"},
       {"width", "nm"}, {"sigma-length", "nm"}, {"sigma-amp", "frac"},
       {"trials", "n"}}, solve, "Monte-Carlo yield under variability",
       cmd_yield},
      {"compare", "", {}, {}, "regenerate the paper's Table III", cmd_compare},
      {"micromag", "", {{"xor"}, {"lambda", "nm"}, {"width", "nm"},
       {"cell", "nm"}, {"early-stop"}}, solve,
       "LLG truth table (slow); --early-stop ends settled solves (same "
       "logic, raw amplitudes may differ)", cmd_micromag},
      {"batch", "<jobfile>", {{"out", "csv"}, {"report", "csv"}, {"fail-fast"}},
       solve, "one 'truthtable ...' or 'yield ...' job per line, one engine",
       cmd_batch},
      {"stats", "<metrics.json>", {{"prom"}}, {},
       "pretty-print a --metrics-out dump (--prom: Prometheus)", cmd_stats},
      {"trace-check", "<trace.json>", {}, {},
       "validate a --trace-out file (merged ones too)", cmd_trace_check},
      {"trace merge", "<trace.json...>", {{"out", "merged.json"}}, {},
       "join traces of several processes into --out", cmd_trace_merge},
      {"version", "", {}, {}, "build fingerprint: version, git sha, compiler",
       cmd_version},
      {"serve", "", {{"dispatchers", "n"}, {"queue", "n"},
       {"max-sessions", "n"}, {"retry-after", "s"}, {"idle-timeout", "s"},
       {"frame-timeout", "s"}, {"default-deadline", "s"},
       {"max-deadline", "s"}, {"tunables", "file"}, {"request-log", "jsonl"},
       {"trace-out", "f"}}, {&kEndpointFlags, &kEngineFlags},
       "the daemon (docs/SERVING.md); SIGTERM drains, SIGHUP reloads, SIGQUIT "
       "dumps the flight recorder", cmd_serve},
      {"client", "<hello|healthz|metrics|truthtable|yield|micromag> [gate]",
       {{"client", "name"}, {"priority", "n"}, {"id", "n"}, {"deadline", "s"},
        {"max-attempts", "n"}, {"retry-base", "s"}, {"retry-max", "s"},
        {"retry-seed", "n"}, {"chaos", "spec"}, {"verify"}, {"timing"},
        {"trace-id", "id"}, {"trace-out", "f"}},
       {&kEndpointFlags, &kWorkloadFlags},
       "one request to a daemon, taking the workload flags its local command "
       "takes; --verify byte-compares a local recompute", cmd_client},
      {"probe record", "", {{"xor"}, {"lambda", "nm"}, {"width", "nm"},
       {"cell", "nm"}, {"pattern", "bits"}, {"out", "csv"}, {"cell-jobs", "n"}},
       {}, "one LLG solve; detector series to --out", cmd_probe_record},
      {"probe spectrum", "<series.csv>", {{"probe", "name"}, {"out", "csv"}},
       {}, "periodogram of a recorded series", cmd_probe_spectrum},
      {"probe tail", "", {{"id", "n"}, {"client", "name"}, {"max-frames", "n"},
       {"duration", "s"}, {"probe", "name"}}, {&kEndpointFlags},
       "a daemon's live lock-in envelopes", cmd_probe_tail},
      {"bench list", "", {}, {}, "known bench targets", cmd_bench_list},
      {"bench run", "[name...]", {{"quick"}, {"repeats", "n"}, {"warmup", "n"},
       {"bin-dir", "dir"}, {"out-dir", "dir"}}, {},
       "run bench binaries; each writes BENCH_<name>.json", cmd_bench_run},
      {"bench diff", "<base.json> <current.json>",
       {{"tolerance", "frac"}, {"mad-k", "k"}}, {},
       "compare two runs; exit 1 on regression", cmd_bench_diff},
      {"bench gate", "", {{"baseline", "dir"}, {"current", "dir"},
       {"tolerance", "frac"}, {"mad-k", "k"}}, {},
       "gate BENCH_*.json against --baseline; exit 1 on regression",
       cmd_bench_gate},
      {"help", "", {}, {}, "this text", cmd_help},
  };
  return table;
}

namespace {

// Prints `head` padded to `indent`, then `pieces`, wrapping at 78 columns
// onto lines indented by `indent`.
void print_wrapped(std::string head, const std::vector<std::string>& pieces,
                   std::size_t indent) {
  std::string line = head.append(indent - std::min(indent, head.size()), ' ');
  for (const std::string& p : pieces) {
    if (line.size() + 1 + p.size() > 78 && line.size() > indent) {
      std::cout << line << '\n';
      line = std::string(indent, ' ');
    }
    line.append(line.size() > indent ? " " : "").append(p);
  }
  std::cout << line << '\n';
}

std::vector<std::string> words(std::string_view text) {
  std::istringstream is{std::string(text)};
  return {std::istream_iterator<std::string>(is), {}};
}

std::string synopsis(const Flag& f) {
  std::string s = "--";
  s.append(f.name);
  if (!f.value.empty()) s.append(" <").append(f.value).append(">");
  return s;
}

int cmd_help(const Args&) {
  std::cout << "swsim - fan-out-of-2 triangle spin-wave logic gates\n\n"
               "usage: swsim <command> [args] [--flag [value]]...\n\n"
               "commands:\n";
  for (const Command& c : commands()) {
    print_wrapped("  " + std::string(c.name), words(c.summary), 18);
    std::vector<std::string> usage = words(c.usage);
    for (const Flag& f : c.flags) {
      usage.push_back(std::string("[").append(synopsis(f)) + "]");
    }
    for (const FlagGroup* g : c.groups) {
      usage.push_back(std::string("[").append(g->name) + " flags]");
    }
    if (!usage.empty()) print_wrapped("", usage, 18);
  }
  for (const FlagGroup* g :
       {&kEngineFlags, &kRunFlags, &kEndpointFlags, &kWorkloadFlags}) {
    std::cout << '\n' << g->name << " flags:\n";
    for (const Flag& f : g->flags) {
      print_wrapped("  " + synopsis(f), words(f.note), 24);
    }
  }
  std::cout << "\nexit codes: 0 ok; 1 failure (logic, regression, remote "
               "error); 2 usage;\n3 retryable rejection; 4 transport; 5 "
               "deadline or attempts exhausted;\n130 interrupted batch\n";
  return 0;
}

}  // namespace
}  // namespace swsim::cli

int main(int argc, char** argv) {
  using namespace swsim::cli;
  try {
    const Invocation call = parse_command_line(commands(), argc, argv);
    return call.command->run(call.args);
  } catch (const std::invalid_argument& e) {
    // Unknown commands and flags, malformed values ("--jobs=abc", "--jobs
    // -4"): usage errors, distinct from runtime failures.
    std::cerr << "usage error: " << e.what() << " (try: swsim help)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
