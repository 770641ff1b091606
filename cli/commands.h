// The swsim command handlers, by area, and the helpers they share. The
// command table that registers them (names, flags, help) is in main.cpp.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "cli/args.h"
#include "engine/batch_runner.h"
#include "serve/workload.h"

namespace swsim::cli {

// The command table; batch checks its job lines against its entries.
std::span<const Command> commands();
// The workload flags `client` accepts; each request type takes only those
// its local command declares.
extern const FlagGroup kWorkloadFlags;

// The handlers, by file: solve.cpp, readers.cpp, serve.cpp, bench.cpp.
Handler cmd_truthtable, cmd_dispersion, cmd_yield, cmd_compare, cmd_micromag,
    cmd_batch, cmd_probe_record;
Handler cmd_stats, cmd_trace_check, cmd_trace_merge, cmd_probe_spectrum;
Handler cmd_version, cmd_serve, cmd_client, cmd_probe_tail;
Handler cmd_bench_list, cmd_bench_run, cmd_bench_diff, cmd_bench_gate;

// Shared parsers: one copy each, for the local command and `client`.
engine::EngineConfig engine_config_from(const Args& args);
// The gate named by the positional at `at`, else by --gate, else "maj".
std::string gate_arg(const Args& args, std::size_t at);
serve::GateParams gate_params_from(const std::string& kind, const Args& args);
serve::YieldParams yield_params_from(const std::string& kind,
                                     const Args& args);
serve::MicromagParams micromag_params_from(const std::string& kind,
                                           const Args& args);

// Arms the global fault plan from an --inject spec.
void arm_faults(const std::string& spec);

// Stops the trace session and writes it to `path`, reporting "<prefix>trace:
// N events -> path<note>" on `report`, or why it failed on stderr.
bool write_trace(const std::string& path, const std::string& prefix,
                 std::ostream& report, const std::string& note = {});

}  // namespace swsim::cli
