// Dump readers: the files other commands write (--metrics-out, --trace-out,
// probe record) read back, checked, merged or summarized.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>

#include "cli/commands.h"
#include "io/csv.h"
#include "io/table.h"
#include "math/spectrum.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace_merge.h"

namespace swsim::cli {

using io::Table;

namespace {

// A whole CSV cell as a finite number (std::strtod alone reads "4e-1x2"
// as 0.4 and "abc" as 0).
std::optional<double> finite_number(const std::string& cell) {
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (cell.empty() || end != cell.c_str() + cell.size() || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

// A count of a metrics dump as the integer it must be. JSON numbers are
// doubles, exact up to 2^53; anything else (a string, a negative or
// fractional number, a larger one) is a corrupt dump.
std::optional<std::uint64_t> dump_count(const obs::JsonValue& v) {
  if (!v.is_number()) return std::nullopt;
  const double n = v.number();
  if (!(n >= 0.0 && n <= 9007199254740992.0) || n != std::floor(n)) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(n);
}

// One histogram of a metrics dump, read back into the registry's own
// snapshot type: its [[le, n], ...] buckets split into the finite upper
// bounds and the per-bucket counts (the overflow "inf" bucket last); a
// sum that took a NaN or infinite sample is dumped as null and reads as
// NaN. Prints why and returns nullopt when the histogram is malformed.
std::optional<obs::HistogramSnapshot> read_histogram(const std::string& name,
                                                     const obs::JsonValue& h) {
  const auto* count = h.find("count");
  const auto* sum = h.find("sum");
  const auto* buckets = h.find("buckets");
  const auto total = count ? dump_count(*count) : std::nullopt;
  if (!total || !sum || !buckets || !buckets->is_array()) {
    std::cerr << "stats: histogram '" << name << "' is malformed\n";
    return std::nullopt;
  }
  obs::HistogramSnapshot out;
  out.count = *total;
  out.sum = sum->is_number() ? sum->number() : std::nan("");
  for (const auto& pair : buckets->array()) {
    const auto n = pair.is_array() && pair.array().size() == 2
                       ? dump_count(pair.array()[1])
                       : std::nullopt;
    if (!n ||
        (!pair.array()[0].is_number() && &pair != &buckets->array().back())) {
      std::cerr << "stats: histogram '" << name << "' has a bad bucket\n";
      return std::nullopt;
    }
    const auto& le = pair.array()[0];
    if (le.is_number()) out.bounds.push_back(le.number());
    out.counts.push_back(*n);
  }
  return out;
}

// Parses a dump file with invalid-input semantics: an empty file or
// malformed JSON (a dump truncated by a crash or a full disk) is exit 2
// with the parser's positioned message — never a clean exit that would let
// a gating script mistake a dead dump for a healthy empty one.
std::optional<obs::JsonValue> parse_dump(const std::string& path,
                                         const char* cmd) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(std::string(cmd) + ": cannot open '" + path +
                             "'");
  }
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
    std::cerr << cmd << ": '" << path << "': empty file (was the run "
              << "interrupted before the dump was flushed?)\n";
    return std::nullopt;
  }
  try {
    return obs::parse_json(text);
  } catch (const std::exception& e) {
    std::cerr << cmd << ": '" << path << "': " << e.what()
              << " (truncated dump?)\n";
    return std::nullopt;
  }
}

// A registry metric name as a Prometheus metric name: [a-zA-Z0-9_:] only,
// "swsim_" prefix so the whole family is namespaced in a shared scrape.
std::string prom_name(const std::string& name) {
  std::string out = "swsim_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

// Renders a metrics dump as Prometheus text exposition (format 0.0.4):
// counters/gauges as single samples, histograms as the _bucket/_sum/_count
// triple with *cumulative* le buckets (the dump stores per-bucket counts).
int print_prometheus(const obs::JsonValue& counters,
                     const obs::JsonValue& gauges,
                     const obs::JsonValue& histograms) {
  const auto num = [](double v) {
    return std::isnan(v) ? "NaN" : obs::format_number(v);
  };
  const auto scalar = [](const obs::JsonValue& v) {
    return v.is_number() ? v.number() : std::nan("");
  };
  std::ostringstream os;
  for (const auto& [name, v] : counters.object()) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " counter\n" << n << " " << num(scalar(v)) << "\n";
  }
  for (const auto& [name, v] : gauges.object()) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " gauge\n" << n << " " << num(scalar(v)) << "\n";
  }
  for (const auto& [name, json] : histograms.object()) {
    const auto h = read_histogram(name, json);
    if (!h) return 2;
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " histogram\n";
    double cumulative = 0.0;
    for (std::size_t i = 0; i < h->counts.size(); ++i) {
      cumulative += static_cast<double>(h->counts[i]);
      if (i < h->bounds.size()) {
        os << n << "_bucket{le=\"" << num(h->bounds[i]) << "\"} "
           << obs::format_number(cumulative) << "\n";
      }
    }
    const double count = static_cast<double>(h->count);
    os << n << "_bucket{le=\"+Inf\"} " << num(count) << "\n"
       << n << "_sum " << num(h->sum) << "\n"
       << n << "_count " << num(count) << "\n";
  }
  std::cout << os.str();
  return 0;
}

}  // namespace

// Pretty-prints a --metrics-out dump as console tables.
int cmd_stats(const Args& args) {
  const std::string path = args.positional()[0];
  const auto parsed = parse_dump(path, "stats");
  if (!parsed) return 2;
  const obs::JsonValue& root = *parsed;
  const auto* counters = root.find("counters");
  const auto* gauges = root.find("gauges");
  const auto* histograms = root.find("histograms");
  if (!counters || !gauges || !histograms || !counters->is_object() ||
      !gauges->is_object() || !histograms->is_object()) {
    std::cerr << "stats: '" << path
              << "' is not a swsim metrics dump (missing counters/gauges/"
                 "histograms)\n";
    return 2;
  }
  if (counters->object().empty() && gauges->object().empty() &&
      histograms->object().empty()) {
    std::cerr << "stats: '" << path << "': dump contains no metrics (was "
              << "the registry armed? see --metrics-out)\n";
    return 2;
  }
  if (args.has("prom")) {
    return print_prometheus(*counters, *gauges, *histograms);
  }

  Table scalars({"metric", "value"});
  for (const auto* group : {counters, gauges}) {
    for (const auto& [name, v] : group->object()) {
      scalars.add_row({name, Table::num(v.number(), 0)});
    }
  }
  if (!counters->object().empty() || !gauges->object().empty()) {
    std::cout << scalars.str();
  }

  if (!histograms->object().empty()) {
    Table ht({"histogram", "count", "mean", "p50", "p90", "p99"});
    for (const auto& [name, json] : histograms->object()) {
      const auto h = read_histogram(name, json);
      if (!h) return 2;
      ht.add_row({name, Table::num(static_cast<double>(h->count), 0),
                  Table::num(h->mean(), 6), Table::num(h->quantile(0.50), 6),
                  Table::num(h->quantile(0.90), 6),
                  Table::num(h->quantile(0.99), 6)});
    }
    std::cout << '\n' << ht.str();
  }
  return 0;
}

// Validates a --trace-out file: parseable JSON, the Chrome trace_event
// wrapper shape, and well-formed X (complete), M (metadata) and s/t/f
// (flow) events, also across the pids of a `swsim trace merge` file.
int cmd_trace_check(const Args& args) {
  const std::string path = args.positional()[0];
  const auto parsed = parse_dump(path, "trace-check");
  if (!parsed) return 2;
  const obs::JsonValue& root = *parsed;
  const auto* events = root.find("traceEvents");
  if (!events || !events->is_array()) {
    std::cerr << "trace-check: '" << path
              << "': missing \"traceEvents\" array\n";
    return 2;
  }
  std::size_t complete = 0, metadata = 0, flows = 0;
  std::set<std::pair<double, double>> pid_tids;  // distinct (pid, tid)
  std::set<double> pids;
  for (std::size_t i = 0; i < events->array().size(); ++i) {
    const auto& e = events->array()[i];
    const auto fail = [&](const std::string& why) {
      std::cerr << "trace-check: event #" << i << ": " << why << '\n';
      return 2;
    };
    if (!e.is_object()) return fail("not an object");
    const auto* ph = e.find("ph");
    const auto* name = e.find("name");
    const auto* tid = e.find("tid");
    if (!ph || !ph->is_string()) return fail("missing \"ph\"");
    if (!name || !name->is_string()) return fail("missing \"name\"");
    if (!tid || !tid->is_number()) return fail("missing \"tid\"");
    const auto* p = e.find("pid");
    const double pid = p && p->is_number() ? p->number() : 1.0;
    pids.insert(pid);
    if (ph->str() == "M") {
      ++metadata;
      continue;
    }
    const std::string& phase = ph->str();
    const bool is_flow = phase == "s" || phase == "t" || phase == "f";
    if (phase != "X" && !is_flow) {
      return fail("unexpected phase '" + phase + "'");
    }
    const auto* ts = e.find("ts");
    if (!ts || !ts->is_number() || ts->number() < 0.0) {
      return fail("bad \"ts\"");
    }
    if (is_flow) {
      // Flow events carry the arrow id instead of a duration; we export it
      // as a hex string so 64-bit ids survive JSON doubles.
      const auto* id = e.find("id");
      if (!id || (!id->is_string() && !id->is_number())) {
        return fail("flow event without \"id\"");
      }
      ++flows;
    } else {
      const auto* dur = e.find("dur");
      if (!dur || !dur->is_number() || dur->number() < 0.0) {
        return fail("bad \"dur\"");
      }
      ++complete;
    }
    pid_tids.emplace(pid, tid->number());
  }
  if (complete == 0) {
    // A trace with no complete events means the session never recorded a
    // span — "valid JSON" is not the same as "a trace of a run".
    std::cerr << "trace-check: '" << path << "': no complete (ph=X) events "
              << "(was tracing armed for the whole run?)\n";
    return 2;
  }
  std::cout << "trace OK: " << complete << " complete events, " << flows
            << " flow events, " << metadata << " metadata events, "
            << pid_tids.size() << " thread"
            << (pid_tids.size() == 1 ? "" : "s") << " across " << pids.size()
            << " process" << (pids.size() == 1 ? "" : "es") << '\n';
  return 0;
}

// Joins traces exported by different processes (the client's --trace-out,
// the daemon's) onto one timeline. The rebase logic lives in
// obs::merge_trace_dumps; this wrapper only does file I/O.
int cmd_trace_merge(const Args& args) {
  const auto out_path = args.value("out");
  if (!out_path) {
    std::cerr << "trace merge: --out <merged.json> is required\n";
    return 2;
  }
  std::vector<obs::JsonValue> docs;
  docs.reserve(args.positional().size());  // keeps the refs below valid
  std::vector<std::pair<std::string, const obs::JsonValue*>> refs;
  for (const auto& p : args.positional()) {
    auto doc = parse_dump(p, "trace merge");
    if (!doc) return 2;
    docs.push_back(std::move(*doc));
    refs.emplace_back(p, &docs.back());
  }

  obs::TraceMergeStats stats;
  std::string merged;
  try {
    merged = obs::merge_trace_dumps(refs, &stats);
  } catch (const std::exception& ex) {
    std::cerr << "trace merge: " << ex.what() << '\n';
    return 2;
  }

  std::string error;
  if (!obs::write_json_file(*out_path, merged, &error)) {
    std::cerr << "trace merge: " << error << '\n';
    return 1;
  }
  std::cout << "merged " << stats.files << " traces (" << stats.events
            << " events) -> " << *out_path << '\n';
  return 0;
}

// FFT of a recorded series: reads a `probe record` CSV, periodogram of
// the chosen probe's m_x, prints the peak and optionally dumps
// frequency,power rows.
int cmd_probe_spectrum(const Args& args) {
  const std::string& path = args.positional()[0];
  std::vector<std::vector<std::string>> rows;
  try {
    rows = io::read_csv(path);
  } catch (const std::exception& e) {
    std::cerr << "probe spectrum: " << e.what() << '\n';
    return 2;
  }
  if (rows.size() < 2 || rows[0].size() < 3 || rows[0][0] != "probe") {
    std::cerr << "probe spectrum: '" << path
              << "' is not a probe-series CSV (want probe,t,mx,... rows)\n";
    return 2;
  }
  // Default to the first probe in the file; rows of other probes are
  // skipped so a multi-probe recording works without --probe.
  std::string probe = args.value("probe").value_or("");
  std::vector<double> t;
  std::vector<double> mx;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() < 3) continue;
    if (probe.empty()) probe = rows[i][0];
    if (rows[i][0] != probe) continue;
    const auto tv = finite_number(rows[i][1]);
    const auto mv = finite_number(rows[i][2]);
    if (!tv || !mv) {
      std::cerr << "probe spectrum: '" << path << "' row " << i << ": "
                << (tv ? "mx" : "t") << " cell '" << rows[i][tv ? 2 : 1]
                << "' is not a number\n";
      return 2;
    }
    t.push_back(*tv);
    mx.push_back(*mv);
  }
  if (t.size() < 4) {
    std::cerr << "probe spectrum: probe '" << probe << "' has " << t.size()
              << " samples in '" << path << "' (need at least 4)\n";
    return 2;
  }
  const double dt = (t.back() - t.front()) / static_cast<double>(t.size() - 1);
  math::Spectrum spectrum;
  try {
    spectrum = math::power_spectrum(mx, dt);
  } catch (const std::exception& e) {
    std::cerr << "probe spectrum: " << e.what() << '\n';
    return 2;
  }
  if (const auto out = args.value("out")) {
    io::CsvWriter csv(*out);
    csv.write_row({"frequency", "power"});
    for (std::size_t i = 0; i < spectrum.frequency.size(); ++i) {
      csv.write_row({obs::format_number(spectrum.frequency[i]),
                     obs::format_number(spectrum.power[i])});
    }
    std::cout << "wrote " << spectrum.frequency.size() << " bins -> " << *out
              << '\n';
  }
  std::cout << "probe " << probe << ": " << t.size() << " samples, dt "
            << Table::num(dt * 1e12, 3) << " ps, peak "
            << Table::num(spectrum.peak_frequency() * 1e-9, 3) << " GHz\n";
  return 0;
}

}  // namespace swsim::cli
