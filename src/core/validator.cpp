#include "core/validator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/logic.h"
#include "io/table.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace swsim::core {

ValidationRow evaluate_row(FanoutGate& gate,
                           const std::vector<bool>& pattern) {
  std::string span_name;
  if (obs::tracing()) {
    span_name = gate.name() + " row ";
    for (const bool b : pattern) span_name += b ? '1' : '0';
  }
  obs::Span span(span_name, "core");
  static obs::Counter& rows =
      obs::MetricsRegistry::global().counter("core.rows_evaluated");
  rows.add();
  ValidationRow row;
  row.inputs = pattern;
  row.expected = gate.reference(pattern);
  row.outputs = gate.evaluate(pattern);
  row.pass_o1 = row.outputs.o1.logic == row.expected;
  row.pass_o2 = row.outputs.o2.logic == row.expected;
  return row;
}

ValidationReport assemble_report(std::string gate_name,
                                 std::vector<ValidationRow> rows) {
  ValidationReport report;
  report.gate_name = std::move(gate_name);
  report.rows = std::move(rows);
  report.all_pass = true;
  report.min_margin = std::numeric_limits<double>::infinity();
  for (const auto& row : report.rows) {
    if (!row.status.is_ok()) {
      // A failed row can never pass, and its outputs carry no physics:
      // keep it out of the analog aggregates.
      report.all_pass = false;
      continue;
    }
    report.all_pass = report.all_pass && row.pass_o1 && row.pass_o2;
    report.max_output_asymmetry =
        std::max(report.max_output_asymmetry,
                 std::fabs(row.outputs.normalized_o1 -
                           row.outputs.normalized_o2));
    report.min_margin = std::min({report.min_margin, row.outputs.o1.margin,
                                  row.outputs.o2.margin});
  }
  return report;
}

ValidationReport validate_gate(FanoutGate& gate) {
  std::vector<ValidationRow> rows;
  for (const auto& pattern : all_input_patterns(gate.num_inputs())) {
    rows.push_back(evaluate_row(gate, pattern));
  }
  return assemble_report(gate.name(), std::move(rows));
}

std::string format_report(const ValidationReport& report) {
  std::vector<std::string> headers;
  const std::size_t n = report.rows.empty() ? 0 : report.rows[0].inputs.size();
  // Paper table convention: I3 I2 I1 (MSB..LSB) column order.
  for (std::size_t i = n; i-- > 0;) {
    headers.push_back('I' + std::to_string(i + 1));
  }
  headers.insert(headers.end(), {"O1 (norm)", "O2 (norm)", "O1", "O2",
                                 "expected", "pass"});
  swsim::io::Table table(headers);
  for (const auto& row : report.rows) {
    std::vector<std::string> cells;
    for (std::size_t i = row.inputs.size(); i-- > 0;) {
      cells.push_back(row.inputs[i] ? "1" : "0");
    }
    if (!row.status.is_ok()) {
      cells.insert(cells.end(), {"-", "-", "-", "-",
                                 row.expected ? "1" : "0",
                                 to_string(row.status.code())});
      table.add_row(std::move(cells));
      continue;
    }
    cells.push_back(swsim::io::Table::num(row.outputs.normalized_o1, 3));
    cells.push_back(swsim::io::Table::num(row.outputs.normalized_o2, 3));
    cells.push_back(row.outputs.o1.logic ? "1" : "0");
    cells.push_back(row.outputs.o2.logic ? "1" : "0");
    cells.push_back(row.expected ? "1" : "0");
    cells.push_back(row.pass_o1 && row.pass_o2 ? "yes" : "NO");
    table.add_row(std::move(cells));
  }
  std::ostringstream os;
  os << report.gate_name << " truth table\n" << table.str();
  os << "fan-out symmetry: max |O1 - O2| = "
     << swsim::io::Table::num(report.max_output_asymmetry, 4)
     << "   worst margin = " << swsim::io::Table::num(report.min_margin, 4)
     << "   verdict: " << (report.all_pass ? "PASS" : "FAIL") << '\n';
  return os.str();
}

}  // namespace swsim::core
