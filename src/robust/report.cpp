#include "robust/report.h"

#include <cstdio>
#include <sstream>

#include "obs/clock.h"

namespace swsim::robust {

namespace {

std::string hex_key(std::uint64_t key) {
  if (key == 0) return "-";
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

}  // namespace

void FailureReport::add(JobFailure failure) {
  failures_.push_back(std::move(failure));
}

void FailureReport::merge(const FailureReport& other) {
  failures_.insert(failures_.end(), other.failures_.begin(),
                   other.failures_.end());
}

std::vector<std::string> FailureReport::csv_header() {
  return {"job",  "status", "cause",   "attempts", "quarantined",
          "time", "t_us",   "job_key", "wall_s"};
}

std::vector<std::vector<std::string>> FailureReport::csv_rows() const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(failures_.size());
  for (const JobFailure& f : failures_) {
    std::string cause = f.status.message();
    if (!f.status.context().empty()) {
      cause += " [" + f.status.context() + "]";
    }
    std::string when = obs::format_iso8601_us(f.t_us);
    if (when.empty()) when = '-';
    rows.push_back({f.job, to_string(f.status.code()), cause,
                    std::to_string(f.attempts), f.quarantined ? "1" : "0",
                    std::move(when), std::to_string(f.t_us),
                    hex_key(f.job_key), io::Table::num(f.wall_seconds, 3)});
  }
  return rows;
}

io::Table FailureReport::table() const {
  io::Table t(csv_header());
  for (auto& row : csv_rows()) t.add_row(std::move(row));
  return t;
}

std::string FailureReport::str() const {
  std::ostringstream os;
  os << "failure report (" << failures_.size() << " job"
     << (failures_.size() == 1 ? "" : "s") << ")\n"
     << table().str();
  return os.str();
}

}  // namespace swsim::robust
