#include "obs/trace_merge.h"

#include <cstddef>
#include <filesystem>
#include <stdexcept>

#include "obs/json.h"

namespace swsim::obs {

namespace {

[[noreturn]] void fail(const std::string& label, const std::string& what) {
  throw std::runtime_error("'" + label + "': " + what);
}

}  // namespace

std::string merge_trace_dumps(
    const std::vector<std::pair<std::string, const JsonValue*>>& inputs,
    TraceMergeStats* stats) {
  if (inputs.empty()) {
    throw std::runtime_error("need at least one trace document");
  }

  // Validate every input and find the earliest anchor before emitting
  // anything, so a bad third file cannot leave a half-written result.
  std::vector<double> anchors;
  anchors.reserve(inputs.size());
  double min_anchor = 0.0;
  for (const auto& [label, doc] : inputs) {
    if (!doc || !doc->is_object()) fail(label, "not a JSON object");
    const auto* events = doc->find("traceEvents");
    if (!events || !events->is_array()) {
      fail(label, "missing \"traceEvents\" array");
    }
    double anchor = 0.0;
    if (const auto* other = doc->find("otherData")) {
      if (const auto* a = other->find("wall_anchor_us")) {
        if (a->is_number()) anchor = a->number();
      }
    }
    if (anchor == 0.0) {
      fail(label,
           "no otherData.wall_anchor_us "
           "(exported by an older build? re-record the trace)");
    }
    if (anchors.empty() || anchor < min_anchor) min_anchor = anchor;
    anchors.push_back(anchor);
  }

  // Offsets are taken relative to the earliest anchor, not the epoch, so
  // rebased timestamps stay small and double-exact.
  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  std::size_t total = 0;
  for (std::size_t fi = 0; fi < inputs.size(); ++fi) {
    const auto& [label, doc] = inputs[fi];
    const double offset_us = anchors[fi] - min_anchor;
    const std::size_t pid = fi + 1;
    w.begin_object()
        .field("name", "process_name")
        .field("ph", "M")
        .field("pid", pid)
        .field("tid", 0)
        .key("args")
        .begin_object()
        .field("name", std::filesystem::path(label).filename().string())
        .end_object()
        .end_object();
    for (const auto& e : doc->find("traceEvents")->array()) {
      if (!e.is_object()) fail(label, "non-object trace event");
      w.begin_object();
      for (const auto& [k, v] : e.object()) {
        w.key(k);
        if (k == "ts" && v.is_number()) {
          w.value(v.number() + offset_us);
        } else if (k == "pid") {
          w.value(pid);
        } else {
          w.value(v);
        }
      }
      w.end_object();
      ++total;
    }
  }
  w.end_array()
      .key("otherData")
      .begin_object()
      .field("wall_anchor_us", min_anchor)
      .field("merged_from", inputs.size())
      .end_object()
      .end_object();

  if (stats) {
    stats->files = inputs.size();
    stats->events = total;
  }
  return w.take();
}

}  // namespace swsim::obs
