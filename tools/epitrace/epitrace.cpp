#include "epitrace/epitrace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <string_view>

#include "util/error.hpp"

namespace epi::epitrace {

namespace {

constexpr double kMicrosToHours = 1.0 / (3600.0 * 1e6);
// Relative slack for interval comparisons: hours -> microseconds -> hours
// round-trips through the trace file cost a few ulps.
constexpr double kEps = 1e-9;

double slack_for(double value) { return kEps * (std::abs(value) + 1.0); }

/// %.6g — compact human-readable numbers for rendered text (the JSON
/// summary keeps full precision via Json::dump).
std::string fmt(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string fmt_pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", fraction * 100.0);
  return buf;
}

/// Length of the union of [start, end) intervals (the intervals may
/// overlap or nest; each point counts once).
double union_hours(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cover_end = -1e300;
  for (const auto& [start, end] : intervals) {
    if (start > cover_end) {
      total += end - start;
      cover_end = end;
    } else if (end > cover_end) {
      total += end - cover_end;
      cover_end = end;
    }
  }
  return total;
}

bool span_order(const Span& a, const Span& b) {
  return std::tie(a.start_hours, a.duration_hours, a.pid, a.tid, a.name) <
         std::tie(b.start_hours, b.duration_hours, b.pid, b.tid, b.name);
}

/// `(*object)[key]`, or null when `object` is not an object holding `key`.
const Json* member(const Json* object, std::string_view key) {
  return object != nullptr && object->contains(key) ? &object->at(key)
                                                    : nullptr;
}

/// `(*object)[key]` when it is a string, else null.
const std::string* string_member(const Json* object, std::string_view key) {
  const Json* value = member(object, key);
  return value != nullptr && value->is_string() ? &value->as_string()
                                                : nullptr;
}

constexpr double kMaxLaneId = std::numeric_limits<std::uint32_t>::max();
constexpr double kMaxTally = 0x1p53;  // every integer below is exact

/// A whole number in [0, max].
bool is_whole(const Json& value, double max) {
  if (!value.is_number()) return false;
  const double number = value.as_double();
  return number >= 0.0 && number <= max && number == std::floor(number);
}

std::string lane_name(std::uint32_t pid, std::uint32_t tid) {
  return "lane (" + std::to_string(pid) + ", " + std::to_string(tid) + ")";
}

/// Reads and parses the JSON file at `path`. A read or parse failure is
/// appended to `errors`, naming the path, and yields null.
Json read_document(const std::string& path, std::vector<std::string>& errors) {
  try {
    return read_json_file(path);
  } catch (const Error& error) {
    const std::string what = error.what();
    errors.push_back(what.find(path) == std::string::npos ? path + ": " + what
                                                          : what);
    return Json();
  }
}

}  // namespace

const std::string& TraceModel::process(std::uint32_t pid) const {
  static const std::string unknown = "?";
  const auto it = process_names.find(pid);
  return it == process_names.end() ? unknown : it->second;
}

TraceModel load_trace(const Json& doc) {
  TraceModel model;
  auto fail = [&model](std::string message) {
    model.errors.push_back(std::move(message));
  };
  const Json* events = member(&doc, "traceEvents");
  if (events == nullptr || !events->is_array()) {
    fail("document is not an object with a traceEvents array");
    return model;
  }

  struct OpenSpan {
    std::size_t index = 0;  // of the 'B' event
    Span span;
    bool well_formed = true;
  };
  struct Lane {
    double last_ts = -std::numeric_limits<double>::infinity();
    std::vector<OpenSpan> open;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, Lane> lanes;
  struct Flow {
    std::size_t start_index = 0;
    double last_ts = 0.0;
    bool open = false;
  };
  std::map<std::string, Flow> flows;

  const JsonArray& array = events->as_array();
  for (std::size_t index = 0; index < array.size(); ++index) {
    const Json* event = &array[index];
    const std::string at = "event " + std::to_string(index) + ": ";
    const std::string* ph_text = string_member(event, "ph");
    if (ph_text == nullptr || ph_text->size() != 1) {
      fail(at + "not an object with a one-character ph");
      continue;
    }
    const char ph = (*ph_text)[0];
    const Json* pid_value = member(event, "pid");
    const Json* tid_value = member(event, "tid");
    if (pid_value == nullptr || tid_value == nullptr) {
      fail(at + "missing pid/tid");
      continue;
    }
    if (!is_whole(*pid_value, kMaxLaneId) ||
        !is_whole(*tid_value, kMaxLaneId)) {
      fail(at + "pid " + pid_value->dump() + " / tid " + tid_value->dump() +
           " are not both non-negative integers");
      continue;
    }
    const auto pid = static_cast<std::uint32_t>(pid_value->as_double());
    const auto tid = static_cast<std::uint32_t>(tid_value->as_double());
    const Json* args = member(event, "args");
    // A numeric arg the analyses read: absent gives `fallback`, anything
    // but a number is an error.
    auto number_arg = [&](const char* key, double fallback) {
      const Json* value = member(args, key);
      if (value == nullptr) return fallback;
      if (value->is_number()) return value->as_double();
      fail(at + "args." + key + " is not a number");
      return fallback;
    };
    const std::string* name = string_member(event, "name");

    if (ph == 'M') {
      const std::string* label = string_member(args, "name");
      const std::string text = label == nullptr ? "" : *label;
      if (name != nullptr && *name == "process_name") {
        model.process_names[pid] = text;
      } else if (name != nullptr && *name == "thread_name") {
        model.thread_names[{pid, tid}] = text;
      }
      continue;
    }
    ++model.events;
    if (std::string_view("BEXiCstf").find(ph) == std::string_view::npos) {
      fail(at + "unknown phase '" + std::string(1, ph) + "'");
      continue;
    }
    const Json* ts_value = member(event, "ts");
    if (ts_value == nullptr || !ts_value->is_number()) {
      fail(at + "missing numeric ts");
      continue;
    }
    const double ts = ts_value->as_double();
    const double ts_hours = ts * kMicrosToHours;
    Lane& lane = lanes[{pid, tid}];
    bool well_formed = true;
    if (ts < lane.last_ts) {
      fail(at + "ts " + std::to_string(ts) + " goes backwards on " +
           lane_name(pid, tid));
      well_formed = false;
    }
    lane.last_ts = ts;
    if (ph != 'E' && name == nullptr) {
      fail(at + std::string(1, ph) + " event without a name");
      well_formed = false;
    }
    const std::string* cat = string_member(event, "cat");
    const std::string category = cat == nullptr ? "" : *cat;

    switch (ph) {
      case 'X': {
        const Json* dur = member(event, "dur");
        if (dur == nullptr || !dur->is_number() || dur->as_double() < 0.0) {
          fail(at + "X event without a non-negative dur");
          break;
        }
        const double nodes = number_arg("nodes", 1.0);
        if (well_formed) {
          model.spans.push_back(Span{pid, tid, ts_hours,
                                     dur->as_double() * kMicrosToHours, *name,
                                     category, nodes});
        }
        break;
      }
      case 'B':
        lane.open.push_back(OpenSpan{
            index,
            Span{pid, tid, ts_hours, 0.0, name == nullptr ? "" : *name,
                 category, number_arg("nodes", 1.0)},
            well_formed});
        break;
      case 'E': {
        if (lane.open.empty()) {
          fail(at + "E event with no open B on " + lane_name(pid, tid));
          break;
        }
        OpenSpan begun = std::move(lane.open.back());
        lane.open.pop_back();
        if (well_formed && begun.well_formed) {
          begun.span.duration_hours = ts_hours - begun.span.start_hours;
          model.spans.push_back(std::move(begun.span));
        }
        break;
      }
      case 'i':
        ++model.instants;
        ++model.instants_by_category[category];
        break;
      case 'C':
        ++model.counter_samples;
        if (model.slurm_total_nodes == 0.0 && name != nullptr &&
            *name == "slurm.nodes") {
          model.slurm_total_nodes = number_arg("busy", 0.0) +
                                    number_arg("down", 0.0) +
                                    number_arg("free", 0.0);
        }
        break;
      default: {  // 's', 't', 'f'
        const std::string* id = string_member(event, "id");
        if (id == nullptr || id->empty()) {
          fail(at + "flow event without a string id");
          break;
        }
        Flow& flow = flows[*id];
        if (ph == 's') {
          if (flow.open) fail(at + "flow '" + *id + "' started twice");
          flow = Flow{index, ts, true};
          break;
        }
        // 't' or 'f' must continue an open chain, forward in time.
        if (!flow.open) {
          fail(at + "flow '" + std::string(1, ph) + "' event on '" + *id +
               "' with no open start");
          break;
        }
        if (ts < flow.last_ts) {
          fail(at + "flow '" + *id + "' goes backwards in time");
        }
        flow.last_ts = ts;
        if (ph == 'f') {
          flow.open = false;  // the id may be reused by a later chain
          model.flow_chains.push_back(*id);
        }
        break;
      }
    }
  }

  for (const auto& [key, lane] : lanes) {
    for (const OpenSpan& begun : lane.open) {
      fail("event " + std::to_string(begun.index) + ": B '" +
           begun.span.name + "' is never closed on " +
           lane_name(key.first, key.second));
    }
  }
  for (const auto& [id, flow] : flows) {
    if (flow.open) {
      fail("event " + std::to_string(flow.start_index) + ": flow '" + id +
           "' is started but never terminated with 'f'");
    }
  }
  if (model.events == 0) fail("trace contains no events");
  std::sort(model.spans.begin(), model.spans.end(), span_order);
  return model;
}

TraceModel load_trace_file(const std::string& path) {
  TraceModel model;
  const Json doc = read_document(path, model.errors);
  return model.errors.empty() ? load_trace(doc) : model;
}

MetricsCheck check_metrics_json(Json doc) {
  MetricsCheck result;
  result.doc = std::move(doc);
  auto fail = [&result](std::string message) {
    result.errors.push_back(std::move(message));
  };
  const Json* metrics = &result.doc;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const Json* value = member(metrics, section);
    if (value == nullptr || !value->is_object()) {
      fail(std::string("missing object member '") + section + "'");
    }
  }
  if (!result.errors.empty()) return result;

  for (const auto& [name, value] : metrics->at("counters").as_object()) {
    if (!value.is_number() || value.as_double() < 0.0) {
      fail("counter '" + name + "' is not a non-negative number");
    }
    ++result.counters;
  }
  for (const auto& [name, value] : metrics->at("gauges").as_object()) {
    if (!value.is_number()) fail("gauge '" + name + "' is not a number");
    ++result.gauges;
  }
  for (const auto& [name, value] : metrics->at("histograms").as_object()) {
    ++result.histograms;
    const std::string what = "histogram '" + name + "' ";
    const Json* buckets = member(&value, "buckets");
    const Json* count = member(&value, "count");
    const Json* sum = member(&value, "sum");
    if (buckets == nullptr || !buckets->is_array() || count == nullptr ||
        sum == nullptr) {
      fail(what + "lacks buckets/count/sum");
      continue;
    }
    // True when `field` is present and a non-negative integer; an error
    // when present and not. Comparisons run only between such tallies.
    auto tally = [&](const Json* field, const std::string& label) {
      if (field == nullptr || is_whole(*field, kMaxTally)) {
        return field != nullptr;
      }
      fail(what + label + " " + field->dump() +
           " is not a non-negative integer");
      return false;
    };
    const bool count_ok = tally(count, "count");
    if (!sum->is_number()) {
      fail(what + "sum " + sum->dump() + " is not a number");
    }
    bool buckets_ok = true;
    double bucket_total = 0.0;
    const Json* last_count = nullptr;
    double last_bound = 0.0;
    bool first = true;
    const JsonArray& bucket_array = buckets->as_array();
    for (std::size_t b = 0; b < bucket_array.size(); ++b) {
      const Json* le = member(&bucket_array[b], "le");
      last_count = member(&bucket_array[b], "count");
      if (le == nullptr || last_count == nullptr) {
        fail(what + "has a malformed bucket");
        buckets_ok = false;
      } else if (!tally(last_count, "bucket " + std::to_string(b) + " count")) {
        buckets_ok = false;
      } else {
        bucket_total += last_count->as_double();
      }
      if (le == nullptr) continue;
      if (le->is_number()) {
        if (!first && le->as_double() <= last_bound) {
          fail(what + "bounds are not increasing");
        }
        last_bound = le->as_double();
        first = false;
      } else if (!le->is_string() || le->as_string() != "+Inf") {
        fail(what + "has a non-numeric bound that is not +Inf");
      }
    }
    if (count_ok && buckets_ok && bucket_total != count->as_double()) {
      fail(what + "bucket counts do not sum to count");
    }
    // Tail-accounting and quantile summary fields (optional for
    // hand-built documents; MetricsRegistry always emits them).
    const Json* overflow = member(&value, "overflow");
    if (tally(overflow, "overflow") && last_count != nullptr &&
        is_whole(*last_count, kMaxTally) &&
        overflow->as_double() != last_count->as_double()) {
      fail(what + "overflow does not match the +Inf bucket count");
    }
    const Json* underflow = member(&value, "underflow");
    if (tally(underflow, "underflow") && count_ok &&
        underflow->as_double() > count->as_double()) {
      fail(what + "underflow exceeds count");
    }
    const Json* p50 = member(&value, "p50");
    const Json* p95 = member(&value, "p95");
    const Json* p99 = member(&value, "p99");
    if (p50 != nullptr && p95 != nullptr && p99 != nullptr) {
      if (!p50->is_number() || !p95->is_number() || !p99->is_number()) {
        fail(what + "quantiles are not numbers");
      } else if (p50->as_double() > p95->as_double() ||
                 p95->as_double() > p99->as_double()) {
        fail(what + "quantiles are not monotone");
      }
    }
  }
  return result;
}

MetricsCheck check_metrics_file(const std::string& path) {
  MetricsCheck result;
  Json doc = read_document(path, result.errors);
  return result.errors.empty() ? check_metrics_json(std::move(doc)) : result;
}

std::vector<PhasePath> critical_paths(const TraceModel& model) {
  std::vector<PhasePath> result;

  // Per-lane span lists for self-time computation.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<const Span*>>
      lanes;
  for (const Span& span : model.spans) {
    if (span.category != "phase") lanes[{span.pid, span.tid}].push_back(&span);
  }
  auto self_time = [&lanes](const Span& span) {
    std::vector<std::pair<double, double>> nested;
    const double slack = slack_for(span.end_hours());
    for (const Span* other : lanes[{span.pid, span.tid}]) {
      if (other == &span) continue;
      if (other->start_hours >= span.start_hours - slack &&
          other->end_hours() <= span.end_hours() + slack &&
          other->duration_hours < span.duration_hours - slack) {
        nested.emplace_back(std::max(other->start_hours, span.start_hours),
                            std::min(other->end_hours(), span.end_hours()));
      }
    }
    return std::max(0.0, span.duration_hours - union_hours(std::move(nested)));
  };

  for (const Span& phase : model.spans) {
    if (phase.category != "phase") continue;
    PhasePath path;
    path.name = phase.name;
    path.site = model.process(phase.pid);
    path.start_hours = phase.start_hours;
    path.duration_hours = phase.duration_hours;

    // Candidates: positive-duration non-phase spans fully inside the
    // phase window, across every process (phases are globally sequential
    // on the workflow clock, so the window identifies the phase).
    const double slack = slack_for(phase.end_hours());
    std::vector<const Span*> candidates;
    for (const Span& span : model.spans) {
      if (span.category == "phase" || span.duration_hours <= 0.0) continue;
      if (span.start_hours >= phase.start_hours - slack &&
          span.end_hours() <= phase.end_hours() + slack) {
        candidates.push_back(&span);
      }
    }
    // Longest chain of pairwise non-overlapping spans, by dynamic
    // programming over end-sorted candidates with a prefix-max table:
    // dp[i] = dur[i] + best dp among spans ending before i starts.
    std::sort(candidates.begin(), candidates.end(),
              [](const Span* a, const Span* b) {
                return std::tie(a->start_hours, a->duration_hours, a->pid,
                                a->tid, a->name) <
                       std::tie(b->start_hours, b->duration_hours, b->pid,
                                b->tid, b->name);
              });
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Span* a, const Span* b) {
                       return a->end_hours() < b->end_hours();
                     });
    const std::size_t n = candidates.size();
    std::vector<double> dp(n, 0.0), prefix_best(n, 0.0);
    std::vector<std::ptrdiff_t> parent(n, -1), prefix_arg(n, -1);
    std::vector<double> ends(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) ends[i] = candidates[i]->end_hours();
    for (std::size_t i = 0; i < n; ++i) {
      const Span& span = *candidates[i];
      // Last candidate whose end <= this span's start (with slack).
      const double cutoff = span.start_hours + slack_for(span.start_hours);
      const auto it = std::upper_bound(ends.begin(), ends.begin() +
                                           static_cast<std::ptrdiff_t>(i),
                                       cutoff);
      dp[i] = span.duration_hours;
      if (it != ends.begin()) {
        const auto j = static_cast<std::size_t>(it - ends.begin()) - 1;
        if (prefix_best[j] > 0.0) {
          dp[i] += prefix_best[j];
          parent[i] = prefix_arg[j];
        }
      }
      // Strict > keeps the earliest argmax: deterministic tie-break.
      prefix_best[i] = i > 0 ? prefix_best[i - 1] : 0.0;
      prefix_arg[i] = i > 0 ? prefix_arg[i - 1] : -1;
      if (dp[i] > prefix_best[i]) {
        prefix_best[i] = dp[i];
        prefix_arg[i] = static_cast<std::ptrdiff_t>(i);
      }
    }
    if (n > 0 && prefix_best[n - 1] > 0.0) {
      path.total_hours = prefix_best[n - 1];
      std::vector<const Span*> chain;
      for (std::ptrdiff_t i = prefix_arg[n - 1]; i >= 0; i = parent[i]) {
        chain.push_back(candidates[static_cast<std::size_t>(i)]);
      }
      std::reverse(chain.begin(), chain.end());
      for (const Span* span : chain) {
        PathSpan entry;
        entry.process = model.process(span->pid);
        entry.tid = span->tid;
        entry.name = span->name;
        entry.start_hours = span->start_hours;
        entry.duration_hours = span->duration_hours;
        entry.self_hours = self_time(*span);
        path.spans.push_back(std::move(entry));
      }
    }
    result.push_back(std::move(path));
  }
  std::sort(result.begin(), result.end(),
            [](const PhasePath& a, const PhasePath& b) {
              return std::tie(a.start_hours, a.site, a.name) <
                     std::tie(b.start_hours, b.site, b.name);
            });
  return result;
}

std::vector<LaneBusy> lane_busy(const TraceModel& model) {
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::vector<std::pair<double, double>>>
      intervals;
  for (const Span& span : model.spans) {
    if (span.category == "phase") continue;
    intervals[{span.pid, span.tid}].emplace_back(span.start_hours,
                                                 span.end_hours());
  }
  std::vector<LaneBusy> result;
  for (auto& [lane, spans] : intervals) {
    LaneBusy busy;
    busy.process = model.process(lane.first);
    busy.pid = lane.first;
    busy.tid = lane.second;
    const auto it = model.thread_names.find(lane);
    if (it != model.thread_names.end()) busy.thread = it->second;
    busy.busy_hours = union_hours(std::move(spans));
    result.push_back(std::move(busy));
  }
  return result;  // map order: (pid, tid) ascending — deterministic
}

std::vector<Imbalance> imbalance(const TraceModel& model) {
  std::map<std::uint32_t, std::vector<double>> by_pid;
  for (const LaneBusy& lane : lane_busy(model)) {
    by_pid[lane.pid].push_back(lane.busy_hours);
  }
  std::vector<Imbalance> result;
  for (const auto& [pid, busies] : by_pid) {
    Imbalance entry;
    entry.process = model.process(pid);
    entry.lanes = busies.size();
    double sum = 0.0;
    for (const double busy : busies) {
      entry.max_busy_hours = std::max(entry.max_busy_hours, busy);
      sum += busy;
    }
    entry.mean_busy_hours = sum / static_cast<double>(busies.size());
    entry.ratio = entry.mean_busy_hours > 0.0
                      ? entry.max_busy_hours / entry.mean_busy_hours
                      : 1.0;
    result.push_back(std::move(entry));
  }
  return result;
}

std::map<std::string, double> category_hours(const TraceModel& model) {
  std::map<std::string, double> result;
  for (const Span& span : model.spans) {
    if (span.category == "phase") continue;
    result[span.category.empty() ? "(uncategorized)" : span.category] +=
        span.duration_hours;
  }
  return result;
}

std::map<std::string, double> collective_wait_seconds(const Json& metrics) {
  std::map<std::string, double> result;
  if (!metrics.is_object() || !metrics.contains("histograms")) return result;
  for (const auto& [name, histogram] : metrics.at("histograms").as_object()) {
    if (name.rfind("mpilite.", 0) != 0 || name.size() < 11 ||
        name.compare(name.size() - 2, 2, "_s") != 0) {
      continue;
    }
    result[name.substr(8, name.size() - 10)] =
        histogram.get_double("sum", 0.0);
  }
  return result;
}

std::vector<Span> top_spans(const TraceModel& model, std::size_t k) {
  std::vector<Span> spans;
  for (const Span& span : model.spans) {
    if (span.category != "phase") spans.push_back(span);
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.duration_hours != b.duration_hours) {
      return a.duration_hours > b.duration_hours;
    }
    return span_order(a, b);
  });
  if (spans.size() > k) spans.resize(k);
  return spans;
}

std::vector<SelfCheck> self_checks(const TraceModel& model,
                                   const Json& metrics) {
  std::vector<SelfCheck> checks;

  {
    SelfCheck check;
    check.name = "critical-path-bounded";
    check.ok = true;
    std::size_t phases = 0;
    for (const PhasePath& path : critical_paths(model)) {
      ++phases;
      if (path.total_hours >
          path.duration_hours + slack_for(path.duration_hours)) {
        check.ok = false;
        check.detail += "phase '" + path.name + "': path " +
                        fmt(path.total_hours) + " h exceeds duration " +
                        fmt(path.duration_hours) + " h; ";
      }
    }
    if (check.ok) {
      check.detail = std::to_string(phases) +
                     " phase(s), every critical path within its window";
    }
    checks.push_back(std::move(check));
  }

  {
    // Busy node-hours from the DES job spans must reproduce the recorded
    // utilization gauge: utilization = busy / (nodes * makespan).
    SelfCheck check;
    check.name = "busy-vs-utilization";
    double busy_node_hours = 0.0;
    bool has_jobs = false;
    for (const Span& span : model.spans) {
      if (span.category == "job" || span.category == "job.killed") {
        has_jobs = true;
        busy_node_hours += span.duration_hours * span.nodes;
      }
    }
    const bool has_gauges =
        metrics.is_object() && metrics.contains("gauges") &&
        metrics.at("gauges").contains("nightly.utilization") &&
        metrics.at("gauges").contains("nightly.makespan_hours");
    if (!has_jobs || !has_gauges || model.slurm_total_nodes <= 0.0) {
      check.ok = true;
      check.detail = "skipped: no DES job spans / utilization gauges";
    } else {
      const Json& gauges = metrics.at("gauges");
      const double utilization =
          gauges.at("nightly.utilization").as_double();
      const double makespan =
          gauges.at("nightly.makespan_hours").as_double();
      const double expected =
          utilization * model.slurm_total_nodes * makespan;
      const double error = std::abs(busy_node_hours - expected) /
                           std::max(std::abs(expected), 1e-12);
      check.ok = error <= 1e-6;
      check.detail = "job spans: " + fmt(busy_node_hours) +
                     " busy node-hours; utilization gauge implies " +
                     fmt(expected) + " (rel err " + fmt(error) + ")";
    }
    checks.push_back(std::move(check));
  }
  return checks;
}

Json summarize(const TraceModel& model, const Json& metrics,
               std::size_t top_k) {
  JsonObject doc;

  {
    JsonObject trace;
    trace["events"] = static_cast<std::uint64_t>(model.events);
    trace["spans"] = static_cast<std::uint64_t>(model.spans.size());
    trace["instants"] = static_cast<std::uint64_t>(model.instants);
    trace["counter_samples"] =
        static_cast<std::uint64_t>(model.counter_samples);
    trace["flow_chains"] = static_cast<std::uint64_t>(model.flow_chains.size());
    JsonObject processes;
    for (const auto& [pid, name] : model.process_names) {
      processes[name] = static_cast<std::uint64_t>(pid);
    }
    trace["processes"] = Json(std::move(processes));
    doc["trace"] = Json(std::move(trace));
  }

  JsonArray phases;
  for (const PhasePath& path : critical_paths(model)) {
    JsonObject entry;
    entry["name"] = path.name;
    entry["site"] = path.site;
    entry["start_hours"] = path.start_hours;
    entry["duration_hours"] = path.duration_hours;
    entry["critical_path_hours"] = path.total_hours;
    JsonArray spans;
    for (const PathSpan& span : path.spans) {
      JsonObject s;
      s["process"] = span.process;
      s["tid"] = static_cast<std::uint64_t>(span.tid);
      s["name"] = span.name;
      s["start_hours"] = span.start_hours;
      s["duration_hours"] = span.duration_hours;
      s["self_hours"] = span.self_hours;
      spans.emplace_back(std::move(s));
    }
    entry["spans"] = Json(std::move(spans));
    phases.emplace_back(std::move(entry));
  }
  doc["phases"] = Json(std::move(phases));

  JsonArray lanes;
  for (const LaneBusy& lane : lane_busy(model)) {
    JsonObject entry;
    entry["process"] = lane.process;
    entry["tid"] = static_cast<std::uint64_t>(lane.tid);
    entry["thread"] = lane.thread;
    entry["busy_hours"] = lane.busy_hours;
    lanes.emplace_back(std::move(entry));
  }
  doc["lanes"] = Json(std::move(lanes));

  JsonArray imbalances;
  for (const Imbalance& entry : imbalance(model)) {
    JsonObject e;
    e["process"] = entry.process;
    e["lanes"] = static_cast<std::uint64_t>(entry.lanes);
    e["max_busy_hours"] = entry.max_busy_hours;
    e["mean_busy_hours"] = entry.mean_busy_hours;
    e["ratio"] = entry.ratio;
    imbalances.emplace_back(std::move(e));
  }
  doc["imbalance"] = Json(std::move(imbalances));

  {
    JsonObject categories;
    for (const auto& [category, hours] : category_hours(model)) {
      categories[category] = hours;
    }
    doc["category_hours"] = Json(std::move(categories));
  }
  {
    JsonObject collectives;
    for (const auto& [op, seconds] : collective_wait_seconds(metrics)) {
      collectives[op] = seconds;
    }
    doc["collective_wait_s"] = Json(std::move(collectives));
  }

  JsonArray top;
  for (const Span& span : top_spans(model, top_k)) {
    JsonObject entry;
    entry["process"] = model.process(span.pid);
    entry["tid"] = static_cast<std::uint64_t>(span.tid);
    entry["name"] = span.name;
    entry["category"] = span.category;
    entry["start_hours"] = span.start_hours;
    entry["duration_hours"] = span.duration_hours;
    top.emplace_back(std::move(entry));
  }
  doc["top_spans"] = Json(std::move(top));

  JsonArray checks;
  bool all_ok = true;
  for (const SelfCheck& check : self_checks(model, metrics)) {
    all_ok = all_ok && check.ok;
    JsonObject entry;
    entry["name"] = check.name;
    entry["ok"] = check.ok;
    entry["detail"] = check.detail;
    checks.emplace_back(std::move(entry));
  }
  doc["self_checks"] = Json(std::move(checks));
  doc["self_checks_ok"] = all_ok;
  return Json(std::move(doc));
}

std::string render_text(const Json& summary) {
  std::string out;
  const Json& trace = summary.at("trace");
  out += "trace: " + std::to_string(trace.at("events").as_int()) +
         " events, " + std::to_string(trace.at("spans").as_int()) +
         " spans, " + std::to_string(trace.at("flow_chains").as_int()) +
         " flow chains, " +
         std::to_string(trace.at("counter_samples").as_int()) +
         " counter samples\n";

  out += "\ncritical path per phase:\n";
  for (const Json& phase : summary.at("phases").as_array()) {
    out += "  " + phase.at("name").as_string() + " @" +
           phase.at("site").as_string() + ": " +
           fmt(phase.at("critical_path_hours").as_double()) + " h of " +
           fmt(phase.at("duration_hours").as_double()) + " h\n";
    for (const Json& span : phase.at("spans").as_array()) {
      out += "    - " + span.at("name").as_string() + " (" +
             span.at("process").as_string() + "/" +
             std::to_string(span.at("tid").as_int()) + "): " +
             fmt(span.at("duration_hours").as_double()) + " h, self " +
             fmt(span.at("self_hours").as_double()) + " h\n";
    }
  }

  out += "\nlane imbalance (max vs mean busy hours):\n";
  for (const Json& entry : summary.at("imbalance").as_array()) {
    out += "  " + entry.at("process").as_string() + ": " +
           std::to_string(entry.at("lanes").as_int()) + " lane(s), max " +
           fmt(entry.at("max_busy_hours").as_double()) + " h, mean " +
           fmt(entry.at("mean_busy_hours").as_double()) + " h, ratio " +
           fmt(entry.at("ratio").as_double()) + "\n";
  }

  out += "\ntime by category (h):\n";
  for (const auto& [category, hours] :
       summary.at("category_hours").as_object()) {
    out += "  " + category + ": " + fmt(hours.as_double()) + "\n";
  }
  const JsonObject& collectives = summary.at("collective_wait_s").as_object();
  if (!collectives.empty()) {
    out += "\ncollective wait (s, from metrics histograms):\n";
    for (const auto& [op, seconds] : collectives) {
      out += "  " + op + ": " + fmt(seconds.as_double()) + "\n";
    }
  }

  out += "\ntop spans:\n";
  for (const Json& span : summary.at("top_spans").as_array()) {
    out += "  " + span.at("name").as_string() + " (" +
           span.at("process").as_string() + "/" +
           std::to_string(span.at("tid").as_int()) + ", " +
           span.at("category").as_string() + "): " +
           fmt(span.at("duration_hours").as_double()) + " h\n";
  }

  out += "\nself-checks:\n";
  for (const Json& check : summary.at("self_checks").as_array()) {
    out += std::string("  [") + (check.at("ok").as_bool() ? "ok" : "FAIL") +
           "] " + check.at("name").as_string() + ": " +
           check.at("detail").as_string() + "\n";
  }
  return out;
}

namespace {

/// Appends "name: a -> b (+x%)" rows for every numeric member that
/// differs between two flat JSON objects (missing members count as
/// differing).
void diff_numeric_members(const std::string& label, const Json& a,
                          const Json& b, std::string& out) {
  std::set<std::string> keys;
  for (const auto& [key, value] : a.as_object()) keys.insert(key);
  for (const auto& [key, value] : b.as_object()) keys.insert(key);
  for (const std::string& key : keys) {
    const bool in_a = a.contains(key);
    const bool in_b = b.contains(key);
    if (in_a && in_b) {
      if (!a.at(key).is_number() || !b.at(key).is_number()) continue;
      const double va = a.at(key).as_double();
      const double vb = b.at(key).as_double();
      if (va == vb) continue;
      const double rel = (vb - va) / std::max(std::abs(va), 1e-12);
      out += "  " + label + " " + key + ": " + fmt(va) + " -> " + fmt(vb) +
             " (" + fmt_pct(rel) + ")\n";
    } else {
      out += "  " + label + " " + key + ": " +
             (in_a ? "only in first run" : "only in second run") + "\n";
    }
  }
}

}  // namespace

std::string render_diff(const Json& summary_a, const Json& summary_b,
                        const Json& metrics_a, const Json& metrics_b) {
  std::string out;

  out += "phases:\n";
  std::map<std::string, const Json*> phases_a, phases_b;
  for (const Json& phase : summary_a.at("phases").as_array()) {
    phases_a[phase.at("name").as_string()] = &phase;
  }
  for (const Json& phase : summary_b.at("phases").as_array()) {
    phases_b[phase.at("name").as_string()] = &phase;
  }
  std::set<std::string> names;
  for (const auto& [name, phase] : phases_a) names.insert(name);
  for (const auto& [name, phase] : phases_b) names.insert(name);
  for (const std::string& name : names) {
    const auto ita = phases_a.find(name);
    const auto itb = phases_b.find(name);
    if (ita == phases_a.end() || itb == phases_b.end()) {
      out += "  " + name + ": " +
             (ita != phases_a.end() ? "only in first run"
                                    : "only in second run") +
             "\n";
      continue;
    }
    const double da = ita->second->at("duration_hours").as_double();
    const double db = itb->second->at("duration_hours").as_double();
    const double ca = ita->second->at("critical_path_hours").as_double();
    const double cb = itb->second->at("critical_path_hours").as_double();
    out += "  " + name + ": duration " + fmt(da) + " -> " + fmt(db);
    if (da != db) {
      out += " (" + fmt_pct((db - da) / std::max(std::abs(da), 1e-12)) + ")";
    }
    out += ", critical path " + fmt(ca) + " -> " + fmt(cb) + "\n";
  }

  out += "metrics:\n";
  const Json empty = Json(JsonObject{});
  auto section = [&](const char* name, const Json& doc) -> const Json& {
    return doc.is_object() && doc.contains(name) ? doc.at(name) : empty;
  };
  diff_numeric_members("counter", section("counters", metrics_a),
                       section("counters", metrics_b), out);
  diff_numeric_members("gauge", section("gauges", metrics_a),
                       section("gauges", metrics_b), out);
  return out;
}

namespace {

double tolerance_for(const Json& tolerances, const std::string& bench,
                     const std::string& metric) {
  constexpr double kDefault = 0.05;
  if (!tolerances.is_object()) return kDefault;
  if (tolerances.contains("overrides") &&
      tolerances.at("overrides").is_object()) {
    const Json& overrides = tolerances.at("overrides");
    const std::string key = bench + "." + metric;
    if (overrides.contains(key)) return overrides.at(key).as_double();
  }
  return tolerances.get_double("default", kDefault);
}

}  // namespace

bool is_bench_report(const std::string& file_name) {
  constexpr std::string_view kPrefix = "BENCH_";
  constexpr std::string_view kSuffix = ".json";
  const std::string_view name = file_name;
  return name.size() > kPrefix.size() + kSuffix.size() &&
         name.substr(0, kPrefix.size()) == kPrefix &&
         name.substr(name.size() - kSuffix.size()) == kSuffix;
}

BenchDiffResult bench_diff(const std::string& baseline_dir,
                           const std::string& candidate_dir) {
  namespace fs = std::filesystem;
  BenchDiffResult result;
  EPI_REQUIRE(fs::is_directory(baseline_dir),
              "baseline directory '" << baseline_dir << "' does not exist");

  Json tolerances = Json(JsonObject{});
  const fs::path tolerance_path = fs::path(baseline_dir) / "tolerances.json";
  if (fs::exists(tolerance_path)) {
    tolerances = read_json_file(tolerance_path.string());
  }

  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(baseline_dir)) {
    const std::string name = entry.path().filename().string();
    if (is_bench_report(name)) files.push_back(name);
  }
  std::sort(files.begin(), files.end());

  bool all_ok = !files.empty();
  for (const std::string& file : files) {
    ++result.benches;
    const Json baseline =
        read_json_file((fs::path(baseline_dir) / file).string());
    const std::string bench = baseline.get_string("bench", file);
    const fs::path candidate_path = fs::path(candidate_dir) / file;
    if (!fs::exists(candidate_path)) {
      BenchDelta delta;
      delta.bench = bench;
      delta.metric = "*";
      delta.ok = false;
      delta.note = "missing in candidate: " + candidate_path.string();
      all_ok = false;
      result.deltas.push_back(std::move(delta));
      continue;
    }
    const Json candidate = read_json_file(candidate_path.string());
    const Json& base_metrics = baseline.at("metrics");
    for (const auto& [metric, value] : base_metrics.as_object()) {
      BenchDelta delta;
      delta.bench = bench;
      delta.metric = metric;
      delta.baseline = value.as_double();
      delta.tolerance = tolerance_for(tolerances, bench, metric);
      if (!candidate.contains("metrics") ||
          !candidate.at("metrics").contains(metric)) {
        delta.ok = false;
        delta.note = "missing in candidate";
      } else {
        delta.candidate = candidate.at("metrics").at(metric).as_double();
        delta.relative = std::abs(delta.candidate - delta.baseline) /
                         std::max(std::abs(delta.baseline), 1e-12);
        delta.ok = delta.relative <= delta.tolerance;
      }
      all_ok = all_ok && delta.ok;
      result.deltas.push_back(std::move(delta));
    }
  }
  result.ok = all_ok;
  return result;
}

std::string render_bench_diff(const BenchDiffResult& result) {
  std::string out;
  if (result.benches == 0) {
    out += "no BENCH_*.json baselines found\n";
  }
  std::string current_bench;
  for (const BenchDelta& delta : result.deltas) {
    if (delta.bench != current_bench) {
      current_bench = delta.bench;
      out += current_bench + ":\n";
    }
    if (!delta.note.empty()) {
      out += "  [FAIL] " + delta.metric + ": " + delta.note + "\n";
      continue;
    }
    out += std::string("  [") + (delta.ok ? "ok" : "FAIL") + "] " +
           delta.metric + ": " + fmt(delta.baseline) + " -> " +
           fmt(delta.candidate) + " (rel " + fmt(delta.relative) +
           ", tol " + fmt(delta.tolerance) + ")\n";
  }
  out += result.ok ? "bench gate: PASS\n" : "bench gate: FAIL\n";
  return out;
}

}  // namespace epi::epitrace
