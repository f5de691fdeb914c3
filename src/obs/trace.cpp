#include "obs/trace.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "util/error.hpp"

namespace epi::obs {

namespace {
constexpr double kHoursToMicros = 3600.0 * 1e6;
}

std::uint32_t TraceRecorder::process(const std::string& name) {
  const auto it = pids_.find(name);
  if (it != pids_.end()) return it->second;
  const auto pid = static_cast<std::uint32_t>(pids_.size());
  pids_.emplace(name, pid);
  Event meta;
  meta.ph = 'M';
  meta.pid = pid;
  meta.name = "process_name";
  meta.args["name"] = name;
  metadata_.push_back(std::move(meta));
  return pid;
}

void TraceRecorder::thread_name(std::uint32_t pid, std::uint32_t tid,
                                const std::string& name) {
  for (const Event& meta : metadata_) {
    if (meta.ph == 'M' && meta.name == "thread_name" && meta.pid == pid &&
        meta.tid == tid) {
      return;
    }
  }
  Event meta;
  meta.ph = 'M';
  meta.pid = pid;
  meta.tid = tid;
  meta.name = "thread_name";
  meta.args["name"] = name;
  metadata_.push_back(std::move(meta));
}

void TraceRecorder::push(char ph, std::uint32_t pid, std::uint32_t tid,
                         std::string name, std::string category,
                         double ts_hours, double dur_hours, TraceArgs args) {
  Event event;
  event.ph = ph;
  event.pid = pid;
  event.tid = tid;
  event.ts_us = ts_hours * kHoursToMicros;
  event.dur_us = dur_hours * kHoursToMicros;
  event.name = std::move(name);
  event.category = std::move(category);
  event.args = std::move(args);
  // The wall half of the dual clock rides on every event.
  event.args["wall_s"] = wall_seconds();
  events_.push_back(std::move(event));
}

void TraceRecorder::begin(std::uint32_t pid, std::uint32_t tid,
                          const std::string& name, const std::string& category,
                          double ts_hours, TraceArgs args) {
  push('B', pid, tid, name, category, ts_hours, 0.0, std::move(args));
}

void TraceRecorder::end(std::uint32_t pid, std::uint32_t tid, double ts_hours,
                        TraceArgs args) {
  push('E', pid, tid, {}, {}, ts_hours, 0.0, std::move(args));
}

void TraceRecorder::complete(std::uint32_t pid, std::uint32_t tid,
                             const std::string& name,
                             const std::string& category, double start_hours,
                             double duration_hours, TraceArgs args) {
  EPI_REQUIRE(duration_hours >= 0.0,
              "trace span '" << name << "' has negative duration");
  push('X', pid, tid, name, category, start_hours, duration_hours,
       std::move(args));
}

void TraceRecorder::instant(std::uint32_t pid, std::uint32_t tid,
                            const std::string& name,
                            const std::string& category, double ts_hours,
                            TraceArgs args) {
  push('i', pid, tid, name, category, ts_hours, 0.0, std::move(args));
}

void TraceRecorder::counter(std::uint32_t pid, const std::string& name,
                            double ts_hours, TraceArgs values) {
  push('C', pid, 0, name, "counter", ts_hours, 0.0, std::move(values));
}

void TraceRecorder::flow_start(std::uint32_t pid, std::uint32_t tid,
                               const std::string& name,
                               const std::string& category, double ts_hours,
                               const std::string& id, TraceArgs args) {
  EPI_REQUIRE(!id.empty(), "flow event needs a non-empty id");
  push('s', pid, tid, name, category, ts_hours, 0.0, std::move(args));
  events_.back().flow_id = id;
}

void TraceRecorder::flow_step(std::uint32_t pid, std::uint32_t tid,
                              const std::string& name,
                              const std::string& category, double ts_hours,
                              const std::string& id, TraceArgs args) {
  EPI_REQUIRE(!id.empty(), "flow event needs a non-empty id");
  push('t', pid, tid, name, category, ts_hours, 0.0, std::move(args));
  events_.back().flow_id = id;
}

void TraceRecorder::flow_end(std::uint32_t pid, std::uint32_t tid,
                             const std::string& name,
                             const std::string& category, double ts_hours,
                             const std::string& id, TraceArgs args) {
  EPI_REQUIRE(!id.empty(), "flow event needs a non-empty id");
  push('f', pid, tid, name, category, ts_hours, 0.0, std::move(args));
  events_.back().flow_id = id;
}

Json TraceRecorder::to_json() const {
  JsonArray trace_events;
  trace_events.reserve(metadata_.size() + events_.size());

  auto render = [&](const Event& event) {
    JsonObject out;
    out["ph"] = std::string(1, event.ph);
    out["pid"] = static_cast<std::uint64_t>(event.pid);
    out["tid"] = static_cast<std::uint64_t>(event.tid);
    if (event.ph != 'M') out["ts"] = event.ts_us;
    if (event.ph == 'X') out["dur"] = event.dur_us;
    if (!event.name.empty()) out["name"] = event.name;
    if (!event.category.empty()) out["cat"] = event.category;
    if (event.ph == 'i') out["s"] = "t";  // instant scope: thread
    if (!event.flow_id.empty()) out["id"] = event.flow_id;
    if (event.ph == 'f') out["bp"] = "e";  // bind to enclosing slice
    if (!event.args.empty()) out["args"] = event.args;
    trace_events.emplace_back(std::move(out));
  };

  for (const Event& meta : metadata_) render(meta);
  // Stable sort by timestamp: emission order breaks ties, which preserves
  // B-before-E causality and keeps `ts` monotone within every lane.
  std::vector<const Event*> ordered;
  ordered.reserve(events_.size());
  for (const Event& event : events_) ordered.push_back(&event);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Event* a, const Event* b) {
                     return a->ts_us < b->ts_us;
                   });
  for (const Event* event : ordered) render(*event);

  JsonObject doc;
  doc["traceEvents"] = Json(std::move(trace_events));
  doc["displayTimeUnit"] = "ms";
  return Json(std::move(doc));
}

void TraceRecorder::write(const std::string& path) const {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(path);
  if (!out) throw ConfigError("cannot write trace file: " + path);
  out << to_json().dump() << "\n";
  EPI_REQUIRE(out.good(), "short write to trace file " << path);
}

}  // namespace epi::obs
