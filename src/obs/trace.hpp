// Deterministic tracing for the nightly two-cluster workflow.
//
// The production system ran unattended every night; blown 8am deadlines
// could only be diagnosed from aggregate numbers after the fact. This
// recorder gives every layer — nightly engine, Slurm DES, WAN transfers,
// person databases, mpilite — a common event stream that exports as
// Chrome trace_event JSON (loadable in chrome://tracing or Perfetto).
//
// Every event carries a dual clock:
//   - ts: the simulated/workflow clock in hours (the DES clock, the phase
//     timeline) — this is the Chrome `ts` axis, so traces of modeled runs
//     are exact regardless of host speed;
//   - wall_s (an arg on every event): wall seconds since the recorder was
//     created, measured with util/timer.hpp. Under deterministic timing
//     the wall clock reads 0, so two runs of the same design produce
//     byte-identical trace files and pass the determinism lint.
//
// The recorder allocates nothing until the first event; components hold a
// `TraceRecorder*` that is null when tracing is disabled, so the disabled
// path costs one branch and stays byte-identical to the untraced build.
//
// Not thread-safe: one recorder belongs to one orchestration thread (the
// nightly engine and the DES are single-threaded; mpilite ranks report
// through the thread-safe MetricsRegistry instead).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/timer.hpp"

namespace epi::obs {

/// Extra key/value payload attached to an event ("args" in Chrome format).
using TraceArgs = JsonObject;

class TraceRecorder {
 public:
  /// With `deterministic_timing` the wall half of the dual clock always
  /// reads zero, making emitted traces byte-reproducible.
  explicit TraceRecorder(bool deterministic_timing = false)
      : deterministic_(deterministic_timing) {}

  // --- Process / thread registry (Chrome metadata events) ---------------

  /// Registers (or looks up) a trace "process" — one per site: "home",
  /// "remote", "wan", "mpilite". Returns its pid.
  std::uint32_t process(const std::string& name);

  /// Names a thread lane within a process (node id, rank, WAN direction).
  /// Idempotent per (pid, tid).
  void thread_name(std::uint32_t pid, std::uint32_t tid,
                   const std::string& name);

  // --- The simulated half of the dual clock ------------------------------

  /// Sets the current simulated/workflow time used by scoped spans.
  void set_sim_hours(double hours) { sim_hours_ = hours; }
  double sim_hours() const { return sim_hours_; }

  /// Wall seconds since construction; exactly 0.0 under deterministic
  /// timing (the only wall-clock read, via util/timer.hpp).
  double wall_seconds() const {
    return deterministic_ ? 0.0 : wall_.elapsed_seconds();
  }
  bool deterministic_timing() const { return deterministic_; }

  // --- Events (ts arguments are simulated hours) -------------------------

  /// Opens a span ('B'); close with end() on the same (pid, tid).
  void begin(std::uint32_t pid, std::uint32_t tid, const std::string& name,
             const std::string& category, double ts_hours,
             TraceArgs args = {});
  /// Closes the most recent open span on (pid, tid) ('E').
  void end(std::uint32_t pid, std::uint32_t tid, double ts_hours,
           TraceArgs args = {});
  /// A whole span with a known duration ('X') — per-job, per-transfer.
  void complete(std::uint32_t pid, std::uint32_t tid, const std::string& name,
                const std::string& category, double start_hours,
                double duration_hours, TraceArgs args = {});
  /// A point event ('i') — faults, recoveries, per-region milestones.
  void instant(std::uint32_t pid, std::uint32_t tid, const std::string& name,
               const std::string& category, double ts_hours,
               TraceArgs args = {});
  /// A counter sample ('C') — queue depth, busy nodes, utilization.
  void counter(std::uint32_t pid, const std::string& name, double ts_hours,
               TraceArgs values);

  // --- Causal flow edges ('s'/'t'/'f') ------------------------------------
  //
  // Flow events stitch spans on different lanes into a causal chain: a
  // mpilite send→recv pair, an exec submit→start→finish, a service
  // request→campaign-unit hand-off. All events of one chain share an `id`
  // string; Chrome/Perfetto draw the arrows, epitrace validates the
  // well-formedness (every 'f' terminates a previously started chain).

  /// Opens a causal chain ('s') — e.g. the send or submit side.
  void flow_start(std::uint32_t pid, std::uint32_t tid,
                  const std::string& name, const std::string& category,
                  double ts_hours, const std::string& id, TraceArgs args = {});
  /// An intermediate hop ('t') on an already-started chain.
  void flow_step(std::uint32_t pid, std::uint32_t tid, const std::string& name,
                 const std::string& category, double ts_hours,
                 const std::string& id, TraceArgs args = {});
  /// Terminates a chain ('f', binding point "e") — the recv or finish side.
  void flow_end(std::uint32_t pid, std::uint32_t tid, const std::string& name,
                const std::string& category, double ts_hours,
                const std::string& id, TraceArgs args = {});

  std::size_t event_count() const { return events_.size(); }

  // --- Export ------------------------------------------------------------

  /// {"traceEvents": [...]} with metadata first and events stably sorted
  /// by timestamp, so `ts` is monotone within every (pid, tid) lane.
  Json to_json() const;
  /// Writes to_json() to `path` (compact, one parseable document).
  void write(const std::string& path) const;

 private:
  struct Event {
    char ph;  // 'B', 'E', 'X', 'i', 'C', 's', 't', 'f'
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;     // 'X' only
    std::string flow_id;     // 's'/'t'/'f' only
    std::string name;
    std::string category;
    TraceArgs args;
  };

  void push(char ph, std::uint32_t pid, std::uint32_t tid, std::string name,
            std::string category, double ts_hours, double dur_hours,
            TraceArgs args);

  bool deterministic_;
  Timer wall_;
  double sim_hours_ = 0.0;
  std::vector<Event> events_;
  // Insertion-ordered metadata; the map gives process-name -> pid lookup.
  std::map<std::string, std::uint32_t> pids_;
  std::vector<Event> metadata_;
};

/// RAII span on the recorder's current simulated clock: 'B' at
/// construction, 'E' at destruction. Null recorder = no-op, so callers can
/// open spans unconditionally.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, std::uint32_t pid, std::uint32_t tid,
             const std::string& name, const std::string& category,
             TraceArgs args = {})
      : recorder_(recorder), pid_(pid), tid_(tid) {
    if (recorder_ != nullptr) {
      recorder_->begin(pid_, tid_, name, category, recorder_->sim_hours(),
                       std::move(args));
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->end(pid_, tid_, recorder_->sim_hours());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  std::uint32_t pid_;
  std::uint32_t tid_;
};

}  // namespace epi::obs
