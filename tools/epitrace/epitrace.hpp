// epitrace — the analysis half of observability.
//
// src/obs/ records; this library validates and answers. It loads a
// trace.json / metrics.json pair produced by an obs::Session, checks it
// against the one rule set of the trace format (load_trace,
// check_metrics_json), reconstructs the span DAG, and computes the
// quantities a perf investigation starts from:
//
//   - the critical path per workflow phase (longest chain of
//     non-overlapping spans inside the phase window, with per-span
//     self-time) — by construction its total never exceeds the phase
//     duration, which doubles as a self-check of the implementation;
//   - per-lane busy time (interval union, so nested spans do not double
//     count) and max-vs-mean lane imbalance per trace process;
//   - blocked-time attribution: per-category span totals (compute vs WAN
//     vs DES jobs) plus the mpilite collective-wait histograms from
//     metrics.json;
//   - top-K spans by duration;
//   - consistency self-checks (critical path <= phase wall time; job-span
//     busy node-hours vs the recorded utilization gauge);
//   - a machine-readable JSON summary of all of the above.
//
// It also implements the perf-regression gate: diffing BENCH_<name>.json
// reports against committed baselines (bench/baselines/) under
// per-metric relative tolerances (tolerances.json), used by the ci.sh
// `obs` lane through `epitrace diff`.
//
// Everything here is deterministic: inputs are sorted documents, every
// ordering below has an explicit tie-break, and no wall clock is read.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace epi::epitrace {

/// One reconstructed span ('X', or a matched 'B'/'E' pair) in hours on
/// the simulated/workflow clock.
struct Span {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  double start_hours = 0.0;
  double duration_hours = 0.0;
  std::string name;
  std::string category;
  /// The "nodes" arg of DES job spans (1 when absent): the width used for
  /// busy node-hour accounting.
  double nodes = 1.0;

  double end_hours() const { return start_hours + duration_hours; }
};

/// The loaded trace: every rule violation, spans, lane/process names,
/// counts.
struct TraceModel {
  /// Every violation of the trace rules, "event <index>: ..." where one
  /// event is at fault; empty when the trace is well-formed. Analyses
  /// must not run on a model with errors.
  std::vector<std::string> errors;
  std::map<std::uint32_t, std::string> process_names;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> thread_names;
  std::vector<Span> spans;  // sorted by (start, end, pid, tid, name)
  std::size_t events = 0;   // non-metadata events
  std::size_t instants = 0;
  std::map<std::string, std::size_t> instants_by_category;
  std::size_t counter_samples = 0;
  /// Ids of the completed 's'..'f' chains, in completion order.
  std::vector<std::string> flow_chains;
  /// Total cluster nodes from the first "slurm.nodes" counter sample
  /// (busy + down + free); 0 when the trace has no DES counters.
  double slurm_total_nodes = 0.0;

  const std::string& process(std::uint32_t pid) const;
};

/// Validates and loads a Chrome trace_event document in one pass. The
/// rules: an object with a "traceEvents" array holding at least one
/// non-metadata event; every event an object with a one-character ph of
/// M/B/E/X/i/C/s/t/f and non-negative integer pid/tid; every non-metadata
/// event a numeric ts, monotone non-decreasing within its (pid, tid)
/// lane; every 'E' closing an open 'B' on its lane and no 'B' left open;
/// 'X' with a non-negative numeric dur; a string name on B/X/i/C and flow
/// events; flow chains ('s'/'t'/'f' sharing a non-empty string id)
/// started once, continued only while open, never running backwards in
/// time, and closed by 'f'. Violations are collected into
/// TraceModel::errors, never thrown; spans are built only from
/// well-formed events.
TraceModel load_trace(const Json& doc);
/// Reads, parses, and loads a trace file; read and parse failures are
/// reported in TraceModel::errors.
TraceModel load_trace_file(const std::string& path);

/// A metrics snapshot (the obs::MetricsRegistry shape) and every
/// violation found in it.
struct MetricsCheck {
  Json doc = Json(JsonObject{});  // the checked document
  std::vector<std::string> errors;
  std::size_t counters = 0;
  std::size_t gauges = 0;
  std::size_t histograms = 0;
};

/// Validates a metrics snapshot: "counters" (non-negative numbers),
/// "gauges" (numbers) and "histograms" objects; each histogram with
/// non-negative integer count/underflow/overflow, a numeric sum, buckets
/// whose non-negative integer counts sum to count under increasing
/// bounds closed by "+Inf", and monotone p50/p95/p99 when present.
/// Violations name the offending member and are collected, never thrown.
MetricsCheck check_metrics_json(Json doc);
/// Reads, parses, and checks a metrics file; read and parse failures are
/// reported as errors.
MetricsCheck check_metrics_file(const std::string& path);

/// One span on a phase's critical path.
struct PathSpan {
  std::string process;
  std::uint32_t tid = 0;
  std::string name;
  double start_hours = 0.0;
  double duration_hours = 0.0;
  /// duration minus the interval union of spans nested inside it on the
  /// same lane — the time the span itself was on the clock.
  double self_hours = 0.0;
};

/// The critical path of one workflow phase: the maximum-total-duration
/// chain of pairwise non-overlapping spans (a ends before b starts) fully
/// inside the phase window, across every process. total_hours <=
/// duration_hours always holds (the chain fits inside the window).
struct PhasePath {
  std::string name;
  std::string site;  // process the phase span lives on
  double start_hours = 0.0;
  double duration_hours = 0.0;
  double total_hours = 0.0;
  std::vector<PathSpan> spans;
};

/// Critical paths for every cat="phase" span, in phase start order.
std::vector<PhasePath> critical_paths(const TraceModel& model);

/// Busy time of one (pid, tid) lane: the interval union of its non-phase
/// spans (nesting and overlap count once).
struct LaneBusy {
  std::string process;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::string thread;
  double busy_hours = 0.0;
};

std::vector<LaneBusy> lane_busy(const TraceModel& model);

/// Max-vs-mean lane busy time per process (lanes with at least one span).
struct Imbalance {
  std::string process;
  std::size_t lanes = 0;
  double max_busy_hours = 0.0;
  double mean_busy_hours = 0.0;
  double ratio = 1.0;  // max / mean; 1.0 when mean is 0
};

std::vector<Imbalance> imbalance(const TraceModel& model);

/// Per-category span-duration totals ("job", "exec", "transfer", ...):
/// the compute-vs-WAN-vs-DES half of blocked-time attribution. The
/// collective-wait half comes from the "mpilite.<op>_s" histogram sums in
/// metrics.json (collective_wait_seconds below).
std::map<std::string, double> category_hours(const TraceModel& model);

/// Sum of every "mpilite.<op>_s" histogram in a metrics document, keyed
/// by operation name; empty when none were recorded.
std::map<std::string, double> collective_wait_seconds(const Json& metrics);

/// The `k` longest spans, duration-descending (ties: start, pid, tid,
/// name).
std::vector<Span> top_spans(const TraceModel& model, std::size_t k);

/// One internal-consistency check over a loaded run.
struct SelfCheck {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Runs every applicable self-check:
///   - "critical-path-bounded": each phase's path total <= its duration;
///   - "busy-vs-utilization": job-span busy node-hours against the
///     nightly.utilization × nodes × makespan product recorded in
///     metrics.json (skipped with ok=true when the run has no DES trace).
std::vector<SelfCheck> self_checks(const TraceModel& model,
                                   const Json& metrics);

/// The machine-readable summary of one run directory (trace.json +
/// metrics.json): phases/critical paths, lanes, imbalance, categories,
/// collectives, top spans, self-check verdicts.
Json summarize(const TraceModel& model, const Json& metrics,
               std::size_t top_k = 10);

/// Renders a summary (as produced by summarize()) into the human-readable
/// text `epitrace report` prints. Returns the text; the caller owns
/// printing, keeping this library output-free.
std::string render_text(const Json& summary);

/// Renders the run-to-run comparison of two summaries for
/// `epitrace diff`: phase durations, critical paths, counters, and gauges
/// side by side with relative deltas.
std::string render_diff(const Json& summary_a, const Json& summary_b,
                        const Json& metrics_a, const Json& metrics_b);

// --- Perf-regression gate -------------------------------------------------

/// One metric's baseline-vs-candidate comparison.
struct BenchDelta {
  std::string bench;
  std::string metric;
  double baseline = 0.0;
  double candidate = 0.0;
  double relative = 0.0;   // |candidate - baseline| / max(|baseline|, eps)
  double tolerance = 0.0;  // the tolerance this metric was held to
  bool ok = false;
  std::string note;  // "missing in candidate", ...
};

struct BenchDiffResult {
  bool ok = false;
  std::size_t benches = 0;
  std::vector<BenchDelta> deltas;  // (bench, metric) order
};

/// True for a bench report file name: "BENCH_<name>.json", name
/// non-empty.
bool is_bench_report(const std::string& file_name);

/// Diffs every BENCH_<name>.json in `baseline_dir` against its
/// counterpart in `candidate_dir` under the per-metric relative
/// tolerances of <baseline_dir>/tolerances.json ({"default": r,
/// "overrides": {"<bench>.<metric>": r}}; 0.05 when the file is absent).
/// A baseline bench missing from the candidate fails; extra candidate
/// benches are ignored.
BenchDiffResult bench_diff(const std::string& baseline_dir,
                           const std::string& candidate_dir);

/// Renders a BenchDiffResult as the text `epitrace diff` prints for two
/// bench report directories.
std::string render_bench_diff(const BenchDiffResult& result);

}  // namespace epi::epitrace
