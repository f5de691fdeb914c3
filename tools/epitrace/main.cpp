// epitrace — trace validator, causal-trace profiler and perf-regression
// gate.
//
// Usage:
//   epitrace check <run_dir>
//   epitrace report <run_dir> [--json] [--top K]
//   epitrace diff <a> <b>
//
// `check` validates <run_dir>/trace.json and metrics.json (both required),
// prints a summary line per file plus every error, then runs the
// profiler's self-checks. `report` prints the critical path per phase,
// lane imbalance, blocked-time attribution, and top spans of a run
// (metrics.json optional); --json prints the machine-readable summary.
// `diff` runs the tolerance-gated baseline comparison when <a> holds
// BENCH_*.json reports (exit 1 on regression — the CI perf gate), and an
// informational run-to-run comparison of two run directories otherwise.
// `report` and `diff` never analyse a malformed run.
//
// Exit codes: 0 ok, 1 failed check or regression, 2 usage error or
// malformed input to report/diff.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "epitrace/epitrace.hpp"
#include "util/env.hpp"
#include "util/json.hpp"

namespace {

using epi::Json;
namespace epitrace = epi::epitrace;

void write(std::FILE* out, const std::string& text) {
  std::fwrite(text.data(), 1, text.size(), out);
}

/// Prints `problem` (when given) and the usage text; returns exit code 2.
int usage(const std::string& problem = {}) {
  if (!problem.empty()) write(stderr, "epitrace: " + problem + "\n");
  write(stderr,
        "usage: epitrace check <run_dir>\n"
        "       epitrace report <run_dir> [--json] [--top K]\n"
        "       epitrace diff <a> <b>\n");
  return 2;
}

void write_errors(std::FILE* out, const std::vector<std::string>& errors) {
  for (const std::string& error : errors) {
    write(out, "    error: " + error + "\n");
  }
}

/// One run directory: its loaded trace and checked metrics snapshot.
struct Run {
  std::string trace_path;
  std::string metrics_path;
  epitrace::TraceModel model;
  epitrace::MetricsCheck metrics;
};

/// Loads <dir>/trace.json and <dir>/metrics.json. Without
/// `metrics_required` a missing metrics file reads as an empty snapshot.
Run load_run(const std::string& dir, bool metrics_required) {
  const std::filesystem::path root(dir);
  Run run{(root / "trace.json").string(), (root / "metrics.json").string()};
  run.model = epitrace::load_trace_file(run.trace_path);
  if (metrics_required || std::filesystem::exists(run.metrics_path)) {
    run.metrics = epitrace::check_metrics_file(run.metrics_path);
  }
  return run;
}

/// Loads a run for analysis; on any error prints the error lists to
/// stderr and returns nullopt.
std::optional<Run> load_valid_run(const std::string& dir) {
  Run run = load_run(dir, false);
  if (run.model.errors.empty() && run.metrics.errors.empty()) return run;
  for (const auto& [path, errors] :
       {std::pair(run.trace_path, run.model.errors),
        std::pair(run.metrics_path, run.metrics.errors)}) {
    if (errors.empty()) continue;
    write(stderr, "epitrace: " + path + " is malformed:\n");
    write_errors(stderr, errors);
  }
  return std::nullopt;
}

int run_check(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  const Run run = load_run(args[0], true);
  const epitrace::TraceModel& model = run.model;
  const epitrace::MetricsCheck& metrics = run.metrics;
  using std::to_string;
  write(stdout,
        run.trace_path + (model.errors.empty() ? ": OK (" : ": FAIL (") +
            to_string(model.events) + " events: " +
            to_string(model.spans.size()) + " spans, " +
            to_string(model.instants) + " instants, " +
            to_string(model.counter_samples) + " counter samples, " +
            to_string(model.process_names.size()) + " processes)\n");
  write_errors(stdout, model.errors);
  write(stdout,
        run.metrics_path + (metrics.errors.empty() ? ": OK (" : ": FAIL (") +
            to_string(metrics.counters) + " counters, " +
            to_string(metrics.gauges) + " gauges, " +
            to_string(metrics.histograms) + " histograms)\n");
  write_errors(stdout, metrics.errors);
  if (!model.errors.empty() || !metrics.errors.empty()) return 1;

  bool all_ok = true;
  write(stdout, "self-checks:\n");
  for (const epitrace::SelfCheck& check :
       epitrace::self_checks(model, metrics.doc)) {
    all_ok = all_ok && check.ok;
    write(stdout, std::string("  [") + (check.ok ? "ok" : "FAIL") + "] " +
                      check.name + ": " + check.detail + "\n");
  }
  return all_ok ? 0 : 1;
}

int run_report(const std::vector<std::string>& args) {
  std::string dir;
  bool as_json = false;
  std::size_t top_k = 10;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json") {
      as_json = true;
    } else if (args[i] == "--top") {
      if (i + 1 == args.size()) return usage("--top needs a value");
      const std::optional<std::size_t> parsed =
          epi::parse_positive_size(args[++i]);
      if (!parsed) {
        return usage("--top '" + args[i] + "' is not a positive integer");
      }
      top_k = *parsed;
    } else if (args[i].rfind("--", 0) == 0) {
      return usage("unknown option '" + args[i] + "'");
    } else if (dir.empty()) {
      dir = args[i];
    } else {
      return usage();
    }
  }
  if (dir.empty()) return usage();

  const std::optional<Run> run = load_valid_run(dir);
  if (!run) return 2;
  const Json summary = epitrace::summarize(run->model, run->metrics.doc, top_k);
  if (as_json) {
    write(stdout, summary.dump(2) + "\n");
  } else {
    write(stdout, epitrace::render_text(summary));
  }
  return 0;
}

bool has_bench_reports(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) return false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (epitrace::is_bench_report(entry.path().filename().string())) {
      return true;
    }
  }
  return false;
}

int run_diff(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  const std::string& a = args[0];
  const std::string& b = args[1];
  if (has_bench_reports(a)) {
    // Bench mode: tolerance-gated regression comparison, a = baselines.
    const epitrace::BenchDiffResult result = epitrace::bench_diff(a, b);
    write(stdout, epitrace::render_bench_diff(result));
    return result.ok ? 0 : 1;
  }
  const std::optional<Run> run_a = load_valid_run(a);
  const std::optional<Run> run_b = load_valid_run(b);
  if (!run_a || !run_b) return 2;
  write(stdout, epitrace::render_diff(
      epitrace::summarize(run_a->model, run_a->metrics.doc),
      epitrace::summarize(run_b->model, run_b->metrics.doc),
      run_a->metrics.doc, run_b->metrics.doc));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string command = args.front();
  args.erase(args.begin());
  try {
    if (command == "check") return run_check(args);
    if (command == "report") return run_report(args);
    if (command == "diff") return run_diff(args);
  } catch (const std::exception& error) {
    std::fputs("epitrace: ", stderr);
    std::fputs(error.what(), stderr);
    std::fputc('\n', stderr);
    return 2;
  }
  return usage();
}
