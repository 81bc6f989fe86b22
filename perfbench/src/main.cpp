//===- perfbench/src/main.cpp - Repository benchmark entry point ----------===//
///
/// \file
/// Usage:
///
///   ipg_perfbench --workload <keystroke|parse|grammar_edit|cold_start>
///                 --seed <n> --trace <0|1> --corpus-dir <dir>
///                 --work-dir <dir> [--trace-file <path>] [--seconds <n>]
///
/// Prints a human-readable report (every end-to-end metric under its
/// workload-specific name, with unit and sample count) and, as the last
/// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
/// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
/// are the per-layer set of a traced run.
///
/// Workloads are fixed operation streams, not time budgets: at the commit
/// that introduced the benchmark the cost of an operation grows with the
/// operations already done, so a time budget per stream would measure a
/// different point on a faster build. --seconds (BENCHMARK.json's
/// run_seconds, default 10) sets how many times an untraced run replays
/// the stream (PassClock in Bench.h).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace pb;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: ipg_perfbench --workload "
               "<keystroke|parse|grammar_edit|cold_start> --seed <n> "
               "--trace <0|1> --corpus-dir <dir> --work-dir <dir> "
               "[--trace-file <path>] [--seconds <n>]\n",
               Why);
  std::exit(2);
}

void printMetrics(const std::map<std::string, Metric> &Ms, bool &First) {
  for (const auto &[Name, M] : Ms) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), M.Value, M.Unit.c_str());
    First = false;
  }
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  Opt.StartNs = nowNs();
  bool HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + A).c_str());
    std::string V = argv[++I];
    if (A == "--workload")
      Opt.Workload = V;
    else if (A == "--seed")
      Opt.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--trace")
      Opt.Trace = V == "1", HaveTrace = V == "0" || V == "1";
    else if (A == "--corpus-dir")
      Opt.Where.CorpusDir = V;
    else if (A == "--work-dir")
      Opt.Where.WorkDir = V;
    else if (A == "--trace-file")
      Opt.TraceFile = V;
    else if (A == "--seconds")
      Opt.Seconds = std::strtod(V.c_str(), nullptr);
    else
      usage(("unknown option " + A).c_str());
  }
  if (!HaveTrace || Opt.Where.CorpusDir.empty() || Opt.Where.WorkDir.empty())
    usage("--trace, --corpus-dir and --work-dir are required");

  RunResult R;
  if (Opt.Workload == "keystroke")
    R = runKeystroke(Opt);
  else if (Opt.Workload == "parse")
    R = runParse(Opt);
  else if (Opt.Workload == "grammar_edit")
    R = runGrammarEdit(Opt);
  else if (Opt.Workload == "cold_start")
    R = runColdStart(Opt);
  else
    usage("unknown workload");

  std::printf("workload=%s seed=%llu trace=%d seconds=%g passes=%d "
              "stream_hash=%016llx\n",
              Opt.Workload.c_str(), (unsigned long long)Opt.Seed,
              int(Opt.Trace), Opt.Seconds, R.Passes,
              (unsigned long long)R.StreamHash);
  for (const std::string &N : R.Notes)
    std::printf("  %s\n", N.c_str());
  if (!Opt.Trace) {
    for (const auto &[Name, M] : R.Named)
      std::printf("  %-24s %14.3f %-6s n=%llu\n", Name.c_str(), M.Value,
                  M.Unit.c_str(), (unsigned long long)M.Samples);
  } else {
    for (const auto &[Name, M] : R.Layer)
      std::printf("  %-32s %14.4f %s\n", Name.c_str(), M.Value,
                  M.Unit.c_str());
  }
  std::printf("  failed %llu of %llu operations (Earley oracle)\n",
              (unsigned long long)R.Failed, (unsigned long long)R.Attempted);

  bool First = true;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed == 0 && R.Attempted > 0 ? "true" : "false",
              (unsigned long long)R.Attempted, (unsigned long long)R.Failed);
  printMetrics(Opt.Trace ? R.Layer : R.EndToEnd, First);
  std::printf("}}\n");
  return 0;
}
