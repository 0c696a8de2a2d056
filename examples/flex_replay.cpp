/**
 * @file
 * Forensic-bundle replay tool.
 *
 * Two modes:
 *
 *   flex_replay <bundle-dir>
 *     Loads the forensic bundle at <bundle-dir>, re-executes the stored
 *     fault plan on the stored seed in a fresh fuzz room
 *     (fault::FuzzRoomConfig), and diffs the recorded timeline against
 *     the re-execution record by record. Exit 0 on zero divergence, 2 on
 *     divergence, 1 on load errors — among them a bundle recorded on
 *     another room, such as flex_live's, which replays itself.
 *
 *   flex_replay --fuzz <seed> [--out <dir>]
 *     Runs the fault fuzzer's plan for <seed> with the flight recorder
 *     attached, dumps a bundle unconditionally (to <dir>, or
 *     FLEX_FORENSICS_DIR, or ./forensics), then immediately replays it —
 *     the round trip that proves a fresh bundle reproduces.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fault/fault_run.hpp"
#include "fault/forensics.hpp"

namespace {

int
Usage(const char* argv0)
{
  std::fprintf(stderr,
               "usage: %s <bundle-dir>\n"
               "       %s --fuzz <seed> [--out <dir>]\n",
               argv0, argv0);
  return 1;
}

/** Replays @p bundle_dir on the fuzz room; returns the exit code. */
int
Replay(const std::string& bundle_dir)
{
  using namespace flex;

  const fault::ReplayReport replay = fault::ReplayBundle(bundle_dir);
  if (!replay.loaded) {
    std::fprintf(stderr, "flex_replay: cannot replay %s: %s\n",
                 bundle_dir.c_str(), replay.error.c_str());
    return 1;
  }

  std::printf("bundle:    %s\n", bundle_dir.c_str());
  std::printf("trigger:   %s\n", replay.manifest.trigger.c_str());
  std::printf("scenario:  %s (seed %llu)\n", replay.manifest.scenario.c_str(),
              static_cast<unsigned long long>(replay.manifest.seed));
  std::printf("records:   %zu compared (seq %llu..%llu)\n", replay.compared,
              static_cast<unsigned long long>(replay.manifest.first_sequence),
              static_cast<unsigned long long>(replay.manifest.last_sequence));
  for (const std::string& note : replay.manifest.notes)
    std::printf("note:      %s\n", note.c_str());
  if (!replay.report.violation_summary.empty()) {
    std::printf("replayed violations:\n%s",
                replay.report.violation_summary.c_str());
  } else {
    std::printf("replayed violations: none\n");
  }

  if (replay.divergence.has_value()) {
    std::printf("DIVERGED: %s\n", replay.divergence->Summary().c_str());
    return 2;
  }
  std::printf("replay matched the recorded timeline exactly "
              "(zero divergence)\n");
  return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
  using namespace flex;

  if (argc >= 3 && std::strcmp(argv[1], "--fuzz") == 0) {
    const std::uint64_t seed =
        std::strtoull(argv[2], nullptr, 10);
    fault::ForensicsOptions options;
    options.force_dump = true;
    for (int i = 3; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--out") == 0)
        options.root_dir = argv[i + 1];
    }

    const fault::RecordedRun run =
        fault::RunRecordedScenario(fault::FuzzRoomConfig(), seed, options);
    if (run.bundle_dir.empty()) {
      std::fprintf(stderr, "flex_replay: bundle dump failed: %s\n",
                   run.dump_error.c_str());
      return 1;
    }
    std::printf("recorded seed %llu: %zu records, %zu violation(s)\n",
                static_cast<unsigned long long>(seed), run.records.size(),
                run.report.violations.size());
    std::printf("dumped %s\n\n", run.bundle_dir.c_str());
    return Replay(run.bundle_dir);
  }

  if (argc != 2)
    return Usage(argv[0]);
  return Replay(argv[1]);
}
