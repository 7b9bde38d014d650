/**
 * @file
 * Serial per-stage latency bench for the unit job: one paper-scale
 * bootstrapping job (Table III row 1, full preset, 27 MB SRAM)
 * compiled and simulated serially `kReps` times.
 *
 * Two roles:
 *
 * - Determinism gate (hard): every repetition must produce the same
 *   cycles, machine-code fingerprint and instruction count; a
 *   divergence aborts the bench.
 *
 * - Latency trajectory (soft): the min and median end-to-end wall over
 *   the repetitions, plus the median middle-end / back-end / simulate
 *   split, the median `pre` pass, back-end phase (schedule, stream,
 *   regalloc) and machine-code fingerprint walls, and every
 *   repetition's numbers, go to
 *   `BENCH_compile_latency.json` for `bench/check_regression.py` to
 *   gate against `bench/baseline_latency.json` (deterministic fields
 *   exactly, `serial_wall_ms` within EFFACT_PERF_THRESHOLD; the
 *   split and phase walls are recorded, not gated).
 *
 * Usage: bench_compile_latency [output.json]
 *        (default: BENCH_compile_latency.json)
 */
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"

namespace effact {
namespace {

using Clock = std::chrono::steady_clock;

struct LatencyRun
{
    double wallMs = 0;
    double middleMs = 0;
    double backendMs = 0;
    double simMs = 0;
    double preMs = 0;
    double schedMs = 0;
    double streamMs = 0;
    double regallocMs = 0;
    double fingerprintMs = 0;
    double cycles = 0;
    u64 fingerprint = 0;
    size_t instructions = 0;
};

constexpr int kReps = 5;

/** One full serial compile+simulate of the unit job. */
LatencyRun
measureOnce()
{
    SweepOptions opts;
    opts.threads = 1;
    SweepEngine engine(opts);
    CompilerOptions copts =
        Platform::fullOptions(HardwareConfig::asicEffact27().sramBytes);
    copts.verifyLevel = 0;
    engine.submit("bootstrapping/full/sram27",
                  [] { return buildBootstrapping(paperFhe()); },
                  HardwareConfig::asicEffact27(), copts);
    const Clock::time_point t0 = Clock::now();
    const SweepResult &r = engine.runAll().front();
    LatencyRun run;
    run.wallMs =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    run.middleMs = r.platform.jobStats.get("job.middle.ms");
    run.backendMs = r.platform.jobStats.get("job.backend.ms");
    run.simMs = r.platform.jobStats.get("job.sim.ms");
    run.fingerprintMs = r.platform.jobStats.get("job.fingerprint.ms");
    const StatSet &cs = r.platform.compilerStats;
    run.preMs = cs.get("pass.pre.ms");
    run.schedMs = cs.get("backend.sched.ms");
    run.streamMs = cs.get("backend.stream.ms");
    run.regallocMs = cs.get("backend.regalloc.ms");
    run.cycles = r.platform.sim.cycles;
    run.fingerprint = r.platform.machineFingerprint;
    run.instructions = r.platform.sim.instructions;
    return run;
}

/** Median of `runs` by `field` (odd `kReps`: the middle element). */
double
median(const std::vector<LatencyRun> &runs, double LatencyRun::*field)
{
    std::vector<double> values;
    for (const LatencyRun &run : runs)
        values.push_back(run.*field);
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

int
emit(const char *path)
{
    // Same rule as the perf lane: a verified compile is a different
    // workload than the one the baseline was recorded from.
    EFFACT_ASSERT(defaultVerifyLevel() == 0,
                  "latency bench refuses to run with EFFACT_VERIFY set: "
                  "verification would pollute the recorded wall-clock");

    std::vector<LatencyRun> runs;
    for (int rep = 0; rep < kReps; ++rep)
        runs.push_back(measureOnce());

    // Repeat determinism, enforced before anything is written.
    const LatencyRun &first = runs.front();
    for (const LatencyRun &run : runs) {
        EFFACT_ASSERT(run.fingerprint == first.fingerprint &&
                          run.cycles == first.cycles &&
                          run.instructions == first.instructions,
                      "repeat run diverged: fp 0x%016" PRIx64
                      " vs 0x%016" PRIx64 ", cycles %.0f vs %.0f",
                      run.fingerprint, first.fingerprint, run.cycles,
                      first.cycles);
    }
    double min_wall = first.wallMs;
    for (const LatencyRun &run : runs)
        min_wall = std::min(min_wall, run.wallMs);
    const double median_wall = median(runs, &LatencyRun::wallMs);

    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"effact-bench-latency-v2\",\n");
    std::fprintf(f, "  \"compile_latency\": {\n");
    std::fprintf(f, "    \"job\": \"bootstrapping/full/sram27\",\n");
    std::fprintf(f, "    \"instructions\": %zu,\n", first.instructions);
    std::fprintf(f, "    \"cycles\": %.0f,\n", first.cycles);
    std::fprintf(f, "    \"fingerprint\": \"0x%016" PRIx64 "\",\n",
                 first.fingerprint);
    std::fprintf(f, "    \"reps\": %d,\n", kReps);
    std::fprintf(f, "    \"serial_wall_ms\": %.3f,\n", min_wall);
    std::fprintf(f, "    \"serial_wall_ms_median\": %.3f,\n", median_wall);
    std::fprintf(f, "    \"middle_ms\": %.3f,\n",
                 median(runs, &LatencyRun::middleMs));
    std::fprintf(f, "    \"backend_ms\": %.3f,\n",
                 median(runs, &LatencyRun::backendMs));
    std::fprintf(f, "    \"sim_ms\": %.3f,\n",
                 median(runs, &LatencyRun::simMs));
    std::fprintf(f, "    \"pass_pre_ms\": %.3f,\n",
                 median(runs, &LatencyRun::preMs));
    std::fprintf(f, "    \"backend_sched_ms\": %.3f,\n",
                 median(runs, &LatencyRun::schedMs));
    std::fprintf(f, "    \"backend_stream_ms\": %.3f,\n",
                 median(runs, &LatencyRun::streamMs));
    std::fprintf(f, "    \"backend_regalloc_ms\": %.3f,\n",
                 median(runs, &LatencyRun::regallocMs));
    std::fprintf(f, "    \"fingerprint_ms\": %.3f,\n",
                 median(runs, &LatencyRun::fingerprintMs));
    std::fprintf(f, "    \"runs\": [\n");
    for (size_t i = 0; i < runs.size(); ++i) {
        const LatencyRun &run = runs[i];
        std::fprintf(f,
                     "      {\"wall_ms\": %.3f, \"middle_ms\": %.3f, "
                     "\"backend_ms\": %.3f, \"sim_ms\": %.3f}%s\n",
                     run.wallMs, run.middleMs, run.backendMs, run.simMs,
                     i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);

    std::fprintf(stderr,
                 "[latency] %zu insts, %.0f cycles | serial wall min "
                 "%.1f ms, median %.1f ms over %d runs | outputs "
                 "identical on every run\n",
                 first.instructions, first.cycles, min_wall, median_wall,
                 kReps);
    std::printf("wrote %s\n", path);
    return 0;
}

} // namespace
} // namespace effact

int
main(int argc, char **argv)
{
    return effact::emit(argc > 1 ? argv[1] : "BENCH_compile_latency.json");
}
