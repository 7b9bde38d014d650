/**
 * @file
 * CI perf lane: three headline measurements — simulator throughput on
 * the paper-scale bootstrapping trace (`bench_sim_speed`'s event-driven
 * core), the `bench_fig11_ablation` 15-job preset x SRAM grid on the
 * `SweepEngine` with a shared `CompileCache`, and the per-optimization
 * win matrix (each PR 10 optimization isolated against the full
 * preset) — emitted as one machine-readable `BENCH_sweep.json`
 * (cycles, wall-clock ms, cache hit stats, thread count, per-job
 * fingerprints).
 *
 * CI uploads the file as an artifact on every push (the perf
 * trajectory) and gates on `bench/check_regression.py` against the
 * checked-in `bench/baseline.json`: deterministic fields (cycles,
 * fingerprints) must match exactly, wall-clock may regress at most 25%
 * (env-overridable). Regenerate the baseline deliberately with
 * `bench/regen_baseline.sh`.
 *
 * Usage: bench_perf_lane [output.json]   (default: BENCH_sweep.json)
 */
#include <chrono>
#include <cinttypes>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"

namespace effact {
namespace {

using Clock = std::chrono::steady_clock;

double
msSince(const Clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

struct SimSpeedResult
{
    size_t instructions = 0;
    double cycles = 0;
    double compileWallMs = 0;
    double simWallMs = 0; ///< best of 3
};

/** The `bench_sim_speed` measurement: event-driven core throughput on
 *  the paper-scale bootstrapping trace. */
SimSpeedResult
measureSimSpeed()
{
    SimSpeedResult r;
    Workload w = buildBootstrapping(paperFhe());
    HardwareConfig hw = HardwareConfig::asicEffact27();
    Compiler compiler(Platform::fullOptions(hw.sramBytes));

    const Clock::time_point c0 = Clock::now();
    MachineProgram mp = compiler.compile(w.program);
    r.compileWallMs = msSince(c0);
    r.instructions = mp.insts.size();

    Simulator sim(hw);
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        const Clock::time_point t0 = Clock::now();
        const SimReport report = sim.run(mp);
        best = std::min(best, msSince(t0));
        r.cycles = report.cycles;
    }
    r.simWallMs = best;
    return r;
}

struct GridResult
{
    double wallMs = 0;
    size_t threads = 0;
    StatSet cacheStats;
    std::vector<SweepResult> results;
    std::vector<size_t> sramMb;
};

/** The `bench_fig11_ablation` grid, verbatim submission order, on the
 *  engine with a shared compile cache. */
GridResult
runFig11Grid()
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    hw.hbmBytesPerSec = 1.0e12;

    struct Step
    {
        const char *name;
        CompilerOptions (*options)(size_t);
        bool mac_reuse;
    };
    const std::vector<Step> steps = {
        {"baseline", Platform::baselineOptions, false},
        {"MAD-enhanced", Platform::madEnhancedOptions, false},
        {"streaming", Platform::streamingOptions, false},
        {"full", Platform::fullOptions, true},
        {"optimized", Platform::optimizedOptions, true},
    };
    const std::vector<size_t> sram_points = {
        size_t(27) << 20, size_t(13) << 20, size_t(54) << 20};

    GridResult grid;
    CompileCache cache;
    SweepEngine engine({defaultThreadCount(), &cache});
    for (size_t sram : sram_points) {
        for (const Step &step : steps) {
            HardwareConfig cfg = hw;
            cfg.nttMacReuse = step.mac_reuse;
            cfg.sramBytes = sram;
            engine.submit(std::string(step.name) + "/sram" +
                              std::to_string(sram >> 20),
                          [] { return buildBootstrapping(paperFhe()); },
                          cfg, step.options(sram));
            grid.sramMb.push_back(sram >> 20);
        }
    }
    const Clock::time_point t0 = Clock::now();
    grid.results = engine.runAll();
    grid.wallMs = msSince(t0);
    grid.threads = engine.workersUsed();
    grid.cacheStats = cache.statsSnapshot();

    // The hardware-split invariant the lane records: one middle-end
    // pipeline run per preset, at any thread count.
    EFFACT_ASSERT(grid.cacheStats.get("cache.misses") ==
                      double(steps.size()),
                  "expected %zu middle-end runs, saw %.0f", steps.size(),
                  grid.cacheStats.get("cache.misses"));
    // The combined optimized preset never loses to the full preset at
    // any SRAM point (jobs are submitted preset-major per SRAM point,
    // so full/optimized are adjacent).
    for (size_t i = 0; i + 1 < grid.results.size(); i += steps.size()) {
        const SweepResult &full = grid.results[i + steps.size() - 2];
        const SweepResult &opt = grid.results[i + steps.size() - 1];
        EFFACT_ASSERT(opt.platform.sim.cycles <= full.platform.sim.cycles,
                      "optimized preset regressed at %s: %.0f > %.0f",
                      opt.name.c_str(), opt.platform.sim.cycles,
                      full.platform.sim.cycles);
    }
    return grid;
}

// --- Per-optimization cycle wins ------------------------------------------

/** One (workload, variant, SRAM) measurement of the opt-wins matrix. */
struct WinRow
{
    std::string workload;
    std::string opt;
    size_t sramMb = 0;
    double cycles = 0;
    uint64_t fingerprint = 0;
};

/**
 * Isolates each PR 10 optimization against the full Fig. 11 preset:
 * `rotalg` (algebraic rotation rewrites), `regalloc` (priority spill
 * scoring), `scheduler` (latency-weighted list scheduling), and the
 * three combined (`optimized`), on the paper-scale bootstrapping trace
 * and the hoisted rotation batch, at a spill-heavy and a comfortable
 * SRAM point. Cycles and fingerprints are deterministic and gated
 * exactly against the baseline (`opt_wins.results`).
 */
std::vector<WinRow>
measureOptimizationWins()
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    hw.hbmBytesPerSec = 1.0e12;
    hw.nttMacReuse = true; // the full-preset hardware point

    struct Variant
    {
        const char *name;
        void (*tweak)(CompilerOptions &);
    };
    const std::vector<Variant> variants = {
        {"full", [](CompilerOptions &) {}},
        {"rotalg",
         [](CompilerOptions &o) {
             o.pipeline = "copyprop,constprop,rotalg,pre,peephole";
         }},
        {"regalloc", [](CompilerOptions &o) { o.regalloc = "priority"; }},
        {"scheduler",
         [](CompilerOptions &o) { o.scheduler = "latency"; }},
        {"optimized",
         [](CompilerOptions &o) {
             o.pipeline = "copyprop,constprop,rotalg,pre,peephole";
             o.regalloc = "priority";
             o.scheduler = "latency";
         }},
    };
    const std::vector<std::pair<const char *, std::function<Workload()>>>
        workloads = {
            {"bootstrap", [] { return buildBootstrapping(paperFhe()); }},
            {"rotbatch",
             [] { return buildRotationBatch(paperFhe(), 8, 12); }},
        };
    const std::vector<size_t> sram_points = {size_t(13) << 20,
                                             size_t(27) << 20};

    CompileCache cache;
    SweepEngine engine({defaultThreadCount(), &cache});
    for (const auto &[wname, build] : workloads) {
        for (size_t sram : sram_points) {
            for (const Variant &v : variants) {
                HardwareConfig cfg = hw;
                cfg.sramBytes = sram;
                CompilerOptions opts = Platform::fullOptions(sram);
                v.tweak(opts);
                engine.submit(std::string(wname) + "/" + v.name +
                                  "/sram" + std::to_string(sram >> 20),
                              build, cfg, opts);
            }
        }
    }
    const std::vector<SweepResult> &results = engine.runAll();

    std::vector<WinRow> rows;
    size_t idx = 0;
    for (const auto &[wname, build] : workloads) {
        (void)build;
        for (size_t sram : sram_points) {
            for (const Variant &v : variants) {
                const SweepResult &r = results[idx++];
                rows.push_back({wname, v.name, sram >> 20,
                                r.platform.sim.cycles,
                                r.platform.machineFingerprint});
            }
        }
    }

    // The measured-win gate: each optimization, isolated, strictly
    // improves at least one (workload, SRAM) point. Rows are blocks of
    // `stride` with the full-preset anchor first.
    const size_t stride = variants.size();
    for (size_t v = 1; v < stride; ++v) {
        bool wins = false;
        for (size_t base = 0; base + v < rows.size(); base += stride) {
            const double delta =
                rows[base].cycles - rows[base + v].cycles;
            std::fprintf(stderr,
                         "[wins] %s/%s/sram%zu: %.0f cycles (%+.2f%% vs "
                         "full)\n",
                         rows[base + v].workload.c_str(),
                         rows[base + v].opt.c_str(),
                         rows[base + v].sramMb, rows[base + v].cycles,
                         -100.0 * delta / rows[base].cycles);
            wins |= delta > 0;
        }
        EFFACT_ASSERT(wins, "%s never beats the full preset",
                      variants[v].name);
    }
    return rows;
}

int
emit(const char *path)
{
    // Recorded perf numbers must be comparable run to run: refuse to
    // measure with checkpoint verification switched on via the
    // environment — a verified compile is a different workload than the
    // one the checked-in baseline was recorded from. Every job's
    // `CompilerOptions::verifyLevel` defaults to that level, 0.
    EFFACT_ASSERT(defaultVerifyLevel() == 0,
                  "perf lane refuses to run with EFFACT_VERIFY set: "
                  "verification would pollute the recorded wall-clock");

    const SimSpeedResult speed = measureSimSpeed();
    const GridResult grid = runFig11Grid();
    const std::vector<WinRow> wins = measureOptimizationWins();

    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"effact-bench-sweep-v1\",\n");
    std::fprintf(f, "  \"sim_speed\": {\n");
    std::fprintf(f, "    \"instructions\": %zu,\n", speed.instructions);
    std::fprintf(f, "    \"cycles\": %.0f,\n", speed.cycles);
    std::fprintf(f, "    \"compile_wall_ms\": %.3f,\n",
                 speed.compileWallMs);
    std::fprintf(f, "    \"sim_wall_ms\": %.3f,\n", speed.simWallMs);
    std::fprintf(f, "    \"insts_per_sec\": %.0f\n",
                 double(speed.instructions) / (speed.simWallMs / 1e3));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"fig11_grid\": {\n");
    std::fprintf(f, "    \"jobs\": %zu,\n", grid.results.size());
    std::fprintf(f, "    \"threads\": %zu,\n", grid.threads);
    std::fprintf(f, "    \"wall_ms\": %.3f,\n", grid.wallMs);
    std::fprintf(f, "    \"cache\": {\n");
    std::fprintf(f, "      \"lookups\": %.0f,\n",
                 grid.cacheStats.get("cache.lookups"));
    std::fprintf(f, "      \"hits\": %.0f,\n",
                 grid.cacheStats.get("cache.hits"));
    std::fprintf(f, "      \"middle_end_runs\": %.0f,\n",
                 grid.cacheStats.get("cache.misses"));
    std::fprintf(f, "      \"frontend_skipped\": %.0f\n",
                 grid.cacheStats.get("cache.frontend_skipped"));
    std::fprintf(f, "    },\n");
    std::fprintf(f, "    \"results\": [\n");
    for (size_t i = 0; i < grid.results.size(); ++i) {
        const SweepResult &r = grid.results[i];
        std::fprintf(f,
                     "      {\"name\": \"%s\", \"sram_mb\": %zu, "
                     "\"cycles\": %.0f, \"bench_ms\": %.6f, "
                     "\"dram_gb\": %.6f, "
                     "\"fingerprint\": \"0x%016" PRIx64 "\"}%s\n",
                     r.name.c_str(), grid.sramMb[i],
                     r.platform.sim.cycles, r.platform.benchTimeMs,
                     r.platform.dramGb, r.platform.machineFingerprint,
                     i + 1 < grid.results.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"opt_wins\": {\n");
    std::fprintf(f, "    \"jobs\": %zu,\n", wins.size());
    std::fprintf(f, "    \"results\": [\n");
    for (size_t i = 0; i < wins.size(); ++i) {
        const WinRow &r = wins[i];
        std::fprintf(f,
                     "      {\"workload\": \"%s\", \"opt\": \"%s\", "
                     "\"sram_mb\": %zu, \"cycles\": %.0f, "
                     "\"fingerprint\": \"0x%016" PRIx64 "\"}%s\n",
                     r.workload.c_str(), r.opt.c_str(), r.sramMb,
                     r.cycles, r.fingerprint,
                     i + 1 < wins.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);

    std::fprintf(stderr,
                 "[perf] sim: %zu insts, %.0f cycles, %.1f ms | grid: "
                 "%zu jobs on %zu worker(s), %.1f ms, %.0f middle-end "
                 "run(s)\n",
                 speed.instructions, speed.cycles, speed.simWallMs,
                 grid.results.size(), grid.threads, grid.wallMs,
                 grid.cacheStats.get("cache.misses"));
    std::printf("wrote %s\n", path);
    return 0;
}

} // namespace
} // namespace effact

int
main(int argc, char **argv)
{
    return effact::emit(argc > 1 ? argv[1] : "BENCH_sweep.json");
}
