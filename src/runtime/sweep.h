/**
 * @file
 * Batch-execution engine: submit N (workload, hardware, compiler
 * options) jobs, compile and simulate them concurrently with one
 * fork-join per `runAll()`, and collect results in deterministic
 * submission order. The fork-join spawns `min(threads, jobs)` plain
 * `std::thread` workers (none when `threads` or the job count is 1)
 * and the calling thread drains job indices from the same atomic
 * counter alongside them, so up to `threads + 1` jobs run at once;
 * workers write disjoint result slots and are joined before
 * `runAll()` returns.
 * Every job owns a private `AnalysisManager`, so analysis caching
 * needs no locking. Cross-job reuse is the (opt-in) shared
 * `CompileCache`: keyed on program *content* plus the compiler preset
 * — not process-local ids — it deduplicates the hardware-independent
 * middle end across jobs, so a preset x hardware grid optimizes each
 * (workload, preset) once; jobs that carry a recipe also skip their IR
 * build and read the cached snapshot in place. Each job is pure given
 * its inputs, and cache entries are immutable single-flight snapshots,
 * so results — simulated cycles, machine-code fingerprints, stat
 * aggregates — are byte-identical at any thread count and any hit
 * pattern. `threads = 1` is the same loop with no worker spawned:
 * jobs run in submission order on the calling thread.
 */
#ifndef EFFACT_RUNTIME_SWEEP_H
#define EFFACT_RUNTIME_SWEEP_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "compiler/compile_cache.h"
#include "platform/platform.h"

namespace effact {

/**
 * Worker-count default for batch runs: the `EFFACT_THREADS` environment
 * variable when set to a positive integer, otherwise the hardware
 * concurrency (at least 1). `EFFACT_THREADS=1` selects the serial path.
 */
size_t defaultThreadCount();

/** One batch job: how to build the workload and where to run it. */
struct SweepJob
{
    std::string name;
    /** Workload factory, invoked on the executing worker (program
     *  construction is part of the parallel work). Must be safe to call
     *  from any thread — build the IR inside, don't capture shared
     *  mutable state — and must not throw: errors go through
     *  `panic`/`fatal`, which abort the process from any thread. */
    std::function<Workload()> build;
    /**
     * Optional recipe hash, for a `build` whose workload is a pure
     * function of a small recipe (the service's `WorkloadRecipe`: the
     * workload kind and the `FheParams` fields and parameter its builder
     * reads): equal hashes must build equal workloads. With a shared
     * cache the hash stands in for the IR fingerprint in the job's
     * `CompileCacheKey`, so only the first job of a (recipe, preset)
     * builds IR; every job runs its back end on the shared snapshot
     * without copying it (`job.ir.ms` is 0 on a hit and `job.middle.ms`
     * is the lookup). Unset = build every time (fig11 grids, tests).
     */
    std::optional<uint64_t> recipe;
    HardwareConfig hw;
    CompilerOptions copts;
};

/** One job's outcome, delivered in submission order. */
struct SweepResult
{
    std::string name;
    size_t jobIndex = 0;
    PlatformResult platform;
};

/** Engine knobs. */
struct SweepOptions
{
    /**
     * Spawned-worker count (0 is floored to 1). Above 1, `runAll()`
     * spawns `min(threads, jobs)` workers and the calling thread runs
     * jobs alongside them, so a batch runs up to `threads + 1` jobs at
     * once; 1 = no worker, jobs run serially on the calling thread.
     */
    size_t threads = 1;
    /**
     * Opt-in shared compile cache: when set, every job's compile
     * consults it, so the hardware-independent middle end runs once per
     * (workload, preset) key instead of once per job. The store is
     * sharded, mutex-protected and single-flight; per-job
     * `AnalysisManager`s stay lock-free. Results are byte-identical to
     * an uncached run at any thread count and any hit pattern. The
     * caller owns the cache (it may outlive the engine and be shared
     * across engines); its cumulative `cache.*` stats are merged into
     * the engine's aggregates after `runAll()`.
     */
    CompileCache *compileCache = nullptr;
};

/**
 * Compile-and-simulate batch driver. `submit()` jobs, then `runAll()`
 * once; results and per-stat aggregates are then available. Aggregates
 * are computed from the ordered results on the calling thread, so they
 * are independent of worker scheduling.
 */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions opts = {}) : opts_(opts) {}

    /** Enqueues a job; returns its index (= result position). */
    size_t submit(SweepJob job);

    /** Convenience overload building the `SweepJob` in place. */
    size_t submit(std::string name, std::function<Workload()> build,
                  HardwareConfig hw, CompilerOptions copts);

    /**
     * Runs every submitted job (concurrently when `threads > 1`: the
     * spawned workers plus the calling thread) and returns the results
     * in submission order. One-shot per engine.
     */
    const std::vector<SweepResult> &runAll();

    /** Results of `runAll()`, in submission order. */
    const std::vector<SweepResult> &results() const { return results_; }

    /**
     * Per-statistic aggregates over all jobs, valid after `runAll()`:
     * for every key `k` in a job's compiler stats (prefixed
     * `compile.`), simulator stats (`sim.`), per-stage wall-clock stats
     * (already prefixed `job.`) and benchmark-level metrics
     * (`platform.`), the batch records `<k>.sum`, `<k>.min`, `<k>.max`,
     * `<k>.mean` and `<k>.count` (jobs reporting the key), plus
     * `sweep.jobs` and `sweep.threads`.
     */
    const StatSet &aggregates() const { return aggregates_; }

    size_t jobCount() const { return jobs_.size(); }

    /** Requested worker count (the `SweepOptions` knob, floored at 1) */
    size_t threads() const { return opts_.threads == 0 ? 1 : opts_.threads; }

    /** Workers spawned by `runAll()` — the request clamped to the job
     *  count, or 1 on the serial path (and before the run); the calling
     *  thread runs jobs too and is not counted. This is what
     *  `sweep.threads` reports. */
    size_t workersUsed() const { return workers_used_; }

  private:
    SweepOptions opts_;
    std::vector<SweepJob> jobs_;
    std::vector<SweepResult> results_;
    StatSet aggregates_;
    size_t workers_used_ = 1;
    bool ran_ = false;
};

} // namespace effact

#endif // EFFACT_RUNTIME_SWEEP_H
