/**
 * @file
 * Batch-execution engine: submit N (workload, hardware, compiler
 * options) jobs, compile and simulate them concurrently on a fixed-size
 * `ThreadPool`, and collect results in deterministic submission order.
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
 * pattern. `threads = 1` is the serial path: jobs run in submission
 * order on the calling thread with no pool.
 */
#ifndef EFFACT_RUNTIME_SWEEP_H
#define EFFACT_RUNTIME_SWEEP_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "compiler/compile_cache.h"
#include "platform/platform.h"
#include "runtime/thread_pool.h"

namespace effact {

/** One batch job: how to build the workload and where to run it. */
struct SweepJob
{
    std::string name;
    /** Workload factory, invoked on the executing worker (program
     *  construction is part of the parallel work). Must be safe to call
     *  from any thread — build the IR inside, don't capture shared
     *  mutable state. */
    std::function<Workload()> build;
    /**
     * Optional recipe hash, for a `build` whose workload is a pure
     * function of a small recipe (the service's `WorkloadRecipe`: the
     * workload kind, every `FheParams` field and the kind's parameter):
     * equal hashes must build equal workloads. With a shared cache the
     * engine memoizes (recipe, preset) to the published snapshot, so a
     * later job of the same recipe at any hardware point builds no IR
     * and runs its back end on the shared snapshot without copying it
     * (`job.ir.ms` is then 0 and `job.middle.ms` is the memo lookup).
     * Unset = build every time (fig11 grids, tests).
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
    /** Worker count; 1 = serial on the calling thread (no pool). */
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
    /**
     * Batch-wide verification override: -1 (default) leaves every job's
     * `CompilerOptions::verifyLevel` alone; >= 0 forces that level onto
     * all jobs, so a harness can run a whole sweep fully checkpointed
     * (or force it off in a Release perf lane) without editing each
     * job's options.
     */
    int verifyLevel = -1;
    /**
     * Caller-owned worker pool: when set, the parallel path runs its
     * job tasks as a `ThreadPool::Group` on this pool instead of
     * constructing a private one — the long-lived-service shape, where
     * one fixed pool serves every batch and pool construction cost /
     * thread churn per batch would be wrong. The engine neither sizes
     * nor shuts the pool down; `threads` still caps this batch's
     * concurrency appetite but the pool's own width is what actually
     * bounds parallelism. Results are byte-identical to a private
     * pool of any size (worker scheduling is never observable).
     * Ignored on the serial path.
     */
    ThreadPool *pool = nullptr;
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
     * Runs every submitted job (concurrently when `threads > 1`) and
     * returns the results in submission order. One-shot per engine.
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

    /** Workers actually used by `runAll()` — the request clamped to the
     *  job count (1 before the run). This is what `sweep.threads`
     *  reports, so per-worker throughput math has the right
     *  denominator. */
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
