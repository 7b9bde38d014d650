/**
 * @file
 * The compile-and-simulate job shared by the two compile workloads:
 * paper-scale program builders, the preset table, and the traced
 * (staged) form of one job with its per-layer samples.
 */
#ifndef EFFBENCH_COMPILE_JOB_H
#define EFFBENCH_COMPILE_JOB_H

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "compiler/compile_cache.h"
#include "platform/platform.h"

namespace effbench {

/** Paper-scale scheme parameters: logN 16, L 24, dnum 4. */
effact::FheParams paperFhe();

/** Builds `program` (bootstrap|helr|resnet20|dblookup|tfhe). */
effact::Workload buildProgram(const std::string &program);

/** Compiler preset `full` or `optimized` at `sramBytes`, verification
 *  pinned off. */
effact::CompilerOptions presetOptions(const std::string &preset,
                                      size_t sramBytes);

/** Deterministic outputs of one compile-and-simulate job. */
struct JobOutputs
{
    uint64_t fingerprint = 0;
    double cycles = 0;
    double dramBytes = 0;
};

/**
 * Per-op samples of the compile layers gathered from traced jobs, and
 * their reduction to the per-layer metrics (means per op; pass times
 * over the ops that ran the pass).
 */
struct CompileLayerSamples
{
    std::map<std::string, std::vector<double>> samples;
    size_t middleRuns = 0;      ///< jobs whose middle end ran
    double passRuns = 0;        ///< pass runs (sweeps x passes - skipped)
    double passRunsChanged = 0; ///< of which rewrote the IR
    double simInsts = 0;

    /** Records one traced job; `middleRan` = the middle end ran (a
     *  cache hit replays its stats without running it). */
    void record(const effact::StatSet &st, const effact::MachineProgram &mp,
                const effact::SimReport &sim, bool middleRan);

    /** Appends the compile/sim layer values (span self times from
     *  `tracer`). */
    void reduce(const Tracer &tracer, LayerValues &values) const;
};

/**
 * One job through the staged public functions in place of
 * `Platform::run`, with a span around each: the workload builder, the
 * middle end (`Compiler::runMiddleEnd`, or `compileMiddle` against
 * `cache` when given), `runScheduler`, `runStreaming`,
 * `runRegAllocAndCodegen` and `Simulator::run`.
 */
JobOutputs runStagedJob(Tracer &tracer, int64_t op,
                        const std::string &program,
                        const effact::Platform &platform,
                        effact::CompileCache *cache,
                        CompileLayerSamples &layers);

} // namespace effbench

#endif // EFFBENCH_COMPILE_JOB_H
