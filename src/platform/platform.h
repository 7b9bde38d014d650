/**
 * @file
 * The EFFACT platform facade: compile a workload with the EFFACT
 * compiler backend, execute it on the cycle-level simulator, and
 * report benchmark-level results. Ablation presets reproduce the
 * incremental design points of Fig. 11.
 */
#ifndef EFFACT_PLATFORM_PLATFORM_H
#define EFFACT_PLATFORM_PLATFORM_H

#include "compiler/pass.h"
#include "ir/workloads.h"
#include "sim/machine.h"

namespace effact {

class AnalysisManager; // compiler/pass_manager.h
class CompileCache;    // compiler/compile_cache.h

/** Benchmark-level result. */
struct PlatformResult
{
    SimReport sim;            ///< one program instance
    StatSet compilerStats;
    /**
     * Per-stage wall-clock of this job (`job.middle.ms`,
     * `job.backend.ms`, `job.sim.ms`, and `job.fingerprint.ms` from
     * `assemble`; the batch engine adds `job.ir.ms` for workload
     * construction, 0 when its recipe memo skipped the build). Host
     * timings, not simulated ones — the one result family that is
     * *not* deterministic; `SweepEngine` aggregates it so perf lanes
     * can see where a job's latency goes.
     */
    StatSet jobStats;
    double benchTimeMs = 0;   ///< program time x workload repeat factor
    double amortizedUs = 0;   ///< per-slot amortized time (bootstrapping)
    double dramGb = 0;        ///< DRAM traffic of the full benchmark
    /** `fingerprint()` of the compiled machine code: equal fingerprints
     *  mean codegen emitted identical instruction streams, which is how
     *  batch runs prove thread-count independence. */
    uint64_t machineFingerprint = 0;
};

/** Compile-and-simulate driver. */
class Platform
{
  public:
    Platform(HardwareConfig hw, CompilerOptions copts);

    /** Runs a workload end-to-end (mutates its IR through the passes) */
    PlatformResult run(Workload &workload) const;

    /**
     * Same, compiling against a caller-owned `AnalysisManager` (see
     * `Compiler::compile`). Not safe to share one manager between
     * concurrently running jobs.
     */
    PlatformResult run(Workload &workload, AnalysisManager &analyses) const;

    /**
     * Same, additionally consulting a shared `CompileCache` (may be
     * null = uncached): the hardware-independent middle end of the
     * compile is reused across every `Platform` that shares the cache,
     * so a hardware sweep optimizes each (workload, preset) once. Hits
     * are byte-identical to uncached compiles (see `Compiler::compile`).
     */
    PlatformResult run(Workload &workload, AnalysisManager &analyses,
                       CompileCache *cache) const;

    // --- Staged pieces -------------------------------------------------
    // `run` is exactly `Compiler::compileMiddle` + `runBack`, and
    // `runBack` is `Compiler::compileBack` + `simulate` + `assemble`. A
    // driver that gets its middle end elsewhere (the batch engine's
    // recipe memo) calls the pieces itself; the result is identical.

    /** A compiler configured for this platform (hardware-adjusted
     *  options: `sramBytes`, `issueWindow`). */
    Compiler makeCompiler() const { return Compiler(copts_); }

    /**
     * The back half of `run`: the back end over `prog`, which `compiler`
     * has already optimized or adopted as a cached snapshot (see
     * `Compiler::adoptSnapshot`), then simulation and assembly, timed as
     * `job.backend.ms` and `job.sim.ms`. `prog` is only read, so it may
     * be a snapshot shared with concurrent jobs.
     */
    PlatformResult runBack(Compiler &compiler, const IrProgram &prog,
                           const WorkloadInfo &info,
                           AnalysisManager &analyses) const;

    /** Simulates a compiled program on this platform's hardware. */
    SimReport simulate(const MachineProgram &mp) const;

    /** Assembles the benchmark-level result from the staged pieces. */
    PlatformResult assemble(const Compiler &compiler,
                            const MachineProgram &mp,
                            const WorkloadInfo &info, SimReport sim) const;

    const HardwareConfig &hardware() const { return hw_; }
    const CompilerOptions &compilerOptions() const { return copts_; }

    // --- Fig. 11 ablation presets ---------------------------------------

    /** Resource-constrained baseline: no compiler or hardware opts. */
    static CompilerOptions baselineOptions(size_t sram_bytes);

    /** + MAD-style caching (on-chip reuse) without global scheduling. */
    static CompilerOptions madEnhancedOptions(size_t sram_bytes);

    /** + EFFACT global scheduling and streaming memory access. */
    static CompilerOptions streamingOptions(size_t sram_bytes);

    /** Full EFFACT (adds the circuit-level NTT reuse on the hw side). */
    static CompilerOptions fullOptions(size_t sram_bytes);

    /**
     * Full EFFACT plus the PR 10 pass-zoo additions: the rotation-chain
     * algebraic rewrite in the pipeline, the priority spill policy, and
     * the `ResourceModel`-weighted list scheduler. A separate preset —
     * the four Fig. 11 factories above stay byte-for-byte what the
     * paper ablates (and what the perf-lane fingerprints pin).
     */
    static CompilerOptions optimizedOptions(size_t sram_bytes);

  private:
    HardwareConfig hw_;
    CompilerOptions copts_;
};

} // namespace effact

#endif // EFFACT_PLATFORM_PLATFORM_H
