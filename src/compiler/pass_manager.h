/**
 * @file
 * Pass-manager layer of the compiler backend (Sec. IV-B): a registry
 * table of the SSA optimizations, an `AnalysisManager` that
 * caches derived analyses (alias-dependence edges, the IR-level
 * `sched::DepGraph`) keyed on `IrProgram::version()`, and a
 * `PassManager` that runs a declarative pipeline to a bounded fixed
 * point instead of one hardcoded sweep.
 *
 * Pipelines are named by spec strings (`"copyprop,constprop,pre,
 * peephole"`). `CompilerOptions::pipeline` is the only encoding of the
 * middle end: the Fig. 11 ablation presets, the daemon protocol and the
 * benches all name it as a spec, and `""` is the unoptimized baseline.
 */
#ifndef EFFACT_COMPILER_PASS_MANAGER_H
#define EFFACT_COMPILER_PASS_MANAGER_H

#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "compiler/pass.h"
#include "ir/ir.h"
#include "sched/depgraph.h"

namespace effact {

/**
 * Caches analyses derived from an `IrProgram`, keyed on the program's
 * mutation counter: a request at an unchanged `version()` returns the
 * cached result, a request after any mutation rebuilds. Build and hit
 * counts are recorded in the caller's stats (`analysis.aliasBuilds`,
 * `analysis.depgraphBuilds`, `analysis.cacheHits`), which is how tests
 * pin "the DepGraph is built at most once per compile".
 */
class AnalysisManager
{
  public:
    /** Alias-dependence (memory ordering) edges from `runAliasAnalysis`. */
    const std::vector<std::pair<int, int>> &
    aliasEdges(const IrProgram &prog, StatSet &stats);

    /** IR-level dependence graph: SSA true edges + the alias edges
     *  (built through, and cached by, `aliasEdges`). */
    const DepGraph &depGraph(const IrProgram &prog, StatSet &stats);

  private:
    static constexpr uint64_t kNoVersion = ~uint64_t(0);

    // Keys are (IrProgram::uid, version): version counters of two
    // independently built programs can collide and addresses can be
    // reused by successive stack-locals, so the process-unique program
    // id matters when one manager serves a re-compilation sweep.
    uint64_t aliasUid_ = kNoVersion;
    uint64_t aliasVersion_ = kNoVersion;
    std::vector<std::pair<int, int>> aliasEdges_;
    uint64_t graphUid_ = kNoVersion;
    uint64_t graphVersion_ = kNoVersion;
    DepGraph graph_;
};

/**
 * One registered optimization pass: its spec token and the function
 * that runs it, returning its rewrite count (0 = the IR is unchanged;
 * the `PassManager` bumps `prog.version()` exactly when it is not, so
 * cached analyses stay sound without being dropped needlessly).
 *
 * Contract: one call reaches the pass's own fixed point — re-running
 * immediately, with no intervening IR change, finds nothing (every
 * stock pass iterates forward through resolved operands, so a single
 * call is transitive). The manager relies on this to skip a pass whose
 * input version is unchanged since its last run.
 */
struct PassInfo
{
    const char *name;
    size_t (*run)(IrProgram &prog, StatSet &stats);
};

/**
 * Runs an ordered pipeline of passes to a bounded fixed point: the
 * sequence repeats until one full sweep reports no change (converged)
 * or `kMaxSweeps` sweeps have run. Per-pass wall-clock and
 * instruction-delta statistics are recorded under namespaced keys
 * (`pass.<name>.ms`, `pass.<name>.removed`, `pass.<name>.changed`),
 * plus `pipeline.iterations` / `pipeline.converged` for the loop.
 */
class PassManager
{
  public:
    /**
     * Fixed-point sweep bound: a guard against non-monotone pass bugs,
     * set generously. Rewrite chains (e.g. stacked single-use scale
     * multiplies folding one link per sweep) legitimately take many
     * sweeps, and quiescent sweeps cost almost nothing under the
     * version-skip. `Compiler::runMiddleEnd` panics if a pipeline has
     * not converged within it.
     */
    static constexpr size_t kMaxSweeps = 64;

    PassManager() = default;

    /**
     * Builds a pipeline from a spec string: comma-separated pass names,
     * whitespace around names ignored, empty spec = empty pipeline.
     * Unknown names are a user error (`fatal`); use `parsePipelineSpec`
     * first when the spec comes from untrusted input.
     */
    static PassManager fromSpec(const std::string &spec);

    size_t passCount() const { return passes_.size(); }

    /** Round-trips the pipeline back to its spec string. */
    std::string spec() const;

    /**
     * When > 0, the IR verifier runs after every pass that reported a
     * change and the manager panics (naming the pass and the violated
     * invariant) on the first malformed program. Checkpoint cost is
     * recorded under `verify.checks` / `verify.ms`.
     */
    void setVerifyLevel(int level) { verifyLevel_ = level; }

    /**
     * Runs the pipeline on `prog` to a fixed point; returns the number
     * of sweeps executed. `converged()` reports whether the last sweep
     * was change-free (always true for an empty pipeline).
     */
    size_t run(IrProgram &prog, AnalysisManager &analyses, StatSet &stats);

    bool converged() const { return converged_; }

  private:
    std::vector<const PassInfo *> passes_; ///< rows of the registry
    int verifyLevel_ = 0;
    bool converged_ = true;
};

/** Registry names in canonical pipeline order (`"copyprop"`,
 *  `"constprop"`, `"pre"`, `"peephole"`, `"rotalg"`). */
const std::vector<std::string> &knownPassNames();

/**
 * Parses a pipeline spec into pass names. Returns false on an unknown
 * or empty element and, when `error` is non-null, stores a message
 * naming the offending token; `names` then holds the tokens parsed so
 * far. A valid empty spec yields an empty name list.
 */
bool parsePipelineSpec(const std::string &spec,
                       std::vector<std::string> *names,
                       std::string *error = nullptr);

} // namespace effact

#endif // EFFACT_COMPILER_PASS_MANAGER_H
