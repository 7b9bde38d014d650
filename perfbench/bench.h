/**
 * @file
 * Shared pieces of the `effbench` program: command-line arguments, the
 * result a workload hands back, timing/statistics helpers, and the span
 * recorder behind the traced run. Everything here lives in the
 * benchmark; the library under test is only called through its public
 * headers.
 */
#ifndef EFFBENCH_BENCH_H
#define EFFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace effbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

inline double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir = "."; ///< trace files and the daemon socket
};

/** One reported metric. `value` empty = the library did not record the
 *  layer's counter: `null` in the layer file and flagged on stderr. */
struct Metric
{
    std::string name;
    std::optional<double> value;
    std::string unit;
};

/** What a workload run hands back to `main`. */
struct RunOutput
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Digest of the deterministic outputs of each distinct op
     *  (fingerprints and cycles, or result ciphertexts); equal for the
     *  traced and the untraced run of one seed. */
    uint64_t outputDigest = 0;

    void
    add(const std::string &name, std::optional<double> value,
        const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** Linear-interpolated quantile (q in [0, 1]); NaN for an empty sample. */
double quantile(std::vector<double> v, double q);

double median(const std::vector<double> &v);

/** Geometric mean of positive values (0 for an empty sample). */
double geomean(const std::vector<double> &v);

/** 64-bit FNV-1a mixing of one value into a running digest. */
uint64_t digestMix(uint64_t h, uint64_t v);
uint64_t digestMix(uint64_t h, double v);

/** Peak resident set of this process in MiB (`getrusage`). */
double peakRssMb();

/**
 * Appends the end-to-end metrics every workload reports: per-op latency
 * percentiles over `opMs`, throughput over the timed wall, the median
 * of the set-up samples, peak RSS, the ok fraction and the simulated
 * geomeans. Logs the sample count to stderr.
 */
void addEndToEnd(RunOutput &out, const std::vector<double> &opMs,
                 double timedWallMs, const std::vector<double> &setupS,
                 double simCyclesGeomean, double simDramGbGeomean);

/** The ops of one round: a seeded shuffle of `0..n-1`. Each round holds
 *  every combination once, so any number of whole rounds draws the same
 *  mix and only the order depends on the seed. */
std::vector<size_t> shuffledRound(size_t n, uint64_t &rngState);

// --- Tracing ---------------------------------------------------------------

/**
 * In-memory span recorder for the traced run. Spans nest strictly (one
 * thread records, every span ends before its parent), so a span's self
 * time is its duration minus its direct children's durations.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0;
        double endUs = 0;
        int parent = -1;
        int64_t op = -1; ///< op id the span belongs to (-1 = none)
    };

    Tracer();

    /** Opens a span under the innermost open one; returns its id. */
    int begin(const std::string &name, int64_t op);
    void end(int id);

    /** Self time (ms) of every span named `name`, summed per op; one
     *  entry per op that has such a span, in op order. */
    std::vector<double> selfMsPerOp(const std::string &name) const;

    /** Total self time (ms) per span name, over the whole run. */
    std::vector<std::pair<std::string, double>> selfMsByName() const;

    /** Writes the spans in Chrome trace-event JSON (opens in Perfetto
     *  or chrome://tracing). */
    bool writeChromeTrace(const std::string &path) const;

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<double> selfUs() const;

    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, int64_t op)
        : t_(t), id_(t.begin(name, op))
    {
    }
    ~Scope() { t_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/**
 * Writes the per-layer file of a traced run: every metric (missing
 * counters as `null`), the self time per span name, the tracing
 * overhead and the environment record.
 */
bool writeLayerFile(const std::string &path, const Args &args,
                    const RunOutput &out, const Tracer &tracer);

/** One-line environment record (nproc, SIMD tier, build type, commit). */
std::string environmentLine();

// --- Per-layer metrics -----------------------------------------------------

/**
 * Measured per-layer values of one traced run, keyed by metric name. An
 * entry holding no value is a counter the library did not record
 * (reported as missing); a name with no entry is a layer the workload
 * does not exercise, reported as 0.
 */
using LayerValues = std::vector<std::pair<std::string, std::optional<double>>>;

/** Appends every per-layer metric of BENCHMARK.json, in its order. */
void addLayerMetrics(RunOutput &out, const LayerValues &values);

/** Mean of a sample, or no value when the sample is empty. */
std::optional<double> meanOf(const std::vector<double> &v);

// --- Workloads -------------------------------------------------------------

RunOutput runColdCompile(const Args &args, Tracer &tracer);
RunOutput runServiceSweep(const Args &args, Tracer &tracer);
RunOutput runCkksKeyswitch(const Args &args, Tracer &tracer);

} // namespace effbench

#endif // EFFBENCH_BENCH_H
