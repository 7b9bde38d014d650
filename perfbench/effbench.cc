/**
 * @file
 * `effbench`: the repository benchmark program. Runs one named workload
 * for a fixed time from a seed and prints, as the last line of stdout,
 * one JSON object {correct, attempted, failed, metrics}. `--trace 0`
 * reports the end-to-end metrics; `--trace 1` is a separate traced run
 * that times each call into a layer and reports the per-layer metrics
 * (see NOTES.md). Usually launched through `run.py`, which builds it.
 *
 *   effbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--work-dir <dir>]
 */
#include "bench.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

#include "common/simd.h"

namespace effbench {

// --- Statistics ------------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan(""); // printed as null; the run already failed
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / double(v.size()));
}

uint64_t
digestMix(uint64_t h, uint64_t v)
{
    if (h == 0)
        h = 1469598103934665603ull;
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
digestMix(uint64_t h, double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return digestMix(h, bits);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

void
addEndToEnd(RunOutput &out, const std::vector<double> &opMs,
            double timedWallMs, const std::vector<double> &setupS,
            double simCyclesGeomean, double simDramGbGeomean)
{
    std::fprintf(stderr,
                 "[effbench] %zu timed ops in %.3f s; op_ms_p75 has %zu "
                 "samples above it; setup sampled %zu times\n",
                 opMs.size(), timedWallMs / 1e3, opMs.size() / 4,
                 setupS.size());
    out.add("op_ms_p50", quantile(opMs, 0.50), "ms");
    out.add("op_ms_p75", quantile(opMs, 0.75), "ms");
    out.add("ops_per_s", double(opMs.size()) / (timedWallMs / 1e3), "1/s");
    out.add("setup_s", median(setupS), "s");
    out.add("peak_rss_mb", peakRssMb(), "MiB");
    out.add("ok_frac",
            double(out.attempted - out.failed) / double(out.attempted),
            "ratio");
    out.add("sim_cycles_geomean", simCyclesGeomean, "cycles");
    out.add("sim_dram_gb_geomean", simDramGbGeomean, "GB");
}

std::vector<size_t>
shuffledRound(size_t n, uint64_t &rngState)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    // Fisher-Yates on a splitmix64 stream: the draw depends on the seed
    // alone, never on the library's own generators.
    for (size_t i = n; i > 1; --i) {
        uint64_t z = (rngState += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        std::swap(order[i - 1], order[z % i]);
    }
    return order;
}

// --- Tracer ----------------------------------------------------------------

Tracer::Tracer() : t0_(Clock::now()) {}

int
Tracer::begin(const std::string &name, int64_t op)
{
    Span s;
    s.name = name;
    s.op = op;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startUs = msSince(t0_) * 1e3;
    spans_.push_back(std::move(s));
    open_.push_back(int(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int id)
{
    spans_[size_t(id)].endUs = msSince(t0_) * 1e3;
    // Strict nesting: the span being closed is the innermost open one.
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

std::vector<double>
Tracer::selfUs() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endUs - spans_[i].startUs;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[size_t(s.parent)] -= s.endUs - s.startUs;
    return self;
}

std::vector<double>
Tracer::selfMsPerOp(const std::string &name) const
{
    const std::vector<double> self = selfUs();
    std::map<int64_t, double> per_op;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name)
            per_op[spans_[i].op] += self[i] / 1e3;
    std::vector<double> out;
    for (const auto &[op, ms] : per_op)
        out.push_back(ms);
    return out;
}

std::vector<std::pair<std::string, double>>
Tracer::selfMsByName() const
{
    const std::vector<double> self = selfUs();
    std::map<std::string, double> by_name;
    for (size_t i = 0; i < spans_.size(); ++i)
        by_name[spans_[i].name] += self[i] / 1e3;
    return {by_name.begin(), by_name.end()};
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                      "\"parent\":%d,\"op\":%" PRId64 "}}",
                      i == 0 ? "" : ",\n", s.name.c_str(), s.startUs,
                      s.endUs - s.startUs, i, s.parent, s.op);
        f << buf;
    }
    f << "]}\n";
    return bool(f);
}

// --- Per-layer metrics -----------------------------------------------------

std::optional<double>
meanOf(const std::vector<double> &v)
{
    if (v.empty())
        return std::nullopt;
    double sum = 0;
    for (double x : v)
        sum += x;
    return sum / double(v.size());
}

void
addLayerMetrics(RunOutput &out, const LayerValues &values)
{
    // Name and unit of every per-layer metric, in BENCHMARK.json order.
    static const char *const kLayers[][2] = {
        {"ir.build_ms", "ms"},
        {"ir.insts", "count"},
        {"compiler.middle_ms", "ms"},
        {"compiler.pass.copyprop_ms", "ms"},
        {"compiler.pass.constprop_ms", "ms"},
        {"compiler.pass.pre_ms", "ms"},
        {"compiler.pass.peephole_ms", "ms"},
        {"compiler.pass.rotalg_ms", "ms"},
        {"compiler.sweeps", "count"},
        {"compiler.useful_run_frac", "ratio"},
        {"compiler.optimized_insts", "count"},
        {"compiler.sched_ms", "ms"},
        {"compiler.stream_ms", "ms"},
        {"compiler.regalloc_ms", "ms"},
        {"compiler.mach_insts", "count"},
        {"compiler.spill_loads", "count"},
        {"compiler.spill_stores", "count"},
        {"compiler.fifo_forwards", "count"},
        {"cache.lookups", "count"},
        {"cache.hit_frac", "ratio"},
        {"cache.bytes", "bytes"},
        {"sim.run_ms", "ms"},
        {"sim.insts_per_s", "1/s"},
        {"sim.cycles", "cycles"},
        {"sim.dram_gb", "GB"},
        {"sim.ntt_util", "ratio"},
        {"sim.muladd_util", "ratio"},
        {"sim.auto_util", "ratio"},
        {"sim.dram_util", "ratio"},
        {"runtime.queue_ms", "ms"},
        {"runtime.worker_busy_frac", "ratio"},
        {"service.overhead_ms", "ms"},
        {"service.codec_us", "us"},
        {"service.rejected", "count"},
        {"service.bad_requests", "count"},
        {"service.error_frames", "count"},
        {"ckks.mult_ms", "ms"},
        {"ckks.rotate_ms", "ms"},
        {"ckks.rescale_ms", "ms"},
        {"ckks.keyswitch_ms", "ms"},
        {"math.ntt_fwd_us", "us"},
        {"math.ntt_inv_us", "us"},
        {"math.bconv_us", "us"},
        {"math.modmul_us", "us"},
        {"math.automorphism_us", "us"},
        {"trace.overhead_ms", "ms"},
    };
    for (const auto &[name, unit] : kLayers) {
        std::optional<double> value = 0.0;
        for (const auto &[key, v] : values)
            if (key == name)
                value = v;
        out.add(name, value, unit);
    }
    for (const auto &[key, v] : values) {
        bool known = false;
        for (const auto &layer : kLayers)
            known = known || key == layer[0];
        if (!known)
            std::fprintf(stderr, "effbench: unlisted layer metric %s\n",
                         key.c_str());
    }
}

// --- Output ----------------------------------------------------------------

namespace {

std::string
jsonNumber(std::optional<double> v)
{
    if (!v || !std::isfinite(*v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", *v);
    return buf;
}

} // namespace

std::string
environmentLine()
{
    const char *commit = std::getenv("EFFBENCH_COMMIT");
    std::ostringstream os;
    os << "nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
       << " simd=" << effact::simdTierName(effact::activeSimdTier())
       << " build=" << EFFBENCH_BUILD_TYPE
       << " commit=" << (commit != nullptr ? commit : "unknown");
    return os.str();
}

bool
writeLayerFile(const std::string &path, const Args &args,
               const RunOutput &out, const Tracer &tracer)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\n  \"workload\": \"" << args.workload << "\",\n  \"seed\": "
      << args.seed << ",\n  \"environment\": \"" << environmentLine()
      << "\",\n  \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i)
        f << (i == 0 ? "\n" : ",\n") << "    \"" << out.metrics[i].name
          << "\": {\"value\": " << jsonNumber(out.metrics[i].value)
          << ", \"unit\": \"" << out.metrics[i].unit << "\"}";
    f << "\n  },\n  \"self_ms_by_span\": {";
    const auto by_name = tracer.selfMsByName();
    for (size_t i = 0; i < by_name.size(); ++i)
        f << (i == 0 ? "\n" : ",\n") << "    \"" << by_name[i].first
          << "\": " << jsonNumber(by_name[i].second);
    f << "\n  },\n  \"spans\": " << tracer.spans().size() << "\n}\n";
    return bool(f);
}

} // namespace effbench

using namespace effbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "effbench: %s\nusage: effbench --workload "
                 "cold-compile|service-sweep|ckks-keyswitch --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            args.workload = val;
        else if (key == "--seed")
            args.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::atof(val);
        else if (key == "--trace")
            args.trace = std::atoi(val) != 0;
        else if (key == "--work-dir")
            args.workDir = val;
        else
            return usage(("unknown argument " + key).c_str());
    }
    if (argc % 2 == 0)
        return usage("arguments come in --key value pairs");
    if (!(args.seconds > 0 && args.seconds <= 120))
        return usage("--seconds must be in (0, 120]");

    // Pinned environment: these knobs change what a run measures, so a
    // run that inherits them is refused rather than silently skewed.
    for (const char *knob : {"EFFACT_VERIFY", "EFFACT_JOB_THREADS"})
        if (std::getenv(knob) != nullptr) {
            std::fprintf(stderr,
                         "effbench: refusing to measure with %s set\n",
                         knob);
            return 3;
        }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    std::fprintf(stderr, "effbench: refusing to measure a build that is "
                         "not optimized (need -O and NDEBUG)\n");
    return 3;
#endif
    std::fprintf(stderr, "[effbench] workload=%s seed=%" PRIu64
                         " seconds=%g trace=%d %s\n",
                 args.workload.c_str(), args.seed, args.seconds,
                 int(args.trace), environmentLine().c_str());

    Tracer tracer;
    RunOutput out;
    if (args.workload == "cold-compile")
        out = runColdCompile(args, tracer);
    else if (args.workload == "service-sweep")
        out = runServiceSweep(args, tracer);
    else if (args.workload == "ckks-keyswitch")
        out = runCkksKeyswitch(args, tracer);
    else
        return usage(("unknown workload " + args.workload).c_str());

    std::fprintf(stderr, "[effbench] output digest %016" PRIx64 "\n",
                 out.outputDigest);
    if (args.trace) {
        const std::string stem = args.workDir + "/" + args.workload +
                                 "-seed" + std::to_string(args.seed);
        if (!tracer.writeChromeTrace(stem + ".trace.json") ||
            !writeLayerFile(stem + ".layers.json", args, out, tracer))
            std::fprintf(stderr, "effbench: could not write %s.*\n",
                         stem.c_str());
        else
            std::fprintf(stderr, "[effbench] wrote %s.{trace,layers}.json\n",
                         stem.c_str());
    }

    std::string metrics;
    for (const Metric &m : out.metrics) {
        if (!m.value)
            std::fprintf(stderr, "[effbench] %s: missing\n", m.name.c_str());
        metrics += (metrics.empty() ? "\"" : ", \"") + m.name +
                   "\": {\"value\": " +
                   jsonNumber(m.value ? m.value : std::optional<double>(0)) +
                   ", \"unit\": \"" + m.unit + "\"}";
    }
    const bool correct = out.failed == 0 && out.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
                correct ? "true" : "false", out.attempted, out.failed,
                metrics.c_str());
    return 0;
}
