/**
 * @file
 * `service-sweep`: the design-space-exploration path through the
 * compile-and-simulate daemon. An in-process `ServiceServer` on a
 * temporary AF_UNIX socket (2 sweep workers, unbounded compile cache)
 * serves one `ServiceClient` that sends batches of 8 requests, flushes
 * and waits — a closed loop with one client. Requests are a seeded draw
 * over {bootstrap, helr, resnet20, dblookup, tfhe} x {full, optimized} x
 * SRAM {8, 13, 27, 54} MB; the cache is primed with one request per
 * (program, preset) during set-up, so timed requests skip the middle
 * end and the IR build, back end, simulator, cache clone, sweep pool
 * and protocol do the work.
 */
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include <unistd.h>

#include "compile_job.h"
#include "compiler/pass_manager.h"
#include "service/service.h"

using namespace effact;

namespace effbench {

namespace {

constexpr const char *kPrograms[] = {"bootstrap", "helr", "resnet20",
                                     "dblookup", "tfhe"};
constexpr const char *kPresets[] = {"full", "optimized"};
constexpr size_t kSramMb[] = {8, 13, 27, 54};
constexpr size_t kNumCombos = 5 * 2 * 4;
constexpr size_t kBatch = 8; // divides kNumCombos: rounds are whole batches
constexpr size_t kMinOps = 40;
constexpr int kSetupRepeats = 5;
constexpr size_t kOracleChecks = 4; // seeded subset rerun on the oracle

struct Combo
{
    const char *program;
    const char *preset;
    size_t sramMb;
};

Combo
comboAt(size_t i)
{
    return {kPrograms[i / 8], kPresets[(i / 4) % 2], kSramMb[i % 4]};
}

ServiceRequest
makeRequest(size_t combo, uint64_t tag)
{
    const Combo c = comboAt(combo);
    ServiceRequest req;
    req.tag = tag;
    req.name = std::string(c.program) + "/" + c.preset + "/sram" +
               std::to_string(c.sramMb);
    req.workload = c.program;
    req.fhe = paperFhe();
    req.hw = HardwareConfig::asicEffact27();
    req.hw.sramBytes = c.sramMb << 20;
    req.copts = presetOptions(c.preset, req.hw.sramBytes);
    req.verifyLevel = 0;
    return req;
}

/** Every knob the workload depends on, set explicitly. */
ServiceOptions
pinnedOptions()
{
    ServiceOptions o;
    o.threads = 2;
    o.queueCapacity = 64;
    o.batchSize = kBatch;
    o.cacheBytes = 0; // unbounded
    o.useCache = true;
    o.verifyLevel = 0;
    return o;
}

/** Comparison bytes of a result: `canonicalResult` with the per-request
 *  sequence number and tag cleared, so repeats of one request compare
 *  equal. */
std::vector<uint8_t>
comparableBytes(ServiceResult res)
{
    res.seq = 0;
    res.tag = 0;
    return canonicalResultBytes(res);
}

/**
 * Primes `cache` like the daemon's set-up, one compile per (program,
 * preset), and returns the bytes of the snapshots it then holds. An
 * unbounded cache does not account its bytes, so they are summed here
 * with the library's own `snapshotBytes`.
 */
std::optional<double>
primeCache(CompileCache &cache)
{
    double bytes = 0;
    for (size_t combo = 0; combo < kNumCombos; combo += 4) {
        const ServiceRequest req = makeRequest(combo, 0);
        Compiler compiler = Platform(req.hw, req.copts).makeCompiler();
        Workload w = buildProgram(req.workload);
        const CompileCacheKey key =
            middleEndCacheKey(w.program, compiler.options());
        AnalysisManager analyses;
        compiler.compileMiddle(w.program, analyses, &cache);
        bool hit = false;
        const auto snap = cache.getOrBuild(
            key, [] { return MiddleEndSnapshot(); }, &hit);
        if (!hit)
            return std::nullopt;
        bytes += double(snapshotBytes(*snap));
    }
    return bytes;
}

/** A running daemon plus its connected client. */
struct Daemon
{
    std::unique_ptr<ServiceServer> server;
    std::thread thread;
    ServiceClient client;

    bool
    start(const std::string &socketPath, std::string *error)
    {
        ServiceServerOptions so;
        so.socketPath = socketPath;
        so.service = pinnedOptions();
        server = std::make_unique<ServiceServer>(so);
        if (!server->start(error))
            return false;
        thread = std::thread([this] { server->run(); });
        return client.connect(socketPath, error);
    }

    /** Sends `Shutdown` and joins the server thread. */
    void
    stop()
    {
        if (!thread.joinable())
            return;
        std::vector<ServiceResult> ignored;
        std::string error;
        if (!client.shutdownServer(&ignored, &error))
            server->stop();
        thread.join();
    }

    ~Daemon() { stop(); }
};

} // namespace

RunOutput
runServiceSweep(const Args &args, Tracer &tracer)
{
    RunOutput out;
    uint64_t rng = args.seed;
    const std::string socket_path = args.workDir + "/effbench-" +
                                    std::to_string(::getpid()) + ".sock";

    // Set-up: daemon start, connect, and cache priming with one request
    // per (program, preset). Repeated on fresh daemons; the median is
    // kept and the last daemon serves the timed phase.
    std::vector<double> setup_s;
    std::unique_ptr<Daemon> daemon;
    for (int r = 0; r < kSetupRepeats; ++r) {
        daemon.reset();
        const Clock::time_point t0 = Clock::now();
        daemon = std::make_unique<Daemon>();
        std::string error;
        if (!daemon->start(socket_path, &error)) {
            std::fprintf(stderr, "[service-sweep] daemon start: %s\n",
                         error.c_str());
            out.attempted = out.failed = 1;
            return out;
        }
        bool ok = true;
        for (size_t combo = 0; combo < kNumCombos; combo += 4)
            ok = daemon->client.sendRequest(makeRequest(combo, combo),
                                            &error) &&
                 ok;
        std::vector<ServiceResult> primed;
        ok = ok && daemon->client.flush(&primed, &error);
        setup_s.push_back(msSince(t0) / 1e3);
        ok = ok && primed.size() == kNumCombos / 4;
        for (const ServiceResult &res : primed)
            ok = ok && res.status == ServiceStatus::Ok;
        if (!ok) {
            std::fprintf(stderr, "[service-sweep] priming failed: %s\n",
                         error.c_str());
            out.attempted = out.failed = 1;
            return out;
        }
    }

    std::map<size_t, std::vector<uint8_t>> first; // canonical bytes
    std::map<size_t, ServiceResult> first_result;
    std::map<size_t, uint64_t> ops_of;
    std::vector<double> op_ms, traced_op_ms, cycles, dram_gb;
    std::vector<ServiceResult> traced_results;
    std::vector<ServiceRequest> traced_requests;
    std::vector<double> traced_roundtrip_ms;
    std::vector<double> batch_exec_ms;
    double timed_ms = 0;
    double error_frames = 0;
    bool broken = false; // a failed flush leaves the connection unusable
    uint64_t tag = 0;
    int64_t batch_id = 0;

    // One closed-loop batch: send 8 requests, flush, wait. Latency of a
    // request runs from its send to the receipt of the flushed results.
    auto runBatch = [&](const std::vector<size_t> &combos, bool traced) {
        std::vector<ServiceRequest> reqs;
        for (size_t combo : combos)
            reqs.push_back(makeRequest(combo, tag++));
        std::vector<Clock::time_point> sent;
        std::vector<ServiceResult> results;
        std::string error;
        bool ok = true;
        const Clock::time_point t0 = Clock::now();
        {
            std::optional<Scope> batch;
            if (traced)
                batch.emplace(tracer, "service.batch", batch_id);
            for (const ServiceRequest &req : reqs) {
                std::optional<Scope> s;
                if (traced)
                    s.emplace(tracer, "service.send", batch_id);
                sent.push_back(Clock::now());
                ok = daemon->client.sendRequest(req, &error) && ok;
            }
            std::optional<Scope> s;
            if (traced)
                s.emplace(tracer, "service.flush", batch_id);
            ok = ok && daemon->client.flush(&results, &error);
        }
        const Clock::time_point t1 = Clock::now();
        ++batch_id;
        timed_ms += msBetween(t0, t1);

        // Checks, outside the timed window.
        out.attempted += combos.size();
        if (!ok || results.size() != combos.size()) {
            std::fprintf(stderr, "[service-sweep] batch failed: %s\n",
                         error.c_str());
            error_frames += 1;
            out.failed += combos.size();
            broken = true;
            return;
        }
        std::map<uint64_t, size_t> slot_of;
        for (size_t k = 0; k < reqs.size(); ++k)
            slot_of[reqs[k].tag] = k;
        for (const ServiceResult &res : results) {
            const auto slot = slot_of.find(res.tag);
            if (slot == slot_of.end()) {
                ++out.failed;
                std::fprintf(stderr, "[service-sweep] result for unknown "
                                     "tag %llu\n",
                             static_cast<unsigned long long>(res.tag));
                continue;
            }
            const size_t k = slot->second;
            const size_t combo = combos[k];
            const double rt = msBetween(sent[k], t1);
            (traced ? traced_op_ms : op_ms).push_back(rt);
            ++ops_of[combo];
            if (res.status != ServiceStatus::Ok) {
                ++out.failed;
                std::fprintf(stderr, "[service-sweep] %s: %s %s\n",
                             reqs[k].name.c_str(),
                             serviceStatusName(res.status),
                             res.error.c_str());
                continue;
            }
            const std::vector<uint8_t> bytes = comparableBytes(res);
            const auto [it, fresh] = first.emplace(combo, bytes);
            if (fresh)
                first_result.emplace(combo, res);
            else if (it->second != bytes) {
                ++out.failed;
                std::fprintf(stderr,
                             "[service-sweep] %s: result changed between "
                             "repeats\n",
                             reqs[k].name.c_str());
            }
            cycles.push_back(res.cycles);
            dram_gb.push_back(res.dramBytes / 1e9);
            if (traced) {
                traced_results.push_back(res);
                traced_requests.push_back(reqs[k]);
                traced_roundtrip_ms.push_back(rt);
            }
        }
        batch_exec_ms.push_back(results[0].serviceMs - results[0].queueMs);
    };

    auto runRound = [&](bool traced) {
        const std::vector<size_t> order = shuffledRound(kNumCombos, rng);
        for (size_t b = 0; b < kNumCombos && !broken; b += kBatch)
            runBatch({order.begin() + b, order.begin() + b + kBatch},
                     traced);
    };

    // Whole rounds until the time is up; a traced run measures one
    // untraced round as its overhead baseline, then traces.
    while ((timed_ms < args.seconds * 1e3 || op_ms.size() < kMinOps) &&
           !broken) {
        runRound(false);
        if (args.trace)
            break;
    }
    LayerValues values;
    if (args.trace) {
        batch_exec_ms.clear();
        while ((timed_ms < args.seconds * 1e3 || traced_op_ms.empty()) &&
               !broken)
            runRound(true);

        double busy = 0;
        double overhead = 0;
        double queue = 0;
        for (size_t i = 0; i < traced_results.size(); ++i) {
            const ServiceResult &res = traced_results[i];
            for (const char *stage : {"job.ir.ms", "job.middle.ms",
                                      "job.backend.ms", "job.sim.ms"})
                busy += res.stats.get(stage);
            overhead += traced_roundtrip_ms[i] - res.serviceMs;
            queue += res.queueMs;
        }
        double exec = 0;
        for (double ms : batch_exec_ms)
            exec += ms;
        const double n = double(traced_results.size());
        values.push_back({"runtime.queue_ms", queue / n});
        values.push_back({"runtime.worker_busy_frac",
                          busy / (double(pinnedOptions().threads) * exec)});
        values.push_back({"service.overhead_ms", overhead / n});

        // Codec cost of the same frames: request and result, encode and
        // decode, per request.
        const Clock::time_point c0 = Clock::now();
        size_t decoded = 0;
        for (size_t i = 0; i < traced_results.size(); ++i) {
            ServiceRequest req_back;
            ServiceResult res_back;
            std::string error;
            decoded += decodeRequest(encodeRequest(traced_requests[i]),
                                     &req_back, &error);
            decoded += decodeResult(encodeResult(traced_results[i]),
                                    &res_back, &error);
        }
        values.push_back({"service.codec_us", msSince(c0) * 1e3 / n});
        if (decoded != 2 * traced_results.size())
            ++out.failed;
        values.push_back({"service.error_frames", error_frames});
        values.push_back({"trace.overhead_ms",
                          median(traced_op_ms) - median(op_ms)});

        // The compile and simulator layers of a seeded batch of the same
        // requests, through the staged functions against a warm
        // in-process cache: the work the daemon's workers run inside
        // `Platform::run`. Each must reproduce the daemon's result.
        CompileCache cache;
        values.push_back({"cache.bytes", primeCache(cache)});
        CompileLayerSamples layers;
        const std::vector<size_t> pick = shuffledRound(kNumCombos, rng);
        for (size_t i = 0; i < kBatch; ++i) {
            const ServiceRequest req = makeRequest(pick[i], 0);
            const Platform platform(req.hw, req.copts);
            const JobOutputs o = runStagedJob(tracer, batch_id + int64_t(i),
                                              req.workload, platform, &cache,
                                              layers);
            const auto it = first_result.find(pick[i]);
            if (it != first_result.end() &&
                (it->second.machineFingerprint != o.fingerprint ||
                 it->second.cycles != o.cycles)) {
                ++out.failed;
                std::fprintf(stderr,
                             "[service-sweep] %s: staged job differs from "
                             "the daemon's\n",
                             req.name.c_str());
            }
        }
        layers.reduce(tracer, values);
    }
    daemon->stop();

    // Oracle check on a seeded subset: the serial, uncached core must
    // return the same canonical bytes.
    {
        ServiceCore oracle(oracleOptions(pinnedOptions()));
        const std::vector<size_t> pick = shuffledRound(kNumCombos, rng);
        size_t checked = 0;
        for (size_t combo : pick) {
            if (checked == kOracleChecks)
                break;
            if (first.count(combo) == 0)
                continue;
            ++checked;
            oracle.submit(makeRequest(combo, 0));
            const std::vector<ServiceResult> res = oracle.flush();
            if (res.size() != 1 ||
                comparableBytes(res[0]) != first.at(combo)) {
                out.failed += ops_of[combo];
                std::fprintf(stderr,
                             "[service-sweep] %s differs from the oracle\n",
                             makeRequest(combo, 0).name.c_str());
            }
        }
    }
    for (const auto &[combo, res] : first_result) {
        out.outputDigest = digestMix(out.outputDigest,
                                     res.machineFingerprint);
        out.outputDigest = digestMix(out.outputDigest, res.cycles);
    }

    out.failed = std::min(out.failed, out.attempted);
    if (args.trace) {
        const StatSet stats = daemon->server->core().statsSnapshot();
        const double lookups = stats.get("cache.lookups");
        values.push_back({"cache.lookups", lookups});
        values.push_back({"cache.hit_frac",
                          lookups > 0 ? stats.get("cache.hits") / lookups
                                      : 0.0});
        values.push_back({"service.rejected", stats.get("service.rejected")});
        values.push_back({"service.bad_requests",
                          stats.get("service.bad_requests")});
        addLayerMetrics(out, values);
    } else {
        addEndToEnd(out, op_ms, timed_ms, setup_s, geomean(cycles),
                    geomean(dram_gb));
    }
    return out;
}

} // namespace effbench
