/**
 * @file
 * `ckks-keyswitch`: functional CKKS on the host math kernels. One caller
 * runs a seeded stream of keyswitch-bearing ops at logN 14, L 16,
 * dnum 4 — `mult`+`rescale` and `rotate` by power-of-two steps. NTT,
 * BConv, modmul and automorphism do the work; the compiler does none.
 * Every result is decrypted and checked against plaintext arithmetic.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "bench.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "math/automorphism.h"
#include "platform/platform.h"

using namespace effact;

namespace effbench {

namespace {

constexpr size_t kLogN = 14;
constexpr size_t kLevels = 16;
constexpr size_t kDnum = 4;
/**
 * Op kinds of one round: 16 `mult`+`rescale` over pairs of the inputs,
 * then one `rotate` per step 1, 2, 4, ..., 128. Rotations are the
 * quicker op; at two mults per rotation the median and the 75th
 * percentile both fall inside the mult cluster rather than in the gap
 * between the two clusters.
 */
constexpr size_t kMults = 16;
constexpr int kRotations = 8;
constexpr size_t kInputs = 4;
constexpr size_t kKinds = kMults + kRotations;
constexpr size_t kMinOps = 40;
constexpr int kSetupRepeats = 5;
constexpr int kMathRepeats = 15;
/** Largest tolerated |decrypted - expected| over all slots, for inputs
 *  drawn from the unit square at a 2^40 scale. */
constexpr double kErrorBound = 1e-5;

CkksParams
ckksParams()
{
    CkksParams p;
    p.logN = kLogN;
    p.levels = kLevels;
    p.dnum = kDnum;
    p.logScale = 40;
    return p;
}

int
rotationStep(size_t kind)
{
    return 1 << (kind - kMults);
}

bool
isMult(size_t kind)
{
    return kind < kMults;
}

/** The two inputs of an op kind (a rotation uses the first). */
std::pair<size_t, size_t>
inputsOf(size_t kind)
{
    return {kind % kInputs, (kind + 1 + kind / kInputs) % kInputs};
}

/** Context, keys and evaluator: the workload's set-up. Members refer to
 *  each other, so the state is pinned in place. */
struct CkksState
{
    explicit CkksState(uint64_t seed)
        : ctx(ckksParams()), encoder(ctx), rng(seed), keygen(ctx, rng),
          sk(keygen.genSecretKey()), relin(keygen.genRelinKey(sk)),
          galois(keygen.genGaloisKeys(sk, steps())), encryptor(ctx, sk, rng),
          eval(ctx, encoder, &relin, &galois)
    {
    }
    CkksState(const CkksState &) = delete;
    CkksState &operator=(const CkksState &) = delete;

    static std::vector<int>
    steps()
    {
        std::vector<int> s;
        for (int k = 0; k < kRotations; ++k)
            s.push_back(1 << k);
        return s;
    }

    CkksContext ctx;
    CkksEncoder encoder;
    Rng rng;
    KeyGenerator keygen;
    SecretKey sk;
    SwitchingKey relin;
    GaloisKeys galois;
    CkksEncryptor encryptor;
    CkksEvaluator eval;
};

struct KindSim
{
    double cycles = 0;
    double dramBytes = 0;
};

/** Simulated accelerator cycles and HBM bytes of each op kind, compiled
 *  from the IR form of the same op at the same parameters. */
std::vector<KindSim>
simulateKinds()
{
    FheParams fhe;
    fhe.logN = kLogN;
    fhe.levels = kLevels;
    fhe.dnum = kDnum;
    const HardwareConfig hw = HardwareConfig::asicEffact27();
    CompilerOptions copts = Platform::fullOptions(hw.sramBytes);
    copts.verifyLevel = 0;
    const Platform platform(hw, copts);
    std::vector<KindSim> out;
    for (size_t kind = 0; kind < kKinds; ++kind) {
        if (isMult(kind) && kind > 0) {
            out.push_back(out.front()); // every pairing is the same program
            continue;
        }
        Workload w;
        w.fhe = fhe;
        KernelBuilder kb(w.program, fhe);
        IrCt x = kb.inputCiphertext("x", kLevels);
        if (isMult(kind)) {
            IrCt y = kb.inputCiphertext("y", kLevels);
            kb.output("xy", kb.rescale(kb.hmult(
                                x, y, kb.switchingKeyObject("relin"))));
        } else {
            const int step = rotationStep(kind);
            kb.output("rot", kb.rotate(x, galoisElt(step, fhe.degree()),
                                       kb.switchingKeyObject("gk")));
        }
        const PlatformResult r = platform.run(w);
        out.push_back({r.sim.cycles, r.sim.dramBytes});
    }
    return out;
}

/** Digest of every residue of a ciphertext (and its scale). */
uint64_t
ciphertextDigest(const Ciphertext &ct)
{
    uint64_t h = digestMix(uint64_t(0), ct.scale);
    for (const RnsPoly &p : ct.polys)
        for (size_t l = 0; l < p.limbCount(); ++l)
            for (u64 x : p.limb(l))
                h = digestMix(h, uint64_t(x));
    return h;
}

/** Median wall per call (us) of `fn` over `kMathRepeats` calls. */
template <typename Fn>
double
medianCallUs(Tracer &tracer, const char *span, Fn &&fn)
{
    std::vector<double> us;
    for (int r = 0; r < kMathRepeats; ++r) {
        Scope s(tracer, span, -1);
        const Clock::time_point t0 = Clock::now();
        fn();
        us.push_back(msSince(t0) * 1e3);
    }
    return median(us);
}

} // namespace

RunOutput
runCkksKeyswitch(const Args &args, Tracer &tracer)
{
    RunOutput out;
    uint64_t rng = args.seed;

    // Set-up: context, secret key, relinearization and Galois keys.
    // Repeated from the same seed; the median is kept.
    std::vector<double> setup_s;
    std::unique_ptr<CkksState> st;
    for (int r = 0; r < kSetupRepeats; ++r) {
        st.reset();
        const Clock::time_point t0 = Clock::now();
        st = std::make_unique<CkksState>(args.seed);
        setup_s.push_back(msSince(t0) / 1e3);
    }
    const size_t slots = st->ctx.slots();

    // Seeded inputs: complex slots in the unit square.
    std::vector<std::vector<cplx>> msgs(kInputs);
    std::vector<Ciphertext> cts;
    Rng input_rng(args.seed ^ 0x5eed5eedull);
    for (auto &m : msgs) {
        m.resize(slots);
        for (cplx &v : m)
            v = cplx(2 * input_rng.uniformReal() - 1,
                     2 * input_rng.uniformReal() - 1);
        cts.push_back(st->encryptor.encrypt(
            st->encoder.encode(m, st->ctx.scale(), kLevels)));
    }

    std::vector<double> op_ms, traced_ms, mult_ms, rotate_ms;
    std::map<size_t, uint64_t> first_digest;
    std::set<size_t> bad_kinds; // decrypt error over the bound
    std::map<size_t, uint64_t> ops_of;
    double timed_ms = 0;
    double max_err = 0;
    int64_t op = 0;

    auto runOp = [&](size_t kind, bool traced) {
        const auto [ia, ib] = inputsOf(kind);
        const Ciphertext &a = cts[ia];
        const Ciphertext &b = cts[ib];
        const Clock::time_point t0 = Clock::now();
        Ciphertext res;
        {
            std::optional<Scope> op_span;
            if (traced)
                op_span.emplace(tracer, "op", op);
            if (isMult(kind)) {
                Ciphertext prod;
                {
                    std::optional<Scope> s;
                    if (traced)
                        s.emplace(tracer, "ckks.mult", op);
                    prod = st->eval.mult(a, b);
                }
                std::optional<Scope> s;
                if (traced)
                    s.emplace(tracer, "ckks.rescale", op);
                res = st->eval.rescale(prod);
            } else {
                std::optional<Scope> s;
                if (traced)
                    s.emplace(tracer, "ckks.rotate", op);
                res = st->eval.rotate(a, rotationStep(kind));
            }
        }
        const double ms = msSince(t0);
        ++ops_of[kind];
        (traced ? traced_ms : op_ms).push_back(ms);
        if (!traced)
            (isMult(kind) ? mult_ms : rotate_ms).push_back(ms);
        timed_ms += ms;
        ++op;

        // Check, outside the timed window. The ops are deterministic, so
        // the first result of a kind is decrypted and checked against
        // plaintext arithmetic, and every repeat must be bit-identical.
        ++out.attempted;
        const uint64_t digest = ciphertextDigest(res);
        const auto [it, fresh] = first_digest.emplace(kind, digest);
        if (!fresh) {
            if (it->second != digest) {
                ++out.failed;
                std::fprintf(stderr, "[ckks-keyswitch] op kind %zu: result "
                                     "changed between repeats\n",
                             kind);
            }
            return;
        }
        const std::vector<cplx> got =
            st->encoder.decode(st->encryptor.decrypt(res), slots);
        const std::vector<cplx> &ma = msgs[ia];
        const std::vector<cplx> &mb = msgs[ib];
        double err = 0;
        for (size_t j = 0; j < slots; ++j) {
            const cplx want =
                isMult(kind) ? ma[j] * mb[j]
                             : ma[(j + size_t(rotationStep(kind))) % slots];
            err = std::max(err, std::abs(got[j] - want));
        }
        max_err = std::max(max_err, err);
        if (!(err <= kErrorBound)) {
            bad_kinds.insert(kind);
            std::fprintf(stderr, "[ckks-keyswitch] op kind %zu: error %.3g "
                                 "over the bound %.3g\n",
                         kind, err, kErrorBound);
        }
    };

    // Whole rounds until the time is up; a traced run measures one
    // untraced round as its overhead baseline, then traces.
    while (timed_ms < args.seconds * 1e3 || op_ms.size() < kMinOps) {
        for (size_t kind : shuffledRound(kKinds, rng))
            runOp(kind, false);
        if (args.trace)
            break;
    }
    LayerValues values;
    if (args.trace) {
        while (timed_ms < args.seconds * 1e3 || traced_ms.empty())
            for (size_t kind : shuffledRound(kKinds, rng))
                runOp(kind, true);
        for (const char *span : {"ckks.mult", "ckks.rotate", "ckks.rescale"})
            values.push_back({std::string(span) + "_ms",
                              meanOf(tracer.selfMsPerOp(span))});
        values.push_back({"trace.overhead_ms",
                          median(traced_ms) - median(op_ms)});

        // Direct calls at the workload's N and limb count (L = 16).
        const RnsPoly &d = cts[0].polys[1];
        values.push_back({"ckks.keyswitch_ms",
                          medianCallUs(tracer, "ckks.keyswitch", [&] {
                              st->eval.keySwitch(d, st->relin);
                          }) / 1e3});
        RnsPoly coeff(st->ctx.qBasis(), PolyFormat::Coeff);
        coeff.sampleUniform(st->rng);
        RnsPoly eval_poly = coeff;
        eval_poly.toEval();
        values.push_back({"math.ntt_fwd_us",
                          medianCallUs(tracer, "math.ntt_fwd", [&] {
                              RnsPoly p = coeff;
                              p.toEval();
                          })});
        values.push_back({"math.ntt_inv_us",
                          medianCallUs(tracer, "math.ntt_inv", [&] {
                              RnsPoly p = eval_poly;
                              p.toCoeff();
                          })});
        RnsPoly p_part(st->ctx.pBasis(), PolyFormat::Coeff);
        p_part.sampleUniform(st->rng);
        values.push_back({"math.bconv_us",
                          medianCallUs(tracer, "math.bconv", [&] {
                              st->ctx.modDownConverter(kLevels).convert(
                                  p_part);
                          })});
        values.push_back({"math.modmul_us",
                          medianCallUs(tracer, "math.modmul", [&] {
                              RnsPoly p = eval_poly;
                              p.mulEvalInPlace(eval_poly);
                          })});
        const u64 t = galoisElt(1, st->ctx.degree());
        values.push_back({"math.automorphism_us",
                          medianCallUs(tracer, "math.automorphism", [&] {
                              eval_poly.automorph(t);
                          })});
    }
    for (size_t kind : bad_kinds)
        out.failed += ops_of[kind]; // every repeat has the same result
    for (const auto &[kind, digest] : first_digest)
        out.outputDigest = digestMix(out.outputDigest, digest);
    std::fprintf(stderr,
                 "[ckks-keyswitch] mult+rescale median %.2f ms over %zu ops, "
                 "rotate median %.2f ms over %zu ops; max decrypt error "
                 "%.3g (bound %.3g)\n",
                 median(mult_ms), mult_ms.size(), median(rotate_ms),
                 rotate_ms.size(), max_err, kErrorBound);

    if (args.trace) {
        addLayerMetrics(out, values);
    } else {
        // The same op stream as modelled accelerator work: every kind
        // appears equally often, so the geomean over kinds is the
        // geomean over ops.
        std::vector<double> cycles, dram_gb;
        for (const KindSim &s : simulateKinds()) {
            cycles.push_back(s.cycles);
            dram_gb.push_back(s.dramBytes / 1e9);
        }
        addEndToEnd(out, op_ms, timed_ms, setup_s, geomean(cycles),
                    geomean(dram_gb));
    }
    return out;
}

} // namespace effbench
