/**
 * @file
 * End-to-end CKKS correctness: encode/decode round trips, encryption,
 * HADD/HMULT/rescale, key switching, rotation and conjugation. This is
 * the repo's stand-in for the paper's Lattigo cross-validation — every
 * homomorphic result is checked against plaintext reference computation.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "math/automorphism.h"

namespace effact {
namespace {

CkksParams
testParams()
{
    CkksParams p;
    p.logN = 10;
    p.levels = 6;
    p.logScale = 40;
    p.logQ0 = 54;
    p.dnum = 3;
    p.hammingWeight = 32;
    return p;
}

std::vector<cplx>
randomMessage(Rng &rng, size_t slots, double mag = 1.0)
{
    std::vector<cplx> msg(slots);
    for (auto &v : msg)
        v = cplx((rng.uniformReal() * 2 - 1) * mag,
                 (rng.uniformReal() * 2 - 1) * mag);
    return msg;
}

double
maxErr(const std::vector<cplx> &a, const std::vector<cplx> &b)
{
    double err = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        err = std::max(err, std::abs(a[i] - b[i]));
    return err;
}

// --- Full-round-trip oracle -----------------------------------------
// Key switching and rescale as full-basis round trips: iNTT every limb,
// BConv each digit onto all of Q_l ∪ P, re-NTT, and ModDown / rescale
// in Coeff form. The evaluator skips the transforms whose result it
// already holds; NTT is a bijection mod q, so both must agree limb for
// limb.

std::shared_ptr<const RnsBasis>
qpBasisAt(const CkksContext &ctx, size_t level)
{
    return ctx.qBasisAt(level)->concat(*ctx.pBasis());
}

std::vector<size_t>
iota(size_t begin, size_t end)
{
    std::vector<size_t> idx;
    for (size_t j = begin; j < end; ++j)
        idx.push_back(j);
    return idx;
}

RnsPoly
oracleRestrictKey(const CkksContext &ctx, const RnsPoly &kp, size_t level)
{
    std::vector<size_t> idx = iota(0, level);
    for (size_t j = 0; j < ctx.alpha(); ++j)
        idx.push_back(ctx.levels() + j);
    return RnsPoly::gather(kp, qpBasisAt(ctx, level), idx);
}

RnsPoly
oracleModDown(const CkksContext &ctx, RnsPoly acc, size_t level)
{
    acc.toCoeff();
    RnsPoly q_part = RnsPoly::gather(acc, ctx.qBasisAt(level),
                                     iota(0, level));
    RnsPoly p_part = RnsPoly::gather(acc, ctx.pBasis(),
                                     iota(level, level + ctx.alpha()));
    q_part.subInPlace(ctx.modDownConverter(level).convertExact(p_part));
    std::vector<u64> p_inv(level);
    for (size_t j = 0; j < level; ++j)
        p_inv[j] = ctx.pInvModQ(j);
    q_part.mulScalarPerLimb(p_inv);
    q_part.toEval();
    return q_part;
}

std::pair<RnsPoly, RnsPoly>
oracleKeySwitch(const CkksContext &ctx, const RnsPoly &d,
                const SwitchingKey &key)
{
    const size_t level = d.limbCount();
    RnsPoly dc = d;
    dc.toCoeff();
    RnsPoly acc0(qpBasisAt(ctx, level), PolyFormat::Eval);
    RnsPoly acc1(qpBasisAt(ctx, level), PolyFormat::Eval);
    for (size_t digit = 0; digit < ctx.digitCount(level); ++digit) {
        auto [begin, end] = ctx.digitRange(digit, level);
        auto digit_basis = ctx.qBasis()->range(begin, end);
        BaseConverter full(digit_basis, qpBasisAt(ctx, level));
        RnsPoly up = full.convert(
            RnsPoly::gather(dc, digit_basis, iota(begin, end)));
        up.toEval();
        RnsPoly prod_b = up;
        prod_b.mulEvalInPlace(oracleRestrictKey(ctx, key.b[digit], level));
        acc0.addInPlace(prod_b);
        up.mulEvalInPlace(oracleRestrictKey(ctx, key.a[digit], level));
        acc1.addInPlace(up);
    }
    return {oracleModDown(ctx, std::move(acc0), level),
            oracleModDown(ctx, std::move(acc1), level)};
}

Ciphertext
oracleRescale(const CkksContext &ctx, const Ciphertext &ct)
{
    const size_t level = ct.level();
    const u64 q_last = ctx.qBasis()->prime(level - 1);
    Ciphertext out;
    out.scale = ct.scale / static_cast<double>(q_last);
    for (const auto &poly : ct.polys) {
        RnsPoly c = poly;
        c.toCoeff();
        RnsPoly dropped(ctx.qBasisAt(level - 1), PolyFormat::Coeff);
        const auto &last = c.limb(level - 1);
        for (size_t j = 0; j + 1 < level; ++j) {
            const u64 qj = ctx.qBasis()->prime(j);
            const u64 inv = invMod(q_last % qj, qj);
            for (size_t i = 0; i < last.size(); ++i)
                dropped.limb(j)[i] = mulMod(
                    subMod(c.limb(j)[i], last[i] % qj, qj), inv, qj);
        }
        dropped.toEval();
        out.polys.push_back(std::move(dropped));
    }
    return out;
}

/** HMULT of two same-level ciphertexts through the oracle key switch. */
Ciphertext
oracleMult(const CkksContext &ctx, const Ciphertext &a, const Ciphertext &b,
           const SwitchingKey &relin)
{
    auto product = [](const RnsPoly &x, const RnsPoly &y) {
        RnsPoly out = x;
        out.mulEvalInPlace(y);
        return out;
    };
    RnsPoly d0 = product(a.polys[0], b.polys[0]);
    RnsPoly d1 = product(a.polys[0], b.polys[1]);
    d1.addInPlace(product(a.polys[1], b.polys[0]));
    auto [k0, k1] = oracleKeySwitch(ctx, product(a.polys[1], b.polys[1]),
                                    relin);
    d0.addInPlace(k0);
    d1.addInPlace(k1);
    Ciphertext out;
    out.scale = a.scale * b.scale;
    out.polys.push_back(std::move(d0));
    out.polys.push_back(std::move(d1));
    return out;
}

/** sigma_t plus the oracle key switch (rotate / conjugate). */
Ciphertext
oracleGalois(const CkksContext &ctx, const Ciphertext &ct, u64 t,
             const SwitchingKey &key)
{
    RnsPoly c0r = ct.polys[0].automorph(t);
    auto [k0, k1] = oracleKeySwitch(ctx, ct.polys[1].automorph(t), key);
    c0r.addInPlace(k0);
    Ciphertext out;
    out.scale = ct.scale;
    out.polys.push_back(std::move(c0r));
    out.polys.push_back(std::move(k1));
    return out;
}

void
expectSamePoly(const RnsPoly &got, const RnsPoly &want,
               const std::string &what)
{
    ASSERT_EQ(got.format(), want.format()) << what;
    ASSERT_EQ(got.basis().primes(), want.basis().primes()) << what;
    for (size_t j = 0; j < got.limbCount(); ++j)
        ASSERT_TRUE(got.limb(j) == want.limb(j)) << what << " limb " << j;
}

void
expectSameCt(const Ciphertext &got, const Ciphertext &want,
             const std::string &what)
{
    EXPECT_EQ(got.scale, want.scale) << what;
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i)
        expectSamePoly(got.polys[i], want.polys[i],
                       what + " poly " + std::to_string(i));
}

/**
 * Key switch (Eval and Coeff input) and rescale of uniform random
 * operands at every level, against the oracle. Covers the levels where
 * the last digit is partial (level mod alpha != 0).
 */
void
expectOracleAtEveryLevel(const CkksContext &ctx, const CkksEvaluator &ev,
                         const SwitchingKey &key, Rng &rng)
{
    const std::string dnum = "dnum=" + std::to_string(ctx.params().dnum);
    for (size_t level = 1; level <= ctx.levels(); ++level) {
        const std::string at = dnum + " level=" + std::to_string(level);
        RnsPoly d(ctx.qBasisAt(level), PolyFormat::Eval);
        d.sampleUniform(rng);
        auto [k0, k1] = ev.keySwitch(d, key);
        auto [w0, w1] = oracleKeySwitch(ctx, d, key);
        expectSamePoly(k0, w0, at + " keySwitch k0");
        expectSamePoly(k1, w1, at + " keySwitch k1");

        RnsPoly dc = d;
        dc.toCoeff();
        auto [c0, c1] = ev.keySwitch(dc, key);
        expectSamePoly(c0, k0, at + " Coeff-input keySwitch k0");
        expectSamePoly(c1, k1, at + " Coeff-input keySwitch k1");

        if (level < 2)
            continue;
        Ciphertext ct;
        ct.scale = ctx.scale() * ctx.scale();
        for (int i = 0; i < 2; ++i) {
            ct.polys.emplace_back(ctx.qBasisAt(level), PolyFormat::Eval);
            ct.polys.back().sampleUniform(rng);
        }
        expectSameCt(ev.rescale(ct), oracleRescale(ctx, ct),
                     at + " rescale");
    }
}

class CkksFixture : public ::testing::Test
{
  protected:
    CkksFixture()
        : ctx(testParams()), encoder(ctx), rng(42), keygen(ctx, rng),
          sk(keygen.genSecretKey()), relin(keygen.genRelinKey(sk)),
          galois(keygen.genGaloisKeys(sk, {1, 2, 3, -1, 4}, true)),
          enc(ctx, sk, rng), eval(ctx, encoder, &relin, &galois)
    {}

    CkksContext ctx;
    CkksEncoder encoder;
    Rng rng;
    KeyGenerator keygen;
    SecretKey sk;
    SwitchingKey relin;
    GaloisKeys galois;
    CkksEncryptor enc;
    CkksEvaluator eval;
};

TEST_F(CkksFixture, EncodeDecodeRoundTrip)
{
    for (size_t slots : {size_t(1), size_t(8), ctx.slots()}) {
        auto msg = randomMessage(rng, slots);
        Plaintext pt = encoder.encode(msg, ctx.scale(), ctx.levels());
        auto out = encoder.decode(pt, slots);
        EXPECT_LT(maxErr(msg, out), 1e-7) << "slots=" << slots;
    }
}

TEST_F(CkksFixture, EncodeIsAdditive)
{
    auto a = randomMessage(rng, 16);
    auto b = randomMessage(rng, 16);
    Plaintext pa = encoder.encode(a, ctx.scale(), 2);
    Plaintext pb = encoder.encode(b, ctx.scale(), 2);
    pa.poly.addInPlace(pb.poly);
    auto out = encoder.decode(pa, 16);
    for (size_t i = 0; i < 16; ++i)
        EXPECT_LT(std::abs(out[i] - (a[i] + b[i])), 1e-6);
}

TEST_F(CkksFixture, EncryptDecryptRoundTrip)
{
    auto msg = randomMessage(rng, ctx.slots());
    Plaintext pt = encoder.encode(msg, ctx.scale(), ctx.levels());
    Ciphertext ct = enc.encrypt(pt);
    auto out = encoder.decode(enc.decrypt(ct), ctx.slots());
    EXPECT_LT(maxErr(msg, out), 1e-5);
}

TEST_F(CkksFixture, HomomorphicAddition)
{
    auto a = randomMessage(rng, 64);
    auto b = randomMessage(rng, 64);
    Ciphertext ca = enc.encrypt(encoder.encode(a, ctx.scale(), 4));
    Ciphertext cb = enc.encrypt(encoder.encode(b, ctx.scale(), 4));
    Ciphertext sum = eval.add(ca, cb);
    auto out = encoder.decode(enc.decrypt(sum), 64);
    for (size_t i = 0; i < 64; ++i)
        EXPECT_LT(std::abs(out[i] - (a[i] + b[i])), 1e-5);
}

TEST_F(CkksFixture, HomomorphicSubtractionAndNegate)
{
    auto a = randomMessage(rng, 32);
    auto b = randomMessage(rng, 32);
    Ciphertext ca = enc.encrypt(encoder.encode(a, ctx.scale(), 3));
    Ciphertext cb = enc.encrypt(encoder.encode(b, ctx.scale(), 3));
    auto out = encoder.decode(enc.decrypt(eval.sub(ca, cb)), 32);
    for (size_t i = 0; i < 32; ++i)
        EXPECT_LT(std::abs(out[i] - (a[i] - b[i])), 1e-5);
}

TEST_F(CkksFixture, AddPlainAndConst)
{
    auto a = randomMessage(rng, 16);
    Ciphertext ca = enc.encrypt(encoder.encode(a, ctx.scale(), 2));
    Ciphertext shifted = eval.addConst(ca, cplx(2.5, -1.0));
    auto out = encoder.decode(enc.decrypt(shifted), 16);
    for (size_t i = 0; i < 16; ++i)
        EXPECT_LT(std::abs(out[i] - (a[i] + cplx(2.5, -1.0))), 1e-5);
}

TEST_F(CkksFixture, MultPlainWithRescale)
{
    auto a = randomMessage(rng, 32);
    auto b = randomMessage(rng, 32);
    Ciphertext ca = enc.encrypt(encoder.encode(a, ctx.scale(), 3));
    Plaintext pb = encoder.encode(b, ctx.scale(), 3);
    Ciphertext prod = eval.rescale(eval.multPlain(ca, pb));
    auto out = encoder.decode(enc.decrypt(prod), 32);
    for (size_t i = 0; i < 32; ++i)
        EXPECT_LT(std::abs(out[i] - a[i] * b[i]), 1e-4);
}

TEST_F(CkksFixture, HomomorphicMultiplication)
{
    auto a = randomMessage(rng, ctx.slots());
    auto b = randomMessage(rng, ctx.slots());
    Ciphertext ca = enc.encrypt(encoder.encode(a, ctx.scale(),
                                               ctx.levels()));
    Ciphertext cb = enc.encrypt(encoder.encode(b, ctx.scale(),
                                               ctx.levels()));
    Ciphertext prod = eval.rescale(eval.mult(ca, cb));
    auto out = encoder.decode(enc.decrypt(prod), ctx.slots());
    double err = 0;
    for (size_t i = 0; i < ctx.slots(); ++i)
        err = std::max(err, std::abs(out[i] - a[i] * b[i]));
    EXPECT_LT(err, 1e-3);
}

TEST_F(CkksFixture, MultiplicationDepthChain)
{
    // Chain x -> x^2 -> x^4 -> x^8 through three rescales.
    std::vector<cplx> a(8);
    for (size_t i = 0; i < 8; ++i)
        a[i] = cplx(0.4 + 0.05 * double(i), 0.1);
    Ciphertext ct = enc.encrypt(encoder.encode(a, ctx.scale(),
                                               ctx.levels()));
    for (int d = 0; d < 3; ++d)
        ct = eval.rescale(eval.square(ct));
    auto out = encoder.decode(enc.decrypt(ct), 8);
    for (size_t i = 0; i < 8; ++i) {
        cplx expect = std::pow(a[i], 8.0);
        EXPECT_LT(std::abs(out[i] - expect), 1e-2) << "slot " << i;
    }
}

TEST_F(CkksFixture, RotationMatchesSlotShift)
{
    const size_t slots = ctx.slots();
    auto a = randomMessage(rng, slots);
    Ciphertext ct = enc.encrypt(encoder.encode(a, ctx.scale(), 3));
    for (int steps : {1, 2, 3}) {
        Ciphertext rot = eval.rotate(ct, steps);
        auto out = encoder.decode(enc.decrypt(rot), slots);
        for (size_t i = 0; i < slots; ++i) {
            cplx expect = a[(i + size_t(steps)) % slots];
            ASSERT_LT(std::abs(out[i] - expect), 1e-4)
                << "steps=" << steps << " slot=" << i;
        }
    }
}

TEST_F(CkksFixture, NegativeRotation)
{
    const size_t slots = ctx.slots();
    auto a = randomMessage(rng, slots);
    Ciphertext ct = enc.encrypt(encoder.encode(a, ctx.scale(), 3));
    Ciphertext rot = eval.rotate(ct, -1);
    auto out = encoder.decode(enc.decrypt(rot), slots);
    for (size_t i = 0; i < slots; ++i) {
        cplx expect = a[(i + slots - 1) % slots];
        ASSERT_LT(std::abs(out[i] - expect), 1e-4) << "slot " << i;
    }
}

TEST_F(CkksFixture, ConjugationConjugatesSlots)
{
    auto a = randomMessage(rng, 16);
    Ciphertext ct = enc.encrypt(encoder.encode(a, ctx.scale(), 3));
    Ciphertext conj = eval.conjugate(ct);
    auto out = encoder.decode(enc.decrypt(conj), 16);
    for (size_t i = 0; i < 16; ++i)
        EXPECT_LT(std::abs(out[i] - std::conj(a[i])), 1e-4);
}

TEST_F(CkksFixture, RescaleTracksScale)
{
    auto a = randomMessage(rng, 8);
    Ciphertext ct = enc.encrypt(encoder.encode(a, ctx.scale(), 4));
    Ciphertext prod = eval.mult(ct, ct);
    EXPECT_NEAR(prod.scale, ctx.scale() * ctx.scale(),
                1e-3 * prod.scale);
    Ciphertext scaled = eval.rescale(prod);
    EXPECT_EQ(scaled.level(), 3u);
    EXPECT_NEAR(scaled.scale, ctx.scale(), 1e-3 * ctx.scale());
}

TEST_F(CkksFixture, LevelToPreservesMessage)
{
    auto a = randomMessage(rng, 8);
    Ciphertext ct = enc.encrypt(encoder.encode(a, ctx.scale(),
                                               ctx.levels()));
    Ciphertext low = eval.levelTo(ct, 2);
    EXPECT_EQ(low.level(), 2u);
    auto out = encoder.decode(enc.decrypt(low), 8);
    EXPECT_LT(maxErr(a, out), 1e-4);
}

TEST_F(CkksFixture, KeySwitchAndRescaleMatchOracleAtEveryLevel)
{
    expectOracleAtEveryLevel(ctx, eval, relin, rng);
}

TEST_F(CkksFixture, MultRotateConjugateMatchOracle)
{
    auto a = randomMessage(rng, ctx.slots());
    auto b = randomMessage(rng, ctx.slots());
    for (size_t level : {ctx.levels(), size_t(3)}) {
        const std::string at = "level=" + std::to_string(level);
        Ciphertext ca = enc.encrypt(encoder.encode(a, ctx.scale(), level));
        Ciphertext cb = enc.encrypt(encoder.encode(b, ctx.scale(), level));
        Ciphertext prod = eval.mult(ca, cb);
        Ciphertext want = oracleMult(ctx, ca, cb, relin);
        expectSameCt(prod, want, at + " mult");
        expectSameCt(eval.rescale(prod), oracleRescale(ctx, want),
                     at + " mult+rescale");
        for (int steps : {1, 2, 3, -1, 4}) {
            const u64 t = galoisElt(steps, ctx.degree());
            expectSameCt(eval.rotate(ca, steps),
                         oracleGalois(ctx, ca, t, galois.at(t)),
                         at + " rotate " + std::to_string(steps));
        }
        const u64 t = galoisEltConjugate(ctx.degree());
        expectSameCt(eval.conjugate(ca),
                     oracleGalois(ctx, ca, t, galois.at(t)),
                     at + " conjugate");
    }
}

TEST_F(CkksFixture, DifferentDnumValuesAgree)
{
    // The dnum decomposition must not change results, only noise.
    for (size_t dnum : {1u, 2u, 6u}) {
        CkksParams p = testParams();
        p.dnum = dnum;
        CkksContext ctx2(p);
        CkksEncoder enc2(ctx2);
        Rng rng2(7);
        KeyGenerator kg2(ctx2, rng2);
        SecretKey sk2 = kg2.genSecretKey();
        SwitchingKey rk2 = kg2.genRelinKey(sk2);
        CkksEncryptor cenc2(ctx2, sk2, rng2);
        CkksEvaluator ev2(ctx2, enc2, &rk2);

        auto a = randomMessage(rng2, 16);
        auto b = randomMessage(rng2, 16);
        Ciphertext ca = cenc2.encrypt(enc2.encode(a, ctx2.scale(), 4));
        Ciphertext cb = cenc2.encrypt(enc2.encode(b, ctx2.scale(), 4));
        auto out = enc2.decode(cenc2.decrypt(ev2.rescale(ev2.mult(ca,
                                                                  cb))),
                               16);
        for (size_t i = 0; i < 16; ++i)
            EXPECT_LT(std::abs(out[i] - a[i] * b[i]), 1e-3)
                << "dnum=" << dnum;

        expectSameCt(ev2.mult(ca, cb), oracleMult(ctx2, ca, cb, rk2),
                     "dnum=" + std::to_string(dnum) + " mult");
        expectOracleAtEveryLevel(ctx2, ev2, rk2, rng2);
    }
}

} // namespace
} // namespace effact
