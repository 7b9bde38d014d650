#include "ckks/evaluator.h"

#include <cmath>

#include "common/logging.h"
#include "math/automorphism.h"
#include "math/kernels.h"

namespace effact {

namespace {

/** Pointwise product a ⊙ b into a fresh Eval polynomial. */
RnsPoly
mulEval(const RnsPoly &a, const RnsPoly &b)
{
    EFFACT_ASSERT(a.format() == PolyFormat::Eval &&
                      b.format() == PolyFormat::Eval &&
                      a.limbCount() == b.limbCount(),
                  "mulEval operand mismatch");
    RnsPoly out(a.basisPtr(), PolyFormat::Eval);
    const kernels::KernelTable &k = kernels::active();
    for (size_t j = 0; j < a.limbCount(); ++j)
        k.mulModV(out.limb(j).data(), a.limb(j).data(), b.limb(j).data(),
                  a.degree(), a.basis().limb(j).barrett);
    return out;
}

} // namespace

CkksEvaluator::CkksEvaluator(const CkksContext &ctx,
                             const CkksEncoder &encoder,
                             const SwitchingKey *relin_key,
                             const GaloisKeys *galois_keys)
    : ctx_(ctx), encoder_(encoder), relin_key_(relin_key),
      galois_keys_(galois_keys)
{
}

void
CkksEvaluator::checkAddCompatible(const Ciphertext &a,
                                  const Ciphertext &b) const
{
    EFFACT_ASSERT(a.level() == b.level(),
                  "level mismatch in add: %zu vs %zu (use levelTo)",
                  a.level(), b.level());
    double rel = std::fabs(a.scale - b.scale) / a.scale;
    if (rel > 1e-4) {
        warn("adding ciphertexts with mismatched scales (rel err %.3g)",
             rel);
    }
}

Ciphertext
CkksEvaluator::add(const Ciphertext &a, const Ciphertext &b) const
{
    const Ciphertext *pa = &a;
    const Ciphertext *pb = &b;
    Ciphertext tmp;
    if (a.level() != b.level()) {
        if (a.level() > b.level()) {
            tmp = levelTo(a, b.level());
            pa = &tmp;
        } else {
            tmp = levelTo(b, a.level());
            pb = &tmp;
        }
    }
    checkAddCompatible(*pa, *pb);
    Ciphertext out = *pa;
    const size_t common = std::min(pa->size(), pb->size());
    for (size_t i = 0; i < common; ++i)
        out.polys[i].addInPlace(pb->polys[i]);
    for (size_t i = common; i < pb->size(); ++i)
        out.polys.push_back(pb->polys[i]);
    return out;
}

Ciphertext
CkksEvaluator::sub(const Ciphertext &a, const Ciphertext &b) const
{
    return add(a, negate(b));
}

Ciphertext
CkksEvaluator::negate(const Ciphertext &ct) const
{
    Ciphertext out = ct;
    for (auto &p : out.polys)
        p.negInPlace();
    return out;
}

Ciphertext
CkksEvaluator::addPlain(const Ciphertext &ct, const Plaintext &pt) const
{
    EFFACT_ASSERT(pt.poly.limbCount() == ct.level(),
                  "plaintext level mismatch in addPlain");
    double rel = std::fabs(ct.scale - pt.scale) / ct.scale;
    if (rel > 1e-4)
        warn("addPlain scale mismatch (rel err %.3g)", rel);
    Ciphertext out = ct;
    out.polys[0].addInPlace(pt.poly);
    return out;
}

Ciphertext
CkksEvaluator::addConst(const Ciphertext &ct, cplx value) const
{
    Plaintext pt = encoder_.encodeConstant(value, ct.scale, ct.level());
    return addPlain(ct, pt);
}

Ciphertext
CkksEvaluator::multPlain(const Ciphertext &ct, const Plaintext &pt) const
{
    EFFACT_ASSERT(pt.poly.limbCount() == ct.level(),
                  "plaintext level mismatch in multPlain");
    EFFACT_ASSERT(pt.poly.format() == PolyFormat::Eval,
                  "multPlain expects Eval-format plaintext");
    Ciphertext out = ct;
    for (auto &p : out.polys)
        p.mulEvalInPlace(pt.poly);
    out.scale = ct.scale * pt.scale;
    return out;
}

Ciphertext
CkksEvaluator::multConst(const Ciphertext &ct, cplx value,
                         double const_scale) const
{
    Plaintext pt = encoder_.encodeConstant(value, const_scale, ct.level());
    return multPlain(ct, pt);
}

Ciphertext
CkksEvaluator::mult(const Ciphertext &a, const Ciphertext &b) const
{
    EFFACT_ASSERT(relin_key_ != nullptr, "mult requires a relin key");
    EFFACT_ASSERT(a.size() == 2 && b.size() == 2,
                  "mult expects relinearized inputs");
    const Ciphertext *pa = &a;
    const Ciphertext *pb = &b;
    Ciphertext tmp;
    if (a.level() != b.level()) {
        if (a.level() > b.level()) {
            tmp = levelTo(a, b.level());
            pa = &tmp;
        } else {
            tmp = levelTo(b, a.level());
            pb = &tmp;
        }
    }

    // (d0, d1, d2) = (a0 b0, a0 b1 + a1 b0, a1 b1).
    RnsPoly d0 = mulEval(pa->polys[0], pb->polys[0]);
    RnsPoly d1 = mulEval(pa->polys[0], pb->polys[1]);
    d1.addInPlace(mulEval(pa->polys[1], pb->polys[0]));
    RnsPoly d2 = mulEval(pa->polys[1], pb->polys[1]);

    auto [k0, k1] = keySwitch(d2, *relin_key_);
    d0.addInPlace(k0);
    d1.addInPlace(k1);

    Ciphertext out;
    out.scale = pa->scale * pb->scale;
    out.polys.push_back(std::move(d0));
    out.polys.push_back(std::move(d1));
    return out;
}

Ciphertext
CkksEvaluator::square(const Ciphertext &ct) const
{
    return mult(ct, ct);
}

Ciphertext
CkksEvaluator::rescale(const Ciphertext &ct) const
{
    const size_t level = ct.level();
    EFFACT_ASSERT(level >= 2, "cannot rescale at level %zu", level);
    const RnsBasis &q = *ctx_.qBasis();
    const LimbContext &last_ctx = q.limb(level - 1);
    const std::vector<u64> &q_last_inv = ctx_.qLastInvModQ(level);
    const size_t n = ctx_.degree();
    const kernels::KernelTable &k = kernels::active();

    Ciphertext out;
    out.scale = ct.scale / static_cast<double>(last_ctx.q);
    for (const auto &poly : ct.polys) {
        EFFACT_ASSERT(poly.format() == PolyFormat::Eval,
                      "rescale expects Eval-format ciphertexts");
        // c_j <- (c_j - NTT_j([c_last] mod q_j)) * q_last^-1 in Eval form:
        // one iNTT of the dropped limb plus one NTT per kept limb.
        RnsPoly::LimbVec last = poly.limb(level - 1);
        last_ctx.ntt.backward(last.data());
        RnsPoly dropped(ctx_.qBasisAt(level - 1), PolyFormat::Eval);
        for (size_t j = 0; j + 1 < level; ++j) {
            const LimbContext &lc = q.limb(j);
            u64 *dst = dropped.limb(j).data();
            for (size_t i = 0; i < n; ++i)
                dst[i] = lc.barrett.reduce(last[i]);
            lc.ntt.forward(dst);
            k.subModV(dst, poly.limb(j).data(), dst, n, lc.q);
            k.mulConstV(dst, dst, n, q_last_inv[j], lc.barrett);
        }
        out.polys.push_back(std::move(dropped));
    }
    return out;
}

Ciphertext
CkksEvaluator::levelTo(const Ciphertext &ct, size_t target_level) const
{
    EFFACT_ASSERT(target_level >= 1 && target_level <= ct.level(),
                  "levelTo target %zu invalid from %zu", target_level,
                  ct.level());
    if (target_level == ct.level())
        return ct;
    Ciphertext out;
    out.scale = ct.scale;
    for (const auto &poly : ct.polys)
        out.polys.push_back(poly.prefixLimbs(target_level));
    return out;
}

Ciphertext
CkksEvaluator::rotate(const Ciphertext &ct, int steps) const
{
    if (steps == 0)
        return ct;
    return applyGalois(ct, galoisElt(steps, ctx_.degree()));
}

Ciphertext
CkksEvaluator::conjugate(const Ciphertext &ct) const
{
    return applyGalois(ct, galoisEltConjugate(ctx_.degree()));
}

Ciphertext
CkksEvaluator::applyGalois(const Ciphertext &ct, u64 t) const
{
    EFFACT_ASSERT(galois_keys_ != nullptr,
                  "rotate/conjugate requires Galois keys");
    auto it = galois_keys_->find(t);
    EFFACT_ASSERT(it != galois_keys_->end(),
                  "missing Galois key for element %llu",
                  static_cast<unsigned long long>(t));

    RnsPoly c0r = ct.polys[0].automorph(t);
    RnsPoly c1r = ct.polys[1].automorph(t);
    auto [k0, k1] = keySwitch(c1r, it->second);
    c0r.addInPlace(k0);

    Ciphertext out;
    out.scale = ct.scale;
    out.polys.push_back(std::move(c0r));
    out.polys.push_back(std::move(k1));
    return out;
}

RnsPoly
CkksEvaluator::modDown(RnsPoly q_part, RnsPoly p_part) const
{
    const size_t level = q_part.limbCount();
    p_part.toCoeff();
    RnsPoly conv = ctx_.modDownConverter(level).convertExact(p_part);
    conv.toEval();
    q_part.subInPlace(conv);

    std::vector<u64> p_inv(level);
    for (size_t j = 0; j < level; ++j)
        p_inv[j] = ctx_.pInvModQ(j);
    q_part.mulScalarPerLimb(p_inv);
    return q_part;
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keySwitch(const RnsPoly &d, const SwitchingKey &key) const
{
    const size_t level = d.limbCount();
    const size_t levels = ctx_.levels();
    const size_t alpha = ctx_.alpha();
    const size_t n = ctx_.degree();
    const kernels::KernelTable &k = kernels::active();

    // BConv reads d in Coeff form; each digit's own limbs enter the key
    // product in Eval form. Either way d is transformed once.
    const bool is_eval = d.format() == PolyFormat::Eval;
    RnsPoly other = d;
    if (is_eval)
        other.toCoeff();
    else
        other.toEval();
    const RnsPoly &d_coeff = is_eval ? other : d;
    const RnsPoly &d_eval = is_eval ? d : other;

    // The Q_l ∪ P accumulators, split so ModDown gathers nothing.
    RnsPoly acc0_q(ctx_.qBasisAt(level), PolyFormat::Eval);
    RnsPoly acc1_q(ctx_.qBasisAt(level), PolyFormat::Eval);
    RnsPoly acc0_p(ctx_.pBasis(), PolyFormat::Eval);
    RnsPoly acc1_p(ctx_.pBasis(), PolyFormat::Eval);
    RnsPoly::LimbVec prod(n);
    auto mulAdd = [&](RnsPoly::LimbVec &acc, const u64 *u, const u64 *kl,
                      const LimbContext &lc) {
        k.mulModV(prod.data(), u, kl, n, lc.barrett);
        k.addModV(acc.data(), acc.data(), prod.data(), n, lc.q);
    };

    const size_t digits = ctx_.digitCount(level);
    EFFACT_ASSERT(digits <= key.b.size(), "switching key has too few digits");
    for (size_t digit = 0; digit < digits; ++digit) {
        auto [begin, end] = ctx_.digitRange(digit, level);
        const size_t width = end - begin;
        std::vector<size_t> idx;
        for (size_t j = begin; j < end; ++j)
            idx.push_back(j);
        RnsPoly up = ctx_.modUpConverter(digit, level).convert(
            RnsPoly::gather(d_coeff, ctx_.qBasis()->range(begin, end), idx));
        up.toEval();

        // acc{0,1}[i] += x[i] * key.{b,a}[digit][i] over Q_l ∪ P, where
        // the raised digit x[i] is d's own Eval limb for i in
        // [begin, end) and converter output limb i (before the digit) or
        // i - width (after it). The key lives on the full Q ∪ P basis,
        // so its limb i sits at i (Q) or at L + i - l (P).
        const RnsPoly &kb = key.b[digit];
        const RnsPoly &ka = key.a[digit];
        for (size_t i = 0; i < level + alpha; ++i) {
            const u64 *u = i < begin ? up.limb(i).data()
                           : i < end ? d_eval.limb(i).data()
                                     : up.limb(i - width).data();
            const bool is_q = i < level;
            const size_t ki = is_q ? i : levels + (i - level);
            const LimbContext &lc = kb.basis().limb(ki);
            mulAdd(is_q ? acc0_q.limb(i) : acc0_p.limb(i - level), u,
                   kb.limb(ki).data(), lc);
            mulAdd(is_q ? acc1_q.limb(i) : acc1_p.limb(i - level), u,
                   ka.limb(ki).data(), lc);
        }
    }

    return {modDown(std::move(acc0_q), std::move(acc0_p)),
            modDown(std::move(acc1_q), std::move(acc1_p))};
}

} // namespace effact
