/**
 * @file
 * CKKS homomorphic evaluator: HADD/HMULT/HROT (Fig. 1b level 2),
 * rescale, and dnum-digit key switching with ModUp/ModDown (Sec. II-C).
 *
 * Key switching and rescale run the dataflow `KernelBuilder` emits
 * (src/ir/kernels.cc): limbs stay in Eval form and a transform runs
 * only where BConv needs coefficients. At level l with alpha special
 * primes, a key switch of an Eval-format input costs l iNTTs (ModUp
 * input), l + alpha - |digit| NTTs per digit (ModUp output) and
 * alpha + l transforms per ModDown; a rescale costs 1 + (l - 1)
 * transforms per polynomial. ModDown and rescale match the IR's counts;
 * ModUp reuses each digit's own limbs where the IR re-NTTs them. At
 * l = 16, alpha = 4: 120 transforms per key switch (IR: 136) and 32
 * per rescale.
 */
#ifndef EFFACT_CKKS_EVALUATOR_H
#define EFFACT_CKKS_EVALUATOR_H

#include "ckks/encoder.h"
#include "ckks/keys.h"

namespace effact {

/** Evaluator bound to a context plus optional relin/Galois keys. */
class CkksEvaluator
{
  public:
    CkksEvaluator(const CkksContext &ctx, const CkksEncoder &encoder,
                  const SwitchingKey *relin_key = nullptr,
                  const GaloisKeys *galois_keys = nullptr);

    // --- Arithmetic -----------------------------------------------------

    /** Homomorphic addition (levels are aligned automatically). */
    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;

    /** Homomorphic subtraction. */
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;

    /** ct + encoded plaintext (same level; scale must match). */
    Ciphertext addPlain(const Ciphertext &ct, const Plaintext &pt) const;

    /** ct + constant in every slot (encoded at ct's scale). */
    Ciphertext addConst(const Ciphertext &ct, cplx value) const;

    /** ct * encoded plaintext; scale multiplies; no rescale. */
    Ciphertext multPlain(const Ciphertext &ct, const Plaintext &pt) const;

    /** ct * constant; the constant is encoded at `const_scale`. */
    Ciphertext multConst(const Ciphertext &ct, cplx value,
                         double const_scale) const;

    /** Negation. */
    Ciphertext negate(const Ciphertext &ct) const;

    /** HMULT with relinearization; scale multiplies; no rescale. */
    Ciphertext mult(const Ciphertext &a, const Ciphertext &b) const;

    /** Square with relinearization. */
    Ciphertext square(const Ciphertext &ct) const;

    // --- Maintenance (Fig. 1b level 1.5) --------------------------------

    /**
     * Divides by the last chain prime; drops one level. Per polynomial
     * only the dropped limb is iNTT'd; its reduction mod each kept
     * prime is NTT'd once and subtracted in Eval form (1 + (l - 1)
     * transforms, as `KernelBuilder::rescale`).
     */
    Ciphertext rescale(const Ciphertext &ct) const;

    /** Drops limbs without dividing (level alignment). */
    Ciphertext levelTo(const Ciphertext &ct, size_t target_level) const;

    /** HROT by `steps` slots (uses the matching Galois key). */
    Ciphertext rotate(const Ciphertext &ct, int steps) const;

    /** Complex conjugation of every slot. */
    Ciphertext conjugate(const Ciphertext &ct) const;

    /**
     * Key switching: given d (a polynomial decryptable under some s'),
     * returns (k0, k1) with k0 + k1*s ≈ d*s' (all over Q_level, Eval
     * format). `d` may be in either format. ModUp converts each digit
     * onto its complement only; the key product reads the key limbs in
     * place; ModDown iNTTs only the alpha P limbs and subtracts the
     * NTT'd conversion from the Q limbs in Eval form. Transform count
     * (Eval input): l + sum over digits of (l + alpha - |digit|) +
     * 2 * (alpha + l), which is `KernelBuilder::keySwitch`'s count less
     * the digits' own limbs.
     */
    std::pair<RnsPoly, RnsPoly> keySwitch(const RnsPoly &d,
                                          const SwitchingKey &key) const;

    const CkksContext &context() const { return ctx_; }
    const CkksEncoder &encoder() const { return encoder_; }

  private:
    /** Automorphism sigma_t plus key switch (rotate and conjugate). */
    Ciphertext applyGalois(const Ciphertext &ct, u64 t) const;

    /**
     * ModDown of an Eval-format accumulator split into its Q_l and P
     * parts: (q - NTT(BConv_exact(iNTT(p)))) * P^-1, over Q_l.
     */
    RnsPoly modDown(RnsPoly q_part, RnsPoly p_part) const;

    /** Aligns b's level/scale to a's for addition-like ops. */
    void checkAddCompatible(const Ciphertext &a, const Ciphertext &b) const;

    const CkksContext &ctx_;
    const CkksEncoder &encoder_;
    const SwitchingKey *relin_key_;
    const GaloisKeys *galois_keys_;
};

} // namespace effact

#endif // EFFACT_CKKS_EVALUATOR_H
