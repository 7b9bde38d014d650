/**
 * @file
 * CKKS parameter set and context (Table I / Table III of the paper).
 *
 * The context owns the modulus chain: L "data" primes q_0..q_{L-1}
 * (q_0 wider for decryption margin, the rest sized to the scale) plus
 * alpha special primes p_0..p_{alpha-1} for dnum-digit key-switching.
 */
#ifndef EFFACT_CKKS_PARAMS_H
#define EFFACT_CKKS_PARAMS_H

#include <cstddef>
#include <memory>
#include <vector>

#include "rns/bconv.h"
#include "rns/poly.h"

namespace effact {

/** User-facing CKKS parameters. */
struct CkksParams
{
    size_t logN = 13;       ///< ring degree 2^logN
    size_t levels = 8;      ///< number of q-chain primes L
    unsigned logScale = 40; ///< log2 of the encoding scale Delta
    unsigned logQ0 = 54;    ///< bit width of the first prime (paper: 54)
    size_t dnum = 4;        ///< key-switching decomposition digits
    int hammingWeight = 32; ///< secret key Hamming weight (sparse ternary)
    double sigma = 3.2;     ///< error standard deviation
};

/** Precomputed CKKS context shared by all scheme objects. */
class CkksContext
{
  public:
    explicit CkksContext(const CkksParams &params);

    const CkksParams &params() const { return params_; }
    size_t degree() const { return n_; }
    size_t slots() const { return n_ / 2; }
    size_t levels() const { return params_.levels; }
    size_t alpha() const { return alpha_; }
    double scale() const { return scale_; }

    /** Full Q-chain basis (L limbs). */
    std::shared_ptr<const RnsBasis> qBasis() const { return q_basis_; }

    /** Special-prime basis (alpha limbs). */
    std::shared_ptr<const RnsBasis> pBasis() const { return p_basis_; }

    /** Q-chain prefix of `level` limbs. */
    std::shared_ptr<const RnsBasis> qBasisAt(size_t level) const;

    /** Full Q ∪ P basis (keys live here). */
    std::shared_ptr<const RnsBasis> qpBasis() const { return qp_basis_; }

    /** Digit d's prime index range [begin, end) clipped to `level`. */
    std::pair<size_t, size_t> digitRange(size_t digit, size_t level) const;

    /** Number of digits active at `level`. */
    size_t digitCount(size_t level) const;

    /** P mod q_j for every q in the chain (ModDown divisor). */
    u64 pModQ(size_t j) const { return p_mod_q_[j]; }

    /** P^-1 mod q_j. */
    u64 pInvModQ(size_t j) const { return p_inv_mod_q_[j]; }

    /**
     * ModUp converter: digit `digit` at `level` -> the complement
     * (Q_level minus the digit's primes) ∪ P. The digit's own primes are
     * left out because BConv of a residue onto its own prime returns it
     * unchanged. Output limb c sits at Q_level ∪ P position
     * `c < begin ? c : c + (end - begin)` for the digit range
     * [begin, end).
     */
    const BaseConverter &modUpConverter(size_t digit, size_t level) const;

    /** ModDown converter: P -> Q_level. */
    const BaseConverter &modDownConverter(size_t level) const;

    /**
     * Rescale constants at `level` (>= 2): q_{level-1}^-1 mod q_j for
     * j < level - 1, one per kept limb.
     */
    const std::vector<u64> &qLastInvModQ(size_t level) const;

  private:
    CkksParams params_;
    size_t n_;
    size_t alpha_;
    double scale_;
    std::shared_ptr<RnsBasis> q_basis_;
    std::shared_ptr<RnsBasis> p_basis_;
    std::shared_ptr<RnsBasis> qp_basis_;
    std::vector<u64> p_mod_q_;
    std::vector<u64> p_inv_mod_q_;

    // Built once in the constructor, so threads may share a context.
    std::vector<std::vector<BaseConverter>> mod_up_; ///< [level-1][digit]
    std::vector<BaseConverter> mod_down_;            ///< [level-1]
    std::vector<std::vector<u64>> q_last_inv_;       ///< [level-1][j]
};

} // namespace effact

#endif // EFFACT_CKKS_PARAMS_H
