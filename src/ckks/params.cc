#include "ckks/params.h"

#include <cmath>

#include "common/bitops.h"
#include "common/logging.h"
#include "math/primes.h"

namespace effact {

CkksContext::CkksContext(const CkksParams &params) : params_(params)
{
    n_ = size_t(1) << params.logN;
    EFFACT_ASSERT(params.levels >= 1, "need at least one level");
    EFFACT_ASSERT(params.dnum >= 1 && params.dnum <= params.levels,
                  "dnum must be in [1, levels]");
    alpha_ = ceilDiv(params.levels, params.dnum);
    scale_ = std::pow(2.0, double(params.logScale));

    // q_0 gets logQ0 bits; the remaining data primes hug the scale so that
    // rescale keeps the tracked scale close to Delta. Special primes use
    // logQ0 bits so P dominates every digit product's noise.
    auto q0 = genNttPrimes(1, params.logQ0, n_);
    std::vector<u64> exclude = q0;
    std::vector<u64> q_rest;
    if (params.levels > 1) {
        q_rest = genNttPrimes(params.levels - 1, params.logScale, n_,
                              exclude);
        exclude.insert(exclude.end(), q_rest.begin(), q_rest.end());
    }
    auto p_primes = genNttPrimes(alpha_, params.logQ0, n_, exclude);

    std::vector<u64> q_primes = q0;
    q_primes.insert(q_primes.end(), q_rest.begin(), q_rest.end());

    q_basis_ = std::make_shared<RnsBasis>(n_, q_primes);
    p_basis_ = std::make_shared<RnsBasis>(n_, p_primes);
    qp_basis_ = q_basis_->concat(*p_basis_);

    p_mod_q_.resize(params.levels);
    p_inv_mod_q_.resize(params.levels);
    for (size_t j = 0; j < params.levels; ++j) {
        const u64 qj = q_basis_->prime(j);
        u64 acc = 1;
        for (size_t i = 0; i < alpha_; ++i)
            acc = mulMod(acc, p_basis_->prime(i) % qj, qj);
        p_mod_q_[j] = acc;
        p_inv_mod_q_[j] = invMod(acc, qj);
    }

    // Every converter and rescale constant any level can ask for, built
    // eagerly: the accessors are then read-only, so threads sharing one
    // context need no lock.
    mod_up_.resize(params.levels);
    mod_down_.reserve(params.levels);
    q_last_inv_.resize(params.levels);
    for (size_t level = 1; level <= params.levels; ++level) {
        for (size_t digit = 0; digit < digitCount(level); ++digit) {
            auto [begin, end] = digitRange(digit, level);
            std::shared_ptr<const RnsBasis> rest = p_basis_;
            if (end < level)
                rest = q_basis_->range(end, level)->concat(*rest);
            if (begin > 0)
                rest = q_basis_->range(0, begin)->concat(*rest);
            mod_up_[level - 1].emplace_back(q_basis_->range(begin, end),
                                            std::move(rest));
        }
        mod_down_.emplace_back(p_basis_, qBasisAt(level));
        const u64 q_last = q_basis_->prime(level - 1);
        for (size_t j = 0; j + 1 < level; ++j) {
            const u64 qj = q_basis_->prime(j);
            q_last_inv_[level - 1].push_back(invMod(q_last % qj, qj));
        }
    }
}

std::shared_ptr<const RnsBasis>
CkksContext::qBasisAt(size_t level) const
{
    return q_basis_->prefix(level);
}

std::pair<size_t, size_t>
CkksContext::digitRange(size_t digit, size_t level) const
{
    size_t begin = digit * alpha_;
    size_t end = std::min((digit + 1) * alpha_, level);
    return {begin, end};
}

size_t
CkksContext::digitCount(size_t level) const
{
    return ceilDiv(level, alpha_);
}

const BaseConverter &
CkksContext::modUpConverter(size_t digit, size_t level) const
{
    EFFACT_ASSERT(level >= 1 && level <= params_.levels &&
                      digit < digitCount(level),
                  "modUpConverter(%zu, %zu) out of range", digit, level);
    return mod_up_[level - 1][digit];
}

const BaseConverter &
CkksContext::modDownConverter(size_t level) const
{
    EFFACT_ASSERT(level >= 1 && level <= params_.levels,
                  "modDownConverter level %zu out of range", level);
    return mod_down_[level - 1];
}

const std::vector<u64> &
CkksContext::qLastInvModQ(size_t level) const
{
    EFFACT_ASSERT(level >= 2 && level <= params_.levels,
                  "qLastInvModQ level %zu out of range", level);
    return q_last_inv_[level - 1];
}

} // namespace effact
