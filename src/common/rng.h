/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library (workload synthesis, fold
 * shuffling, learner initialization) draw from Rng so that every
 * experiment is reproducible from a single seed. The generator is
 * xoshiro256**, which is fast, has a 256-bit state and passes BigCrush.
 *
 * Rng instances are plain mutable state — there are no globals and no
 * internal locking — so an instance must never be shared across pool
 * tasks. Parallel loops draw everything they need before dispatch or
 * give each task its own seed-derived instance (see common/parallel.h).
 */

#ifndef MTPERF_COMMON_RNG_H_
#define MTPERF_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace mtperf {

/**
 * A seedable xoshiro256** generator with the distribution helpers the
 * library needs. Satisfies the UniformRandomBitGenerator concept so it
 * can also be handed to <random> and <algorithm> facilities.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Reseed the generator, discarding all previous state. */
    void seed(std::uint64_t seed);

    /** @return the next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    std::uint64_t operator()() { return next(); }
    static constexpr std::uint64_t min() { return 0; }
    static constexpr std::uint64_t max() { return ~0ULL; }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random mantissa bits -> uniform in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli draw with probability @p p of returning true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Standard normal via Box-Muller (cached second variate). */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Exponential with rate @p lambda. @pre lambda > 0. */
    double exponential(double lambda);

    /**
     * Geometric number of failures before the first success,
     * success probability @p p in (0, 1].
     */
    std::uint64_t geometric(double p);

    /**
     * Zipf-distributed integer in [0, n) with exponent @p s, drawn by
     * inversion over a precomputed CDF would be per-call expensive, so
     * this uses rejection-inversion (Hormann & Derflinger) which is
     * O(1) per draw.
     */
    std::uint64_t zipf(std::uint64_t n, double s);

    /** Fisher-Yates shuffle of @p v. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniformInt(static_cast<std::uint64_t>(i));
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

/**
 * A geometric(p) sampler with log1p(-p) precomputed at construction.
 * sample() consumes the same uniforms and returns bit-identical values
 * to Rng::geometric(p), which is implemented on top of it; callers
 * drawing from one p many times (the workload generator's register
 * dependency distances) keep one of these instead of re-deriving the
 * logarithm on every draw.
 */
class GeometricSampler
{
  public:
    /** Sampler for p == 1: always 0, draws nothing. */
    GeometricSampler() = default;

    /** @pre p in (0, 1]. */
    explicit GeometricSampler(double p);

    /** Failures before the first success, drawn from @p rng. */
    std::uint64_t
    sample(Rng &rng) const
    {
        if (p_ >= 1.0)
            return 0;
        double u;
        do {
            u = rng.uniform();
        } while (u <= 0.0);
        return static_cast<std::uint64_t>(std::log(u) / log1mP_);
    }

  private:
    double p_ = 1.0;
    double log1mP_ = 0.0; //!< log1p(-p), unused when p == 1
};

/**
 * Memo of the Zipf rejection-inversion acceptance threshold
 * H(k + 1/2) - h(k) for ranks k <= kMaxRank. The threshold depends
 * only on the exponent s and the candidate rank k, not on the support
 * size n, so one memo serves every ZipfSampler with the same s — the
 * workload generator keeps one per sampler role and it survives the
 * per-section sampler rebuilds. A different s clears it. Entries are
 * computed on first use by the same expression an unmemoised draw
 * evaluates, so values are bit-identical; ranks above kMaxRank are
 * computed on every draw, which bounds the table at 32 KiB.
 */
class ZipfAcceptMemo
{
  public:
    static constexpr std::uint64_t kMaxRank = 4096;

    /** The acceptance threshold for rank @p k (1-based) under @p s. */
    double threshold(double s, double k);

  private:
    double s_ = NAN;              //!< exponent the table holds
    std::vector<double> table_;   //!< by rank; NaN = not yet computed
};

/**
 * A Zipf(n, s) sampler with the rejection-inversion constants
 * precomputed at construction. Rng::zipf(n, s) recomputes four
 * transcendental constants on every draw; callers that sample the
 * same distribution repeatedly (the workload generator draws millions
 * of addresses per section from fixed footprints) construct one of
 * these per (n, s) instead. sample() consumes the same uniform stream
 * and produces bit-identical values to Rng::zipf — Rng::zipf is
 * implemented on top of it — with or without a ZipfAcceptMemo.
 */
class ZipfSampler
{
  public:
    /** Trivial sampler over a single value (always returns 0). */
    ZipfSampler() = default;

    /** Precompute constants for Zipf over [0, n) with exponent s. */
    ZipfSampler(std::uint64_t n, double s);

    /**
     * Draw one value in [0, n), consuming uniforms from @p rng. A
     * @p memo, when given, caches the per-rank acceptance thresholds
     * across draws (and across samplers sharing the exponent).
     */
    std::uint64_t sample(Rng &rng, ZipfAcceptMemo *memo = nullptr) const;

    std::uint64_t n() const { return n_; }
    double s() const { return s_; }

  private:
    std::uint64_t n_ = 1;
    double s_ = 0.0;
    double hX1_ = 0.0;  //!< h_integral(1.5) - 1
    double d_ = 0.0;    //!< h_integral(0.5)
    double span_ = 0.0; //!< h_integral(n + 0.5) - d
};

} // namespace mtperf

#endif // MTPERF_COMMON_RNG_H_
