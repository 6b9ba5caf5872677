/**
 * @file
 * Statistics package.
 *
 * Every simulated component owns a StatGroup, creates named statistics in
 * it at construction time, and bumps them during simulation.
 * base/stats_json.hh renders the registry as JSON.
 *
 * A registry keeps every group's stats, and copies of their names and
 * descriptions, in one monotonic arena released with the registry:
 * registering a stat allocates only when the arena takes its next
 * chunk, so building a machine allocates per component, not per stat.
 *
 * Supported kinds:
 *  - Scalar:        a counter or gauge (operator++, +=, =).
 *  - Distribution:  online mean/min/max/stddev of sampled values.
 *  - Formula:       a derived value computed on demand from other stats.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <memory_resource>
#include <string>
#include <string_view>
#include <vector>

namespace fenceless::statistics
{

/**
 * Abstract base for all statistics.  The stat views its name and
 * description: they must outlive it, as a StatGroup's copies do.
 */
class Stat
{
  public:
    Stat(std::string_view name, std::string_view desc)
        : name_(name), desc_(desc)
    {}

    virtual ~Stat() = default;

    std::string_view name() const { return name_; }
    std::string_view desc() const { return desc_; }

    /** Primary value (what a formula referencing this stat sees). */
    virtual double value() const = 0;

  private:
    std::string_view name_;
    std::string_view desc_;
};

/** A simple counter / gauge. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t d) { value_ += d; return *this; }
    Scalar &operator=(std::uint64_t v) { value_ = v; return *this; }

    /** Record a new maximum. */
    void
    maxOf(std::uint64_t v)
    {
        if (v > value_)
            value_ = v;
    }

    std::uint64_t count() const { return value_; }
    double value() const override { return static_cast<double>(value_); }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Order-independent percentile estimator over non-negative samples.
 *
 * Log-linear buckets (HDR style): values below 8 get one bucket each
 * (exact for the small integer latencies that dominate), larger values
 * share 8 sub-buckets per power of two (<= ~6% relative error).  The
 * error bound is a property of the bucket geometry, not of the
 * quantile: p99.9 reads from a (sparser-populated) bucket the same way
 * p50 does, so exposing p999 for tail-latency work needed no extra
 * sub-bucketing -- 8/octave already holds every estimate, however deep
 * in the tail, to one bucket (~6%) of the true sample.
 */
class PercentileSketch
{
  public:
    void
    add(double v)
    {
        const std::size_t idx = bucketOf(v);
        if (idx >= counts_.size())
            counts_.resize(idx + 1, 0);
        ++counts_[idx];
        ++total_;
    }

    /**
     * Nearest-rank quantile estimate for @p q in (0, 1]: the
     * representative value of the bucket holding the ceil(q * n)-th
     * smallest sample.  0 with no samples.
     */
    double quantile(double q) const;

    std::uint64_t samples() const { return total_; }

  private:
    // 8 sub-buckets per power of two above the exact range [0, 8).
    static constexpr unsigned sub_bits = 3;
    static constexpr unsigned sub_buckets = 1u << sub_bits;

    static std::size_t
    bucketOf(double v)
    {
        if (!(v > 0.0))
            return 0; // negatives, zero and NaN all land in bucket 0
        // Clamp instead of overflowing: anything at or beyond 2^63
        // shares the top bucket, which only flattens the extreme tail.
        const double ceiling = 9.2e18;
        const auto u =
            static_cast<std::uint64_t>(v < ceiling ? v : ceiling);
        if (u < sub_buckets)
            return static_cast<std::size_t>(u);
        const unsigned order = 63u - static_cast<unsigned>(
            __builtin_clzll(u));
        const auto sub = static_cast<std::size_t>(
            (u >> (order - sub_bits)) & (sub_buckets - 1));
        return static_cast<std::size_t>(order - sub_bits + 1) * sub_buckets
               + sub;
    }

    static double bucketValue(std::size_t idx);

    std::vector<std::uint64_t> counts_; //!< grown lazily to the max bucket
    std::uint64_t total_ = 0;
};

/**
 * Online mean / min / max / stddev over sampled values, plus
 * p50/p95/p99/p99.9 percentile estimates from an embedded
 * PercentileSketch.
 *
 * The variance uses Welford's online algorithm: the naive
 * sqsum/n - mean^2 form cancels catastrophically for
 * large-mean/small-variance data (e.g. tick-stamped latencies late in
 * a long run) and can even go negative.
 */
class Distribution : public Stat
{
  public:
    using Stat::Stat;

    void
    sample(double v)
    {
        if (count_ == 0) {
            min_ = v;
            max_ = v;
        } else {
            if (v < min_)
                min_ = v;
            if (v > max_)
                max_ = v;
        }
        ++count_;
        sum_ += v;
        // Welford update: numerically stable where the naive
        // sqsum/n - mean^2 form loses all significant digits.
        const double delta = v - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (v - mean_);
        sketch_.add(v);
    }

    std::uint64_t samples() const { return count_; }
    double total() const { return sum_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double minValue() const { return count_ ? min_ : 0.0; }
    double maxValue() const { return count_ ? max_ : 0.0; }
    double stdev() const;

    /** Percentile estimate (see PercentileSketch::quantile). */
    double percentile(double q) const { return sketch_.quantile(q); }

    /** A distribution's headline value is its mean. */
    double value() const override { return mean(); }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double mean_ = 0.0; //!< Welford running mean
    double m2_ = 0.0;   //!< Welford sum of squared deviations
    double min_ = 0.0;
    double max_ = 0.0;
    PercentileSketch sketch_;
};

/** A value derived from other statistics, evaluated lazily. */
class Formula : public Stat
{
  public:
    Formula(std::string_view name, std::string_view desc,
            std::function<double()> fn)
        : Stat(name, desc), fn_(std::move(fn))
    {}

    double value() const override { return fn_ ? fn_() : 0.0; }

  private:
    std::function<double()> fn_;
};

/**
 * A named collection of statistics belonging to one component.
 *
 * The group owns its stats; components keep references to the concrete
 * objects.  The stats and copies of their names and descriptions live
 * in the registry's arena, so a caller's text may die right after it
 * registers.  A stat keeps the short name it was registered with;
 * qualifiedName() prefixes the group name where output needs it.
 */
class StatGroup
{
  public:
    /** Ends a stat's lifetime; the arena owns its memory. */
    struct Destroy
    {
        void operator()(Stat *stat) const { stat->~Stat(); }
    };
    using StatPtr = std::unique_ptr<Stat, Destroy>;

    /**
     * A group allocating from @p arena, which must outlive it; groups
     * come from StatRegistry::createGroup.
     */
    StatGroup(std::string_view name, std::pmr::memory_resource &arena)
        : name_(name), stats_(&arena)
    {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return name_; }

    Scalar &addScalar(std::string_view name, std::string_view desc);
    Distribution &addDistribution(std::string_view name,
                                  std::string_view desc);
    Formula &addFormula(std::string_view name, std::string_view desc,
                        std::function<double()> fn);

    /** Look up a stat by its short name; nullptr if absent. */
    const Stat *find(std::string_view short_name) const;

    /** Look up a scalar's count by short name; 0 if absent. */
    std::uint64_t scalarCount(std::string_view short_name) const;

    /** Look up a distribution by short name; nullptr if absent. */
    const Distribution *
    findDistribution(std::string_view short_name) const;

    const std::pmr::vector<StatPtr> &stats() const { return stats_; }

    /** "group.stat": the name @p stat is printed under. */
    std::string qualifiedName(const Stat &stat) const;

  private:
    /** Build a T from copies of @p name and @p desc, then @p args. */
    template <typename T, typename... Args>
    T &add(std::string_view name, std::string_view desc, Args &&...args);

    std::string name_;
    std::pmr::vector<StatPtr> stats_; //!< registration order
};

/** Registry of all stat groups in a simulated system. */
class StatRegistry
{
  public:
    /** Create (and own) a new group with the given name. */
    StatGroup &createGroup(std::string_view name);

    /** Find a group by exact name; nullptr if absent. */
    StatGroup *findGroup(std::string_view name);
    const StatGroup *findGroup(std::string_view name) const;

    const std::vector<std::unique_ptr<StatGroup>> &groups() const
    {
        return groups_;
    }

  private:
    /**
     * Every group's stats and text.  Declared first so it is released
     * last; its chunks grow geometrically with what is registered.
     */
    std::pmr::monotonic_buffer_resource arena_;
    std::vector<std::unique_ptr<StatGroup>> groups_;
};

} // namespace fenceless::statistics
