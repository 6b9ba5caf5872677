/**
 * @file
 * Statistics package.
 *
 * Every simulated component owns a StatGroup, creates named statistics in
 * it at construction time, and bumps them during simulation.
 * base/stats_json.hh renders the registry as JSON.
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
#include <string>
#include <vector>

namespace fenceless::statistics
{

/** Abstract base for all statistics. */
class Stat
{
  public:
    Stat(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    virtual ~Stat() = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Primary value (what a formula referencing this stat sees). */
    virtual double value() const = 0;

  private:
    std::string name_;
    std::string desc_;
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
    void add(double v, std::uint64_t times = 1);

    /**
     * Nearest-rank quantile estimate for @p q in (0, 1]: the
     * representative value of the bucket holding the ceil(q * n)-th
     * smallest sample.  0 with no samples.
     */
    double quantile(double q) const;

    std::uint64_t samples() const { return total_; }

  private:
    static std::size_t bucketOf(double v);
    static double bucketValue(std::size_t idx);

    std::vector<std::uint64_t> counts_; //!< grown lazily to the max bucket
    std::uint64_t total_ = 0;
};

/**
 * Online mean / min / max / stddev over sampled values, plus
 * p50/p95/p99/p99.9 percentile estimates from an embedded
 * PercentileSketch.
 *
 * The variance uses Welford's online algorithm (weighted for repeated
 * samples): the naive sqsum/n - mean^2 form cancels catastrophically
 * for large-mean/small-variance data (e.g. tick-stamped latencies late
 * in a long run) and can even go negative.
 */
class Distribution : public Stat
{
  public:
    using Stat::Stat;

    void sample(double v, std::uint64_t times = 1);

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
    Formula(std::string name, std::string desc,
            std::function<double()> fn)
        : Stat(std::move(name), std::move(desc)), fn_(std::move(fn))
    {}

    double value() const override { return fn_ ? fn_() : 0.0; }

  private:
    std::function<double()> fn_;
};

/**
 * A named collection of statistics belonging to one component.
 *
 * The group owns its stats; components keep references to the concrete
 * objects.  A stat keeps the short name it was registered with;
 * qualifiedName() prefixes the group name where output needs it.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return name_; }

    Scalar &addScalar(const std::string &name, const std::string &desc);
    Distribution &addDistribution(const std::string &name,
                                  const std::string &desc);
    Formula &addFormula(const std::string &name, const std::string &desc,
                        std::function<double()> fn);

    /** Look up a stat by its short name; nullptr if absent. */
    const Stat *find(const std::string &short_name) const;

    /** Look up a scalar's count by short name; 0 if absent. */
    std::uint64_t scalarCount(const std::string &short_name) const;

    /** Look up a distribution by short name; nullptr if absent. */
    const Distribution *
    findDistribution(const std::string &short_name) const;

    const std::vector<std::unique_ptr<Stat>> &stats() const { return stats_; }

    /** "group.stat": the name @p stat is printed under. */
    std::string qualifiedName(const Stat &stat) const;

  private:
    std::string name_;
    std::vector<std::unique_ptr<Stat>> stats_;
};

/** Registry of all stat groups in a simulated system. */
class StatRegistry
{
  public:
    /** Create (and own) a new group with the given name. */
    StatGroup &createGroup(const std::string &name);

    /** Find a group by exact name; nullptr if absent. */
    StatGroup *findGroup(const std::string &name);
    const StatGroup *findGroup(const std::string &name) const;

    const std::vector<std::unique_ptr<StatGroup>> &groups() const
    {
        return groups_;
    }

  private:
    std::vector<std::unique_ptr<StatGroup>> groups_;
};

} // namespace fenceless::statistics
