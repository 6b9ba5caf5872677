/**
 * @file
 * Statistics package.
 *
 * Every simulated component owns a StatGroup, creates named statistics in
 * it at construction time, and bumps them during simulation.  At the end
 * of a run the registry can render all statistics as an aligned text
 * table or as CSV for the benchmark harness.
 *
 * Supported kinds:
 *  - Scalar:        a counter or gauge (operator++, +=, =).
 *  - Distribution:  online mean/min/max/stddev of sampled values.
 *  - Histogram:     linear-bucketed counts of sampled values.
 *  - Formula:       a derived value computed on demand from other stats.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
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

    /** Render "name value [extra]" lines into @p os. */
    virtual void print(std::ostream &os, int name_width) const;

    /** Render one or more "name,value" CSV lines into @p os. */
    virtual void printCsv(std::ostream &os) const;

    /** Reset to the state at construction. */
    virtual void reset() = 0;

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
    void reset() override { value_ = 0; }

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
 * in the tail, to one bucket (~6%) of the true sample.  All
 * state is integer counts, so merging two sketches is an elementwise
 * add -- commutative and associative -- which makes the estimates
 * merge-stable: folding per-producer sketches in any grouping lands on
 * the same counts as one accumulation over every sample, bucket for
 * bucket.
 */
class PercentileSketch
{
  public:
    void add(double v, std::uint64_t times = 1);

    /** Elementwise-add @p other's bucket counts into this sketch. */
    void merge(const PercentileSketch &other);

    /**
     * Nearest-rank quantile estimate for @p q in (0, 1]: the
     * representative value of the bucket holding the ceil(q * n)-th
     * smallest sample.  0 with no samples.
     */
    double quantile(double q) const;

    std::uint64_t samples() const { return total_; }

    void reset();

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

    /**
     * Fold an independently accumulated Welford state into this
     * distribution (Chan's parallel-combine formula).  The network
     * keeps one accumulator per node and folds them in node order at
     * the end of the run, which fixes the floating-point result.  A
     * producer that also kept a PercentileSketch passes it as
     * @p sketch so the percentile estimates fold too.
     */
    void merge(std::uint64_t count, double sum, double mean, double m2,
               double min, double max,
               const PercentileSketch *sketch = nullptr);

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

    void print(std::ostream &os, int name_width) const override;
    void printCsv(std::ostream &os) const override;
    void reset() override;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double mean_ = 0.0; //!< Welford running mean
    double m2_ = 0.0;   //!< Welford sum of squared deviations
    double min_ = 0.0;
    double max_ = 0.0;
    PercentileSketch sketch_;
};

/** Linear-bucketed histogram over [lo, hi) plus under/overflow buckets. */
class Histogram : public Stat
{
  public:
    Histogram(std::string name, std::string desc, double lo, double hi,
              unsigned num_buckets);

    void sample(double v, std::uint64_t times = 1);

    std::uint64_t bucketCount(unsigned i) const { return buckets_.at(i); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t samples() const { return samples_; }
    unsigned numBuckets() const { return buckets_.size(); }

    double value() const override { return static_cast<double>(samples_); }

    void print(std::ostream &os, int name_width) const override;
    void printCsv(std::ostream &os) const override;
    void reset() override;

  private:
    double lo_;
    double hi_;
    double bucket_width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
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
    void reset() override {}

  private:
    std::function<double()> fn_;
};

/**
 * A named collection of statistics belonging to one component.
 *
 * The group owns its stats; components keep references to the concrete
 * objects.  Names are automatically prefixed with the group name.
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
    Histogram &addHistogram(const std::string &name, const std::string &desc,
                            double lo, double hi, unsigned num_buckets);
    Formula &addFormula(const std::string &name, const std::string &desc,
                        std::function<double()> fn);

    /** Look up a stat by its short (unprefixed) name; nullptr if absent. */
    const Stat *find(const std::string &short_name) const;

    /** Look up a scalar's count by short name; 0 if absent. */
    std::uint64_t scalarCount(const std::string &short_name) const;

    /** Look up a distribution by short name; nullptr if absent. */
    const Distribution *
    findDistribution(const std::string &short_name) const;

    const std::vector<std::unique_ptr<Stat>> &stats() const { return stats_; }

    void print(std::ostream &os) const;
    void printCsv(std::ostream &os) const;
    void reset();

  private:
    std::string qualify(const std::string &name) const;

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

    /** Dump every group as an aligned text table. */
    void print(std::ostream &os) const;

    /** Dump every group as CSV ("name,value" per line). */
    void printCsv(std::ostream &os) const;

    void reset();

  private:
    std::vector<std::unique_ptr<StatGroup>> groups_;
};

} // namespace fenceless::statistics
