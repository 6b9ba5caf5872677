#include "base/stats.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace fenceless::statistics
{

namespace
{

// 8 sub-buckets per power of two above the exact range [0, 8).
constexpr unsigned sub_bits = 3;
constexpr unsigned sub_buckets = 1u << sub_bits;

} // namespace

std::size_t
PercentileSketch::bucketOf(double v)
{
    if (!(v > 0.0))
        return 0; // negatives, zero and NaN all land in bucket 0
    // Clamp instead of overflowing: anything at or beyond 2^63 shares
    // the top bucket, which only flattens the extreme tail.
    const double ceiling = 9.2e18;
    const auto u = static_cast<std::uint64_t>(v < ceiling ? v : ceiling);
    if (u < sub_buckets)
        return static_cast<std::size_t>(u);
    const unsigned order = 63u - static_cast<unsigned>(
        __builtin_clzll(u));
    const auto sub = static_cast<std::size_t>(
        (u >> (order - sub_bits)) & (sub_buckets - 1));
    return static_cast<std::size_t>(order - sub_bits + 1) * sub_buckets
           + sub;
}

double
PercentileSketch::bucketValue(std::size_t idx)
{
    if (idx < sub_buckets)
        return static_cast<double>(idx);
    const unsigned order =
        static_cast<unsigned>(idx / sub_buckets) + sub_bits - 1;
    const auto sub = static_cast<std::uint64_t>(idx % sub_buckets);
    const std::uint64_t lo = (sub_buckets + sub) << (order - sub_bits);
    const std::uint64_t width = 1ull << (order - sub_bits);
    // Midpoint of the bucket's value range: halves the worst-case
    // error versus reporting the lower edge.
    return static_cast<double>(lo)
           + static_cast<double>(width - 1) / 2.0;
}

void
PercentileSketch::add(double v, std::uint64_t times)
{
    if (times == 0)
        return;
    const std::size_t idx = bucketOf(v);
    if (idx >= counts_.size())
        counts_.resize(idx + 1, 0);
    counts_[idx] += times;
    total_ += times;
}

double
PercentileSketch::quantile(double q) const
{
    if (total_ == 0)
        return 0.0;
    // Nearest-rank: the k-th smallest sample with k = ceil(q * n),
    // clamped into [1, n].
    double rank_d = std::ceil(q * static_cast<double>(total_));
    if (rank_d < 1.0)
        rank_d = 1.0;
    auto rank = static_cast<std::uint64_t>(rank_d);
    if (rank > total_)
        rank = total_;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        cumulative += counts_[i];
        if (cumulative >= rank)
            return bucketValue(i);
    }
    return bucketValue(counts_.empty() ? 0 : counts_.size() - 1);
}

void
Distribution::sample(double v, std::uint64_t times)
{
    if (times == 0)
        return;
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }
    count_ += times;
    sum_ += v * times;
    // Weighted Welford update: numerically stable where the naive
    // sqsum/n - mean^2 form loses all significant digits.
    const double delta = v - mean_;
    mean_ += delta * static_cast<double>(times)
             / static_cast<double>(count_);
    m2_ += static_cast<double>(times) * delta * (v - mean_);
    sketch_.add(v, times);
}

double
Distribution::stdev() const
{
    if (count_ < 2)
        return 0.0;
    const double var = m2_ / static_cast<double>(count_);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

std::string
StatGroup::qualifiedName(const Stat &stat) const
{
    std::string qualified = name_;
    if (!qualified.empty())
        qualified += '.';
    return qualified.append(stat.name());
}

template <typename T, typename... Args>
T &
StatGroup::add(std::string_view name, std::string_view desc,
               Args &&...args)
{
    auto arena = stats_.get_allocator();
    auto copy = [&arena](std::string_view text) {
        auto *chars =
            static_cast<char *>(arena.allocate_bytes(text.size(), 1));
        std::copy(text.begin(), text.end(), chars);
        return std::string_view(chars, text.size());
    };
    T *stat = arena.new_object<T>(copy(name), copy(desc),
                                  std::forward<Args>(args)...);
    stats_.push_back(StatPtr(stat));
    return *stat;
}

Scalar &
StatGroup::addScalar(std::string_view name, std::string_view desc)
{
    return add<Scalar>(name, desc);
}

Distribution &
StatGroup::addDistribution(std::string_view name, std::string_view desc)
{
    return add<Distribution>(name, desc);
}

Formula &
StatGroup::addFormula(std::string_view name, std::string_view desc,
                      std::function<double()> fn)
{
    return add<Formula>(name, desc, std::move(fn));
}

const Stat *
StatGroup::find(std::string_view short_name) const
{
    for (const auto &s : stats_) {
        if (s->name() == short_name)
            return s.get();
    }
    return nullptr;
}

std::uint64_t
StatGroup::scalarCount(std::string_view short_name) const
{
    const auto *s = dynamic_cast<const Scalar *>(find(short_name));
    return s ? s->count() : 0;
}

const Distribution *
StatGroup::findDistribution(std::string_view short_name) const
{
    return dynamic_cast<const Distribution *>(find(short_name));
}

StatGroup &
StatRegistry::createGroup(std::string_view name)
{
    flAssert(!findGroup(name), "duplicate stat group '", name, "'");
    groups_.push_back(std::make_unique<StatGroup>(name, arena_));
    return *groups_.back();
}

StatGroup *
StatRegistry::findGroup(std::string_view name)
{
    for (auto &g : groups_) {
        if (g->name() == name)
            return g.get();
    }
    return nullptr;
}

const StatGroup *
StatRegistry::findGroup(std::string_view name) const
{
    for (const auto &g : groups_) {
        if (g->name() == name)
            return g.get();
    }
    return nullptr;
}

} // namespace fenceless::statistics
