#include "sim/sequencer.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace dnastore::sim {

namespace {

/**
 * The IDS channel's rates as Rng::bernoulliThreshold() values: each
 * draw is the one nextBool(rate) would make, with the same outcome.
 * A zero (or negative) rate has threshold 0, and the channel skips
 * its draw entirely, exactly as a `rate > 0.0 &&` guard does.
 */
struct Channel
{
    uint64_t sub = 0;
    uint64_t ins = 0;
    uint64_t del = 0;
};

/**
 * Write @p src through the IDS channel into @p buf and return the
 * read's length. Per source base: insertions while the insertion
 * draw succeeds, then a deletion draw, then a substitution draw for a
 * kept base; then trailing insertions.
 *
 * The length is a local, and every Rng call is inline, so the
 * caller's local Rng is never seen through a pointer: the character
 * stores cannot alias its state, which then stays in registers.
 * @p buf must hold at least src.size() characters. Every source base
 * writes at most one of them, so only an insertion can outgrow it,
 * and only an insertion checks.
 */
size_t
applyIdsNoise(const std::string &src, const Channel channel, Rng &rng,
              std::string &buf)
{
    const size_t n = src.size();
    char *out = buf.data();
    size_t cap = buf.size();
    size_t len = 0;
    // Insert a random base while @p left source bases are still to
    // come, keeping room for all of them.
    auto insert = [&](size_t left) {
        if (cap - len <= left) [[unlikely]] {
            buf.resize(2 * cap + 16);
            out = buf.data();
            cap = buf.size();
        }
        out[len++] =
            dna::baseToChar(static_cast<dna::Base>(rng.nextBelow(4)));
    };
    for (size_t k = 0; k < n; ++k) {
        while (channel.ins != 0 && rng.nextBernoulli(channel.ins))
            insert(n - k);
        if (channel.del != 0 && rng.nextBernoulli(channel.del))
            continue;
        char base = src[k];
        if (channel.sub != 0 && rng.nextBernoulli(channel.sub)) {
            // One of the three other bases; a Sequence's characters
            // are valid, so the unchecked code is exact.
            auto offset = static_cast<uint8_t>(1 + rng.nextBelow(3));
            base = dna::baseToChar(static_cast<dna::Base>(
                (dna::baseCode(base) + offset) % 4));
        }
        out[len++] = base;
    }
    while (channel.ins != 0 && rng.nextBernoulli(channel.ins))
        insert(0);
    return len;
}

/**
 * lower_bound over a pool's cumulative masses c, narrowed by a guide
 * table (Chen & Asau's indexed search) of K = species-count buckets.
 * A draw u falls in bucket b = floor(u * (K / total)), and guide[b]
 * is lower_bound of the bucket's lower edge total * (b / K), so u's
 * index usually lies in [guide[b], guide[b + 1]]. Rounding at a
 * bucket edge can put it just outside, so every pick checks the one
 * condition that characterizes lower_bound on non-decreasing values,
 * (i == 0 || c[i - 1] < u) && c[i] >= u, and searches the whole
 * array when it fails. The index is therefore always lower_bound's,
 * ties from zero-mass species included.
 */
class SpeciesPicker
{
  public:
    explicit SpeciesPicker(const Pool &pool)
    {
        cumulative_.reserve(pool.speciesCount());
        double total = 0.0;
        for (const Species &s : pool.species()) {
            total += s.mass;
            cumulative_.push_back(total);
        }
        fatalIf(total <= 0.0, "sequencePool: pool has zero mass");
        total_ = total;
        const size_t buckets = cumulative_.size();
        scale_ = static_cast<double>(buckets) / total;
        guide_.resize(buckets + 1);
        size_t i = 0;
        for (size_t b = 0; b <= buckets; ++b) {
            const double edge =
                total * (static_cast<double>(b) /
                         static_cast<double>(buckets));
            while (i < buckets && cumulative_[i] < edge)
                ++i;
            guide_[b] = i;
        }
    }

    double total() const { return total_; }

    /** min(lower_bound(cumulative, u), count - 1). */
    size_t
    pick(double u) const
    {
        const double *c = cumulative_.data();
        const size_t count = cumulative_.size();  // also the buckets
        // NaN and anything past the last bucket land in the last one.
        const double x = u * scale_;
        const size_t b = x < static_cast<double>(count)
                             ? static_cast<size_t>(x)
                             : count - 1;
        const size_t lo = guide_[b];
        const size_t hi = std::min(guide_[b + 1] + 1, count);
        size_t i = static_cast<size_t>(
            std::lower_bound(c + lo, c + hi, u) - c);
        if (i == count || !((i == 0 || c[i - 1] < u) && c[i] >= u)) {
            i = static_cast<size_t>(
                std::lower_bound(c, c + count, u) - c);
        }
        return std::min(i, count - 1);
    }

  private:
    std::vector<double> cumulative_;
    std::vector<size_t> guide_;
    double total_ = 0.0;
    double scale_ = 0.0;
};

} // namespace

struct Sequencer::State
{
    State(const Pool &pool, const SequencerParams &params)
        : pool(pool), picker(pool),
          channel{Rng::bernoulliThreshold(params.sub_rate),
                  Rng::bernoulliThreshold(params.ins_rate),
                  Rng::bernoulliThreshold(params.del_rate)},
          rng(Rng::deriveStream(params.seed, "sequencer"))
    {}

    const Pool &pool;
    const SpeciesPicker picker;
    const Channel channel;
    Rng rng;
    std::string buf;
};

Sequencer::Sequencer(const Pool &pool, const SequencerParams &params)
{
    fatalIf(pool.speciesCount() == 0, "sequencePool: empty pool");
    state_ = std::make_unique<State>(pool, params);
}

Sequencer::~Sequencer() = default;

std::vector<Read>
Sequencer::next(size_t n)
{
    const std::vector<Species> &species = state_->pool.species();
    const SpeciesPicker &picker = state_->picker;
    const Channel channel = state_->channel;
    const double total = picker.total();
    std::string &buf = state_->buf;
    // A local copy, so the stream stays in registers (see
    // applyIdsNoise); it goes back into the state when the call ends.
    Rng rng = state_->rng;

    std::vector<Read> reads;
    reads.reserve(n);
    for (size_t r = 0; r < n; ++r) {
        const size_t idx = picker.pick(rng.nextDouble() * total);
        const std::string &src = species[idx].seq.str();
        if (buf.size() < src.size())
            buf.resize(src.size());
        const size_t len = applyIdsNoise(src, channel, rng, buf);
        reads.push_back(
            Read{dna::Sequence(std::string(buf.data(), len)), idx});
    }
    state_->rng = rng;
    return reads;
}

std::vector<Read>
sequencePool(const Pool &pool, size_t num_reads,
             const SequencerParams &params)
{
    return Sequencer(pool, params).next(num_reads);
}

} // namespace dnastore::sim
