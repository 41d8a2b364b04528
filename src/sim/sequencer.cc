#include "sim/sequencer.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "common/rng.h"

namespace dnastore::sim {

namespace {

char
randomBase(Rng &rng)
{
    return dna::baseToChar(static_cast<dna::Base>(rng.nextBelow(4)));
}

char
randomOtherBase(Rng &rng, char original)
{
    auto offset = static_cast<uint8_t>(1 + rng.nextBelow(3));
    return dna::baseToChar(static_cast<dna::Base>(
        (static_cast<uint8_t>(dna::charToBase(original)) + offset) % 4));
}

/** Write @p seq through the IDS channel into @p out (cleared first). */
void
applyIdsNoise(const std::string &seq, const SequencerParams &params,
              Rng &rng, std::string &out)
{
    out.clear();
    for (char base : seq) {
        while (params.ins_rate > 0.0 && rng.nextBool(params.ins_rate))
            out.push_back(randomBase(rng));
        if (params.del_rate > 0.0 && rng.nextBool(params.del_rate))
            continue;
        if (params.sub_rate > 0.0 && rng.nextBool(params.sub_rate))
            base = randomOtherBase(rng, base);
        out.push_back(base);
    }
    while (params.ins_rate > 0.0 && rng.nextBool(params.ins_rate))
        out.push_back(randomBase(rng));
}

} // namespace

std::vector<Read>
sequencePool(const Pool &pool, size_t num_reads,
             const SequencerParams &params)
{
    fatalIf(pool.speciesCount() == 0, "sequencePool: empty pool");
    Rng rng = Rng::deriveStream(params.seed, "sequencer");

    // Cumulative mass distribution for multinomial sampling.
    std::vector<double> cumulative;
    cumulative.reserve(pool.speciesCount());
    double total = 0.0;
    for (const Species &s : pool.species()) {
        total += s.mass;
        cumulative.push_back(total);
    }
    fatalIf(total <= 0.0, "sequencePool: pool has zero mass");

    std::vector<Read> reads;
    reads.reserve(num_reads);
    std::string noisy;
    for (size_t r = 0; r < num_reads; ++r) {
        double u = rng.nextDouble() * total;
        size_t idx = static_cast<size_t>(
            std::lower_bound(cumulative.begin(), cumulative.end(), u) -
            cumulative.begin());
        idx = std::min(idx, pool.speciesCount() - 1);
        applyIdsNoise(pool.species()[idx].seq.str(), params, rng, noisy);
        // Copied out of the reused buffer, so each read holds
        // exactly its own length.
        reads.push_back(Read{dna::Sequence(noisy), idx});
    }
    return reads;
}

} // namespace dnastore::sim
