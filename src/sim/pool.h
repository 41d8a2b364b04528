/**
 * @file
 * DNA pool model: a multiset of molecule species with continuous
 * per-species mass (copy counts).
 *
 * The simulator tracks concentrations as doubles because synthesis
 * yields millions of physical copies per designed molecule and PCR
 * multiplies them exponentially; reads are later *sampled* from the
 * mass distribution by the Sequencer. Every species carries its
 * ground-truth provenance (file, block, version, column) so that
 * experiments can classify reads the way the paper's figures do
 * (e.g., Figure 9b: which block does each read actually come from).
 */

#ifndef DNASTORE_SIM_POOL_H
#define DNASTORE_SIM_POOL_H

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dna/sequence.h"

namespace dnastore::sim {

/** Ground-truth provenance of a species (never visible to decoding). */
struct SpeciesInfo
{
    /** File/partition the payload belongs to (paper stores 13). */
    uint32_t file_id = 0;

    /** Logical block (encoding unit) the payload belongs to. */
    uint64_t block = 0;

    /** Version slot: 0 = original data, 1..3 = update patches. */
    uint8_t version = 0;

    /** Column (molecule index) within the encoding-unit matrix. */
    uint8_t column = 0;

    /** True if this species was created by mispriming: its prefix
     *  was overwritten by a primer during PCR (paper Section 8.1). */
    bool misprimed = false;

    bool operator==(const SpeciesInfo &) const = default;
};

/** One species: a distinct sequence with its mass. */
struct Species
{
    dna::Sequence seq;
    SpeciesInfo info;
    double mass = 0.0;
};

/**
 * A pool of DNA, e.g. a synthesis order, a test tube, or the product
 * of a PCR reaction.
 */
class Pool
{
  public:
    Pool() = default;

    /** Add mass of a species, merging with an identical sequence. */
    void add(dna::Sequence seq, const SpeciesInfo &info, double mass);

    const std::vector<Species> &species() const { return species_; }
    size_t speciesCount() const { return species_.size(); }

    /** Index into species() of the species with sequence @p seq. */
    std::optional<size_t> indexOf(const dna::Sequence &seq) const;

    /** Sum of all species masses ("nanodrop measurement"). */
    double totalMass() const;

    /** Multiply every mass by a dilution/concentration factor. */
    void scale(double factor);

    /** Rescale so totalMass() == target. */
    void normalizeTo(double target);

    /** Pour @p other into this pool (optionally pre-scaled). */
    void mixIn(const Pool &other, double factor = 1.0);

    /** Drop species below a mass floor (cleanup step). */
    void dropBelow(double min_mass);

    /** Mass-weighted fraction of species matching a predicate. */
    template <typename Pred>
    double
    massFraction(Pred pred) const
    {
        double total = 0.0;
        double matched = 0.0;
        for (const Species &s : species_) {
            total += s.mass;
            if (pred(s))
                matched += s.mass;
        }
        return total > 0.0 ? matched / total : 0.0;
    }

  private:
    std::vector<Species> species_;
    std::unordered_map<std::string, size_t> by_sequence_;
};

} // namespace dnastore::sim

#endif // DNASTORE_SIM_POOL_H
