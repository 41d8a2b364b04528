/**
 * @file
 * PCR reaction model (paper Sections 2.1.4, 4, 6.5).
 *
 * Each cycle, a forward primer anneals to the 5' prefix of template
 * strands and copies them. Annealing efficiency decays exponentially
 * with the (3'-end-weighted) edit distance between the primer and the
 * template prefix, which reproduces the experimentally observed
 * *mispriming*: templates whose index is 2-3 edit distance from an
 * elongated primer amplify promiscuously, and the resulting amplicon
 * carries the primer's sequence — the template's index is
 * *overwritten* while its payload is retained (Section 8.1).
 *
 * Touchdown PCR (Section 6.5) is modelled as a per-cycle stringency
 * schedule: early (hot) cycles multiply the mismatch penalty, later
 * cycles run at baseline stringency.
 *
 * Leftover primers from a previous reaction (the 18% of reads in
 * Figure 9b) are modelled by simply adding the old primer to the
 * reaction with a small relative concentration.
 */

#ifndef DNASTORE_SIM_PCR_H
#define DNASTORE_SIM_PCR_H

#include <cstdint>
#include <vector>

#include "dna/sequence.h"
#include "sim/pool.h"

namespace dnastore::sim {

/** One forward primer participating in a (possibly multiplex) PCR. */
struct PcrPrimer
{
    dna::Sequence fwd;

    /** Relative primer concentration; scales annealing efficiency.
     *  Use < 1 for leftover primers carried over from a previous
     *  reaction or for diluted multiplex components. */
    double relative_concentration = 1.0;
};

/** Reaction parameters. */
struct PcrParams
{
    unsigned cycles = 28;

    /** Per-cycle duplication efficiency for a perfect match. */
    double efficiency_max = 0.95;

    /** Annealing efficiency decays as
     *  exp(-penalty * stringency * w^exponent) in the weighted
     *  mismatch w. The super-linear exponent makes the curve steep:
     *  one or two well-placed mismatches still prime appreciably
     *  (the paper's "handful" of promiscuous blocks at edit distance
     *  2-3, Section 8.1) while anything further is effectively
     *  inert — which matters because a misprimed amplicon carries
     *  the primer's exact sequence and amplifies at full speed from
     *  then on. */
    double mismatch_penalty = 0.15;
    double mismatch_exponent = 2.0;

    /** Weight multiplier for mismatches in the primer's 3' window
     *  (extension is far more sensitive there). */
    double three_prime_factor = 6.0;

    /** Cost multiplier for bulged bases relative to substitutions
     *  (duplex bulges destabilize annealing more than internal
     *  mismatches). */
    double gap_factor = 2.5;

    /** Primer-template alignments beyond this edit distance do not
     *  anneal at all. */
    size_t max_align_dist = 6;

    /** Size of the critical 3' window. */
    size_t three_prime_window = 3;

    /** Per-cycle multipliers on mismatch_penalty; empty = all 1.0.
     *  Longer schedules than `cycles` are truncated. */
    std::vector<double> stringency;

    /** Efficiencies below this are treated as zero (no annealing). */
    double min_efficiency = 1e-4;
};

/**
 * Touchdown schedule: the first @p touchdown_cycles cycles ramp the
 * stringency multiplier linearly from @p start_multiplier down to
 * 1.0; remaining cycles run at 1.0 (paper Section 6.5: 10 touchdown
 * cycles from 65C, then 18 cycles at 55C).
 */
std::vector<double> touchdownSchedule(unsigned touchdown_cycles,
                                      unsigned total_cycles,
                                      double start_multiplier = 3.0);

/** Per-species result bookkeeping from one reaction. */
struct PcrStats
{
    /** Species present after the reaction. */
    size_t species_out = 0;

    /** Newly created misprimed species (prefix overwritten). */
    size_t misprimed_species = 0;

    /** Total mass amplification factor of the pool. */
    double gain = 0.0;
};

/**
 * Each species' reverse-primer site in one pool, indexed like
 * Pool::species().
 *
 * Where (and whether) the reverse primer anneals depends only on the
 * species' sequence, the reverse primer and the alignment parameters,
 * never on the forward primers of an access. runPcr() fills the memo
 * for species indices it has not seen yet and reuses the rest, so
 * repeated reactions over one pool align the reverse primer once per
 * species. The outputs are identical with and without a memo.
 *
 * Contract:
 *  - It stays valid while its pool grows only through Pool::add() and
 *    Pool::mixIn(): they append species or add mass, and never
 *    reorder species.
 *  - After Pool::dropBelow(), or for a different pool, start from a
 *    fresh memo (`memo = {}`). runPcr() resets it by itself only when
 *    the key below differs or it holds more sites than the pool has
 *    species.
 *  - It belongs to whoever owns the pool and is not thread-safe.
 */
struct ReverseSiteMemo
{
    /** How the reverse primer anneals to one species. */
    struct Site
    {
        bool anneals = false;
        double weight = 0.0;
        size_t template_consumed = 0;
    };

    /** The key the sites were computed under. */
    dna::Sequence reverse;
    size_t max_align_dist = 0;
    size_t three_prime_window = 0;
    double three_prime_factor = 0.0;
    double gap_factor = 0.0;

    std::vector<Site> sites;
};

/**
 * Run a PCR reaction.
 *
 * @param input        the template pool (left unmodified)
 * @param primers      forward primers (1 = simple, >1 = multiplex)
 * @param reverse      the reverse primer; molecules must end with its
 *                     reverse complement to amplify (empty = skip)
 * @param params       reaction parameters
 * @param stats        optional out-param for accounting
 * @param memo         optional reverse-primer sites of @p input,
 *                     carried across calls (see ReverseSiteMemo)
 */
Pool runPcr(const Pool &input, const std::vector<PcrPrimer> &primers,
            const dna::Sequence &reverse, const PcrParams &params,
            PcrStats *stats = nullptr, ReverseSiteMemo *memo = nullptr);

} // namespace dnastore::sim

#endif // DNASTORE_SIM_PCR_H
