#include "sim/pcr.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/error.h"
#include "dna/distance.h"

namespace dnastore::sim {

std::vector<double>
touchdownSchedule(unsigned touchdown_cycles, unsigned total_cycles,
                  double start_multiplier)
{
    fatalIf(touchdown_cycles > total_cycles,
            "touchdown cycles exceed total cycles");
    std::vector<double> schedule(total_cycles, 1.0);
    for (unsigned c = 0; c < touchdown_cycles; ++c) {
        double t = touchdown_cycles <= 1
                       ? 1.0
                       : static_cast<double>(c) /
                             static_cast<double>(touchdown_cycles - 1);
        schedule[c] = start_multiplier + t * (1.0 - start_multiplier);
    }
    return schedule;
}

namespace {

using Site = ReverseSiteMemo::Site;

/** Working state of one species during the cycle loop. */
struct Strand
{
    /** An input species' sequence, or one in the amplicon store. */
    const dna::Sequence *seq = nullptr;
    SpeciesInfo info;
    double mass = 0.0;
};

/** How one forward primer anneals to a strand. */
struct Binding
{
    bool anneals = false;
    double weighted_mismatch = 0.0;
    size_t amplicon = SIZE_MAX;  // index into the strand table
};

/** A strand with at least one annealing binding; its bindings are
 *  bindings[first_binding, first_binding + primers.size()). */
struct ActiveStrand
{
    size_t strand = 0;
    size_t first_binding = 0;
};

/**
 * Reverse primer binding (shared by all forward primers): the
 * reverse primer anneals to the 3' end of the sense strand, i.e. to
 * the prefix of the reverse complement. A plain 20-base reverse
 * primer binds its site exactly; an *elongated* reverse primer
 * (Section 7.7.1, two-sided extension) accrues the same mismatch
 * penalties as the forward one.
 */
Site
reverseSite(const dna::Sequence &seq, const dna::Sequence &reverse,
            const PcrParams &params)
{
    if (reverse.empty())
        return Site{true, 0.0, 0};
    // alignPrimerWeighted reads at most |reverse| + band template
    // bases, so complementing only that tail of the strand gives the
    // same alignment as the whole antisense strand.
    size_t tail =
        std::min(seq.size(), reverse.size() + params.max_align_dist);
    dna::WeightedAlignment align = dna::alignPrimerWeighted(
        reverse, seq.substr(seq.size() - tail).reverseComplement(),
        params.max_align_dist, params.three_prime_window,
        params.three_prime_factor, params.gap_factor);
    if (align.cost >= dna::kWeightInfinity)
        return Site{};
    return Site{true, align.cost, align.template_consumed};
}

/** Start @p memo over unless it belongs to this reverse primer, these
 *  alignment parameters and a pool at least as large as @p input. */
void
keyMemo(ReverseSiteMemo &memo, const Pool &input,
        const dna::Sequence &reverse, const PcrParams &params)
{
    if (memo.reverse == reverse &&
        memo.max_align_dist == params.max_align_dist &&
        memo.three_prime_window == params.three_prime_window &&
        memo.three_prime_factor == params.three_prime_factor &&
        memo.gap_factor == params.gap_factor &&
        memo.sites.size() <= input.speciesCount())
        return;
    memo = ReverseSiteMemo{reverse,
                           params.max_align_dist,
                           params.three_prime_window,
                           params.three_prime_factor,
                           params.gap_factor,
                           {}};
}

} // namespace

Pool
runPcr(const Pool &input, const std::vector<PcrPrimer> &primers,
       const dna::Sequence &reverse, const PcrParams &params,
       PcrStats *stats, ReverseSiteMemo *memo)
{
    fatalIf(primers.empty(), "runPcr: no forward primers");

    ReverseSiteMemo call_memo;
    ReverseSiteMemo &site_memo = memo ? *memo : call_memo;
    keyMemo(site_memo, input, reverse, params);

    const std::string reverse_site = reverse.reverseComplement().str();

    // Strands [0, input size) are the input species, in order (a
    // pool's sequences are distinct). Amplicons the input lacks are
    // appended as they are first created; the deque keeps their
    // sequences, and the map's keys into them, in place.
    const std::vector<Species> &species = input.species();
    std::vector<Strand> strands;
    strands.reserve(species.size());
    for (const Species &s : species)
        strands.push_back(Strand{&s.seq, s.info, s.mass});
    std::deque<dna::Sequence> amplicons;
    std::unordered_map<std::string_view, size_t> amplicon_index;

    auto internAmplicon = [&](dna::Sequence seq,
                              const SpeciesInfo &info) -> size_t {
        if (std::optional<size_t> in_input = input.indexOf(seq))
            return *in_input;
        auto it = amplicon_index.find(seq.str());
        if (it != amplicon_index.end())
            return it->second;
        size_t idx = strands.size();
        const dna::Sequence &stored = amplicons.emplace_back(std::move(seq));
        amplicon_index.emplace(stored.str(), idx);
        strands.push_back(Strand{&stored, info, 0.0});
        return idx;
    };

    // One aligner per forward primer. Strands are bound in index
    // order, and neighbouring species share most of the primer's
    // window (a block's molecules share its index), so each
    // alignment recomputes only the rows past the shared prefix.
    std::vector<dna::PrimerAligner> aligners;
    aligners.reserve(primers.size());
    for (const PcrPrimer &primer : primers) {
        aligners.emplace_back(primer.fwd, params.max_align_dist,
                              params.three_prime_window,
                              params.three_prime_factor,
                              params.gap_factor);
    }

    size_t misprimed_created = 0;
    std::vector<Binding> bindings;
    std::vector<ActiveStrand> active;  // ascending strand index

    // How each primer binds strand @p idx and which amplicon species
    // it produces. Strands without an annealing binding never copy,
    // so they are not recorded.
    auto bind = [&](size_t idx) {
        const dna::Sequence &seq = *strands[idx].seq;
        // A copy: interning an amplicon below may grow the strand
        // table.
        const SpeciesInfo info = strands[idx].info;
        Site rev;
        if (idx < species.size()) {
            std::vector<Site> &sites = site_memo.sites;
            while (sites.size() <= idx) {
                sites.push_back(
                    reverseSite(species[sites.size()].seq, reverse, params));
            }
            rev = sites[idx];
        } else {
            rev = reverseSite(seq, reverse, params);
        }
        if (!rev.anneals)
            return;

        const size_t first = bindings.size();
        bindings.resize(first + primers.size());
        bool any = false;
        for (size_t p = 0; p < primers.size(); ++p) {
            const dna::Sequence &fwd = primers[p].fwd;
            const dna::WeightedAlignment align = aligners[p].align(seq);
            if (align.cost >= dna::kWeightInfinity)
                continue;
            if (align.template_consumed + rev.template_consumed >
                seq.size()) {
                continue;  // primers would overlap
            }
            double weighted = align.cost + rev.weight;

            // Do not materialize amplicons that could never convert
            // measurable mass: without this gate a multiplex
            // reaction chains amplicons of amplicons into an
            // exponential species explosion.
            double best_efficiency =
                params.efficiency_max *
                primers[p].relative_concentration *
                std::exp(-params.mismatch_penalty *
                         std::pow(weighted,
                                  params.mismatch_exponent));
            if (best_efficiency < params.min_efficiency)
                continue;
            Binding binding;
            binding.anneals = true;
            binding.weighted_mismatch = weighted;

            // The amplicon is delimited and overwritten by the two
            // primers: mismatches under either primer are replaced
            // by the primer's own sequence (paper Section 8.1).
            std::string amplicon_seq;
            amplicon_seq.reserve(fwd.size() + seq.size() +
                                 reverse_site.size());
            amplicon_seq += fwd.str();
            amplicon_seq.append(seq.str(), align.template_consumed,
                                seq.size() - align.template_consumed -
                                    rev.template_consumed);
            amplicon_seq += reverse_site;
            if (amplicon_seq == seq.str()) {
                binding.amplicon = idx;
            } else {
                SpeciesInfo amplicon_info = info;
                amplicon_info.misprimed = true;
                binding.amplicon = internAmplicon(
                    dna::Sequence(std::move(amplicon_seq)),
                    amplicon_info);
                ++misprimed_created;
            }
            bindings[first + p] = binding;
            any = true;
        }
        if (any)
            active.push_back(ActiveStrand{idx, first});
        else
            bindings.resize(first);
    };

    const double input_mass = input.totalMass();
    size_t bound = 0;  // strands [0, bound) have been bound
    std::vector<double> delta;
    std::vector<double> efficiencies(primers.size(), 0.0);

    for (unsigned cycle = 0; cycle < params.cycles; ++cycle) {
        double stringency = 1.0;
        if (cycle < params.stringency.size())
            stringency = params.stringency[cycle];

        // Bindings for every strand alive at the start of the cycle;
        // amplicons created here first amplify next cycle.
        for (const size_t alive = strands.size(); bound < alive; ++bound)
            bind(bound);
        delta.resize(strands.size(), 0.0);

        for (const ActiveStrand &a : active) {
            const Strand &strand = strands[a.strand];
            if (strand.mass <= 0.0)
                continue;
            const Binding *strand_bindings = &bindings[a.first_binding];
            // Primers compete for the same template: a molecule can
            // be copied at most once per cycle, so the per-primer
            // efficiencies are rescaled if they sum beyond the
            // single-copy maximum.
            double total = 0.0;
            for (size_t p = 0; p < primers.size(); ++p) {
                const Binding &binding = strand_bindings[p];
                efficiencies[p] = 0.0;
                if (!binding.anneals)
                    continue;
                double efficiency =
                    params.efficiency_max *
                    primers[p].relative_concentration *
                    std::exp(-params.mismatch_penalty * stringency *
                             std::pow(binding.weighted_mismatch,
                                      params.mismatch_exponent));
                if (efficiency < params.min_efficiency)
                    continue;
                efficiencies[p] = std::min(efficiency, 1.0);
                total += efficiencies[p];
            }
            double scale =
                total > params.efficiency_max
                    ? params.efficiency_max / total
                    : 1.0;
            for (size_t p = 0; p < primers.size(); ++p) {
                if (efficiencies[p] <= 0.0)
                    continue;
                delta[strand_bindings[p].amplicon] +=
                    strand.mass * efficiencies[p] * scale;
            }
        }
        // Only active strands' amplicons can have a delta (x + 0.0 ==
        // x elsewhere); zeroing each after use makes repeats no-ops.
        for (const ActiveStrand &a : active) {
            for (size_t p = 0; p < primers.size(); ++p) {
                const Binding &binding = bindings[a.first_binding + p];
                if (!binding.anneals)
                    continue;
                strands[binding.amplicon].mass += delta[binding.amplicon];
                delta[binding.amplicon] = 0.0;
            }
        }
    }

    Pool output;
    for (const Strand &strand : strands) {
        if (strand.mass > 0.0)
            output.add(*strand.seq, strand.info, strand.mass);
    }
    if (stats) {
        stats->species_out = output.speciesCount();
        stats->misprimed_species = misprimed_created;
        stats->gain =
            input_mass > 0.0 ? output.totalMass() / input_mass : 0.0;
    }
    return output;
}

} // namespace dnastore::sim
