#include "sim/pool.h"

#include <algorithm>

#include "common/error.h"

namespace dnastore::sim {

void
Pool::add(dna::Sequence seq, const SpeciesInfo &info, double mass)
{
    panicIf(mass < 0.0, "Pool::add: negative mass");
    auto [it, inserted] =
        by_sequence_.try_emplace(seq.str(), species_.size());
    if (!inserted) {
        species_[it->second].mass += mass;
        return;
    }
    species_.push_back(Species{std::move(seq), info, mass});
}

std::optional<size_t>
Pool::indexOf(const dna::Sequence &seq) const
{
    auto it = by_sequence_.find(seq.str());
    if (it == by_sequence_.end())
        return std::nullopt;
    return it->second;
}

double
Pool::totalMass() const
{
    double total = 0.0;
    for (const Species &s : species_)
        total += s.mass;
    return total;
}

void
Pool::scale(double factor)
{
    fatalIf(factor < 0.0, "Pool::scale: negative factor");
    for (Species &s : species_)
        s.mass *= factor;
}

void
Pool::normalizeTo(double target)
{
    double total = totalMass();
    fatalIf(total <= 0.0, "Pool::normalizeTo: empty pool");
    scale(target / total);
}

void
Pool::mixIn(const Pool &other, double factor)
{
    for (const Species &s : other.species())
        add(s.seq, s.info, s.mass * factor);
}

void
Pool::dropBelow(double min_mass)
{
    std::vector<Species> kept;
    kept.reserve(species_.size());
    for (Species &s : species_) {
        if (s.mass >= min_mass)
            kept.push_back(std::move(s));
    }
    species_ = std::move(kept);
    by_sequence_.clear();
    for (size_t i = 0; i < species_.size(); ++i)
        by_sequence_.emplace(species_[i].seq.str(), i);
}

} // namespace dnastore::sim
