/**
 * @file
 * Sequencing model: sample reads from a pool through an IDS noise
 * channel.
 *
 * The number of reads is the unit of sequencing cost in the paper
 * ("the sequencing cost is always proportional to the size of the
 * sequencing output", Section 7.3), so experiments choose read
 * budgets and this model answers what those reads contain. Reads are
 * drawn proportionally to species mass and corrupted with
 * substitution/insertion/deletion errors at Illumina-like rates.
 */

#ifndef DNASTORE_SIM_SEQUENCER_H
#define DNASTORE_SIM_SEQUENCER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "dna/sequence.h"
#include "sim/pool.h"

namespace dnastore::sim {

/** One sequencing read with its ground-truth origin. */
struct Read
{
    dna::Sequence seq;

    /** Index into the pool's species() vector (ground truth only;
     *  decoders must not use it). */
    size_t species_index = 0;
};

/** Error-channel and sampling parameters. */
struct SequencerParams
{
    double sub_rate = 0.003;
    double ins_rate = 0.0007;
    double del_rate = 0.0007;
    uint64_t seed = 7;
};

/**
 * A resumable sequencing run over one pool: next(n) returns the run's
 * next @p n reads.
 *
 * The reads are a function of the pool, @p params and the number of
 * reads drawn before, down to the order of the draws from the
 * "sequencer" stream of params.seed: per read, one nextDouble() picks
 * a species by cumulative mass, then each source base draws insertion
 * checks (each success draws a base), a deletion check and, for a
 * kept base, a substitution check (a success draws one of the three
 * other bases); trailing insertion checks end the read. A zero rate
 * draws nothing. The RNG, the species picker and the write buffer
 * carry across calls, so next(a) then next(b) returns exactly the
 * reads of one next(a + b). WetlabGoldenTest pins the result.
 *
 * The pool must outlive the sequencer and stay unchanged while it
 * runs.
 */
class Sequencer
{
  public:
    Sequencer(const Pool &pool, const SequencerParams &params);
    ~Sequencer();

    /** The next @p n reads of the run. */
    std::vector<Read> next(size_t n);

  private:
    struct State;
    std::unique_ptr<State> state_;
};

/** Draw @p num_reads noisy reads from the pool:
 *  Sequencer(pool, params).next(num_reads). */
std::vector<Read> sequencePool(const Pool &pool, size_t num_reads,
                               const SequencerParams &params);

} // namespace dnastore::sim

#endif // DNASTORE_SIM_SEQUENCER_H
