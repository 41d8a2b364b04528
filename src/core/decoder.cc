#include "core/decoder.h"

#include <algorithm>
#include <utility>

#include "codec/base_codec.h"
#include "common/arena.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "core/layout.h"
#include "dna/distance.h"

namespace dnastore::core {

namespace {

/** One payload candidate recovered for a (block, version, column)
 *  address. */
struct StrandCandidate
{
    Bytes payload;

    /** Reads supporting the reconstruction. */
    size_t cluster_size = 0;

    /** Tree-walk mismatches of the decoded index; misprimed
     *  amplicons typically decode with 1-2 mismatches while true
     *  strands decode exactly, so this ranks candidates. */
    size_t index_mismatches = 0;
};

/** All candidates recovered for one address, sorted best-first:
 *  fewest index mismatches, then most supporting reads. */
struct RecoveredSlot
{
    std::vector<StrandCandidate> candidates;
};

/** Candidate slots per unit, by column; map order is the
 *  deterministic (ascending unit key) decode and emission order. */
using UnitSlots = std::map<UnitKey, std::map<unsigned, RecoveredSlot>>;

/** Everything one unit decode produces, reduced in unit order. */
struct UnitOutcome
{
    UnitKey unit{0, 0};
    bool ok = false;
    Bytes data;  // descrambled raw unit payload, when ok
    size_t candidate_retries = 0;
    size_t symbol_errors_corrected = 0;
    size_t erasures_filled = 0;
    size_t max_row_correction_load = 0;
};

/**
 * Decode one (block, version) unit from its per-column candidate
 * slots: primary candidates first; on failure, swap in alternates one
 * address at a time, then progressively erase the least-trustworthy
 * columns so the outer code can fill them (Section 8.1 fallback).
 */
UnitOutcome
decodeUnitWithFallback(const Partition &partition, const UnitKey &unit,
                       const std::map<unsigned, RecoveredSlot> &columns)
{
    const PartitionConfig &config = partition.config();
    UnitOutcome outcome;
    outcome.unit = unit;

    std::vector<std::optional<Bytes>> primary(config.rs_n);
    for (const auto &[column, slot] : columns)
        primary[column] = slot.candidates.front().payload;

    ecc::UnitDecodeResult decoded =
        partition.unitCodec().decode(primary);
    if (!decoded.ok()) {
        // One reusable trial vector: swap a single column in per
        // attempt and restore it afterwards, instead of deep-copying
        // all n columns for every alternate candidate.
        auto trial = primary;
        for (const auto &[column, slot] : columns) {
            if (decoded.ok())
                break;
            for (size_t alt = 1; alt < slot.candidates.size();
                 ++alt) {
                trial[column] = slot.candidates[alt].payload;
                ++outcome.candidate_retries;
                ecc::UnitDecodeResult attempt =
                    partition.unitCodec().decode(trial);
                if (attempt.ok()) {
                    decoded = std::move(attempt);
                    break;
                }
            }
            trial[column] = primary[column];
        }
    }
    if (!decoded.ok()) {
        // Erase suspect columns, worst first (most index mismatches,
        // fewest supporting reads).
        std::vector<unsigned> order;
        for (const auto &[column, slot] : columns)
            order.push_back(column);
        std::sort(order.begin(), order.end(),
                  [&](unsigned a, unsigned b) {
                      const StrandCandidate &ca =
                          columns.at(a).candidates.front();
                      const StrandCandidate &cb =
                          columns.at(b).candidates.front();
                      if (ca.index_mismatches != cb.index_mismatches)
                          return ca.index_mismatches >
                                 cb.index_mismatches;
                      return ca.cluster_size < cb.cluster_size;
                  });
        size_t max_erase = std::min<size_t>(
            order.size(), config.rs_n - config.rs_k);
        auto trial = primary;
        for (size_t e = 0; e < max_erase && !decoded.ok(); ++e) {
            trial[order[e]].reset();
            ++outcome.candidate_retries;
            ecc::UnitDecodeResult attempt =
                partition.unitCodec().decode(trial);
            if (attempt.ok())
                decoded = std::move(attempt);
        }
    }

    if (!decoded.ok())
        return outcome;
    outcome.ok = true;
    outcome.symbol_errors_corrected = decoded.symbol_errors_corrected;
    outcome.erasures_filled = decoded.erasures_filled;
    outcome.max_row_correction_load = decoded.max_row_correction_load;
    outcome.data = partition.unscrambleUnitRaw(*decoded.data, unit.first,
                                               unit.second);
    return outcome;
}

/**
 * RS-decode every unit of @p units, fanned out across the pool with
 * one decode.rs_unit span each. Units are independent (each reads only
 * its own slots and the const partition codecs); outcomes come back in
 * ascending unit-key order for the caller to fold sequentially.
 */
std::vector<UnitOutcome>
decodeUnits(const Partition &partition, const UnitSlots &units,
            ThreadPool &pool, const telemetry::TraceContext &trace)
{
    std::vector<const UnitSlots::value_type *> list;
    list.reserve(units.size());
    for (const auto &entry : units)
        list.push_back(&entry);
    return pool.parallelMap<UnitOutcome>(list.size(), [&](size_t u) {
        const auto &[unit, columns] = *list[u];
        telemetry::SpanHandle span = trace.span("decode.rs_unit");
        span.attrU64("block", unit.first);
        span.attrU64("version", unit.second);
        UnitOutcome outcome =
            decodeUnitWithFallback(partition, unit, columns);
        span.attrU64("decoded", outcome.ok ? 1 : 0);
        span.end();
        return outcome;
    });
}

/** Best-first candidate order within a slot (Section 8.1 ranking). */
bool
candidateBefore(const StrandCandidate &a, const StrandCandidate &b)
{
    if (a.index_mismatches != b.index_mismatches)
        return a.index_mismatches < b.index_mismatches;
    return a.cluster_size > b.cluster_size;
}

} // namespace

Decoder::Decoder(const Partition &partition, DecoderParams params)
    : partition_(partition), params_(params)
{}

std::map<uint64_t, BlockVersions>
Decoder::decodeAll(std::vector<sim::Read> reads, DecodeStats *stats,
                   ThreadPool &pool,
                   const telemetry::TraceContext &trace) const
{
    std::optional<std::vector<sim::Read>> whole(std::move(reads));
    return decodeChunks(
        [&whole] { return std::exchange(whole, std::nullopt); }, stats,
        pool, trace);
}

std::map<uint64_t, BlockVersions>
Decoder::decodeChunks(const ReadChunks &next, DecodeStats *stats,
                      ThreadPool &pool,
                      const telemetry::TraceContext &trace) const
{
    StreamingDecoder session(partition_, params_);
    while (std::optional<std::vector<sim::Read>> chunk = next())
        session.feed(std::move(*chunk), pool, trace);
    return session.finish(stats, pool, trace);
}

Bytes
Decoder::applyUpdateChain(const Bytes &base, const BlockVersions &chain,
                          std::optional<uint64_t> *overflow_block,
                          unsigned first_slot) const
{
    const PartitionConfig &config = partition_.config();
    Bytes current = base;
    current.resize(config.block_data_bytes);
    if (overflow_block)
        overflow_block->reset();

    for (unsigned version = first_slot;
         version < index::SparseIndexTree::kVersionSlots; ++version) {
        auto it = chain.versions.find(version);
        if (it == chain.versions.end())
            break;  // chain ends at the first missing slot
        std::optional<UpdateRecord> record =
            UpdateRecord::deserialize(it->second);
        if (!record)
            break;
        switch (record->kind) {
          case UpdateRecord::Kind::kInline:
            current = record->op.apply(current,
                                       config.block_data_bytes);
            break;
          case UpdateRecord::Kind::kReplace:
            current = record->replacement;
            current.resize(config.block_data_bytes, 0);
            break;
          case UpdateRecord::Kind::kOverflowPointer:
            if (overflow_block)
                *overflow_block = record->overflow_block;
            return current;
        }
    }
    return current;
}

std::optional<Bytes>
Decoder::decodeBlock(const std::vector<sim::Read> &reads, uint64_t block,
                     DecodeStats *stats,
                     std::optional<uint64_t> *overflow_block,
                     ThreadPool &pool) const
{
    std::map<uint64_t, BlockVersions> all =
        decodeAll(reads, stats, pool);
    auto it = all.find(block);
    if (it == all.end())
        return std::nullopt;
    auto base_it = it->second.versions.find(0);
    if (base_it == it->second.versions.end())
        return std::nullopt;

    Bytes base = base_it->second;
    base.resize(partition_.config().block_data_bytes);
    return applyUpdateChain(base, it->second, overflow_block);
}

// ---------------------------------------------------------------------------
// StreamingDecoder

StreamingDecoder::StreamingDecoder(const Partition &partition,
                                   DecoderParams params,
                                   StreamingParams streaming)
    : partition_(partition), params_(params),
      streaming_(std::move(streaming)), clusterer_(params_.cluster)
{
    eager_ = !streaming_.expected_units.empty();
    for (const UnitKey &unit : streaming_.expected_units)
        expected_remaining_.insert(unit);
}

size_t
StreamingDecoder::feed(std::vector<sim::Read> reads, ThreadPool &pool,
                       const telemetry::TraceContext &trace)
{
    fatalIf(finished_, "StreamingDecoder::feed after finish()");
    stats_.reads_in += reads.size();
    if (complete_) {
        // Early termination: the session stops consuming; skipped
        // reads are counted, never processed (satellite: they must
        // not be misreported as consumed).
        stats_.reads_skipped += reads.size();
        return 0;
    }
    stats_.reads_consumed += reads.size();

    // Step 1: primer filter. The keep/drop decision for a read
    // depends only on that read, so the alignments fan out across the
    // pool and the matches are gathered in input order — the
    // surviving stream is the same for any chunking. An empty chunk
    // still records its (empty) filter span.
    telemetry::SpanHandle filter_span =
        trace.span("decode.primer_filter");
    const dna::Sequence &stem = partition_.elongation().stem();
    // keep[] lives in the caller's arena for the duration of the
    // chunk; workers only write their own slot.
    Arena &arena = Arena::scratch();
    ArenaScope keep_scope(arena);
    uint8_t *keep = arena.allocArray<uint8_t>(reads.size());
    pool.parallelFor(reads.size(), [&](size_t i) {
        dna::PrefixAlignment align = dna::alignPrimerToPrefix(
            stem, reads[i].seq, params_.primer_match_dist);
        keep[i] = align.distance != dna::kDistanceInfinity;
    });
    std::vector<dna::Sequence> filtered;
    filtered.reserve(reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
        if (keep[i])
            filtered.push_back(std::move(reads[i].seq));
    }
    filter_span.attrU64("reads_in", reads.size());
    filter_span.attrU64("matched", filtered.size());
    filter_span.end();
    stats_.reads_primer_matched += filtered.size();
    if (filtered.empty())
        return reads.size();

    // Step 2: online clustering — the chunk joins the running index.
    telemetry::SpanHandle cluster_span = trace.span("decode.cluster");
    std::vector<size_t> joined =
        clusterer_.assignBatch(std::move(filtered), &pool);
    views_.resize(clusterer_.clusters().size());
    cluster_span.attrU64("clusters", clusterer_.clusters().size());
    cluster_span.end();

    if (!eager_)
        return reads.size();  // deferred: finish() runs steps 3-4

    // Step 3: refresh consensus for the clusters this chunk touched
    // (only those big enough to be used), then fire RS attempts for
    // any unit whose column map changed.
    std::sort(joined.begin(), joined.end());
    joined.erase(std::unique(joined.begin(), joined.end()),
                 joined.end());
    std::vector<size_t> usable;
    usable.reserve(joined.size());
    for (size_t c : joined) {
        if (clusterer_.clusters()[c].size() >=
            params_.min_cluster_size)
            usable.push_back(c);
    }
    if (usable.empty())
        return reads.size();

    std::set<UnitKey> changed = refreshClusters(usable, pool, trace);
    const bool was_complete = complete_;
    attemptUnits(changed, pool, trace);
    // The chunk that recovers the last expected unit flips the
    // session complete — the point every later read gets skipped.
    if (!was_complete && complete_)
        trace.event("decode.early_termination");
    return reads.size();
}

std::set<UnitKey>
StreamingDecoder::refreshClusters(const std::vector<size_t> &cluster_ids,
                                  ThreadPool &pool,
                                  const telemetry::TraceContext &trace)
{
    const PartitionConfig &config = partition_.config();
    telemetry::SpanHandle consensus_span =
        trace.span("decode.consensus");
    consensus_span.attrU64("clusters_used", cluster_ids.size());

    // Consensus per cluster depends only on (all reads so far, that
    // cluster's membership) — independent of chunking and of every
    // other cluster — so the runs fan out across the pool and the
    // views update sequentially in ascending cluster id.
    std::vector<std::vector<size_t>> memberships(cluster_ids.size());
    for (size_t i = 0; i < cluster_ids.size(); ++i)
        memberships[i] = clusterer_.clusters()[cluster_ids[i]].members;
    size_t refine_fallbacks = 0;
    std::vector<dna::Sequence> strands = consensus::bmaDoubleSidedBatch(
        clusterer_.reads(), memberships, config.strand_length,
        params_.bma, &pool, &refine_fallbacks);
    consensus_span.attrU64("refine_fallbacks", refine_fallbacks);

    std::set<UnitKey> changed;
    for (size_t i = 0; i < cluster_ids.size(); ++i) {
        size_t c = cluster_ids[i];
        ClusterView &view = views_[c];

        // Unmap the previous consensus of this cluster from its unit
        // before recording the new one.
        if (view.state == ClusterView::State::Mapped) {
            auto unit_it = pending_units_.find(view.unit);
            if (unit_it != pending_units_.end()) {
                auto col_it = unit_it->second.find(view.column);
                if (col_it != unit_it->second.end()) {
                    auto &ids = col_it->second;
                    ids.erase(std::remove(ids.begin(), ids.end(), c),
                              ids.end());
                    if (ids.empty())
                        unit_it->second.erase(col_it);
                    if (unit_it->second.empty())
                        pending_units_.erase(unit_it);
                    changed.insert(view.unit);
                }
            }
        }
        view.members_at_consensus = clusterer_.clusters()[c].size();
        view.state = ClusterView::State::Unparsed;

        std::optional<StrandFields> fields =
            parseStrand(config, strands[i]);
        if (!fields)
            continue;
        index::IndexMatch match =
            partition_.tree().decodeNearest(fields->address);
        if (match.mismatches > params_.max_index_mismatches) {
            view.state = ClusterView::State::IndexReject;
            continue;
        }
        unsigned column = decodeIntra(config, fields->intra);
        if (column >= config.rs_n) {
            view.state = ClusterView::State::IndexReject;
            continue;
        }

        view.state = ClusterView::State::Mapped;
        view.unit = {match.block, match.version};
        view.column = column;
        view.payload = codec::basesToBytes(fields->payload);
        view.index_mismatches = match.mismatches;
        if (!completed_.count(view.unit)) {
            pending_units_[view.unit][column].push_back(c);
            changed.insert(view.unit);
        }
    }
    consensus_span.end();
    return changed;
}

void
StreamingDecoder::attemptUnits(const std::set<UnitKey> &changed,
                               ThreadPool &pool,
                               const telemetry::TraceContext &trace)
{
    const PartitionConfig &config = partition_.config();
    // An accepted early decode must keep a reliability margin of at
    // least 3: with f erasures filled and e symbols corrected, a
    // wrong-but-"successful" decode needs >= d - f - 2e genuinely
    // wrong consensus columns at once (d = rs_n - rs_k + 1). At
    // exactly rs_k columns the margin is zero — errors-and-erasures
    // degenerates to interpolation and a single wrong column yields a
    // confidently wrong payload, which is how the original streaming
    // bug corrupted early emissions. The default attempt threshold
    // admits just enough missing columns that a clean decode can
    // still clear the margin, so a structurally thin column does not
    // block early termination forever.
    const size_t distance = config.rs_n - config.rs_k + 1;
    const size_t slack = distance > 3 ? distance - 3 : 0;
    const size_t threshold = streaming_.attempt_columns
                                 ? streaming_.attempt_columns
                                 : config.rs_n - slack;

    // Build candidate slots per coverage-sufficient unit: within a
    // column, contributors rank best-first (fewest index mismatches,
    // most supporting reads, then cluster id as a total tiebreak),
    // capped at max_candidates_per_address like finish().
    UnitSlots slots;
    for (const UnitKey &unit : changed) {
        auto it = pending_units_.find(unit);
        if (it == pending_units_.end() || it->second.size() < threshold)
            continue;
        for (const auto &[column, ids] : it->second) {
            std::vector<size_t> ranked = ids;
            std::sort(
                ranked.begin(), ranked.end(),
                [&](size_t a, size_t b) {
                    const ClusterView &va = views_[a];
                    const ClusterView &vb = views_[b];
                    if (va.index_mismatches != vb.index_mismatches)
                        return va.index_mismatches <
                               vb.index_mismatches;
                    size_t sa = clusterer_.clusters()[a].size();
                    size_t sb = clusterer_.clusters()[b].size();
                    if (sa != sb)
                        return sa > sb;
                    return a < b;
                });
            RecoveredSlot &slot = slots[unit][column];
            size_t take = std::min(
                ranked.size(), params_.max_candidates_per_address);
            for (size_t i = 0; i < take; ++i) {
                StrandCandidate candidate;
                candidate.payload = views_[ranked[i]].payload;
                candidate.cluster_size =
                    clusterer_.clusters()[ranked[i]].size();
                candidate.index_mismatches =
                    views_[ranked[i]].index_mismatches;
                slot.candidates.push_back(std::move(candidate));
            }
        }
    }

    // A failed probe is not stats-visible — the unit re-attempts the
    // next time its column map changes, and only its terminal decode
    // counts (keeping eager stats comparable to deferred stats).
    for (UnitOutcome &outcome : decodeUnits(partition_, slots, pool, trace)) {
        if (!outcome.ok)
            continue;
        // An early emission freezes the payload, so it must be
        // trustworthy on partial evidence: enforce the reliability
        // margin described above on the unit's weakest codeword
        // (f + 2e <= d - 3 per row, so a wrong accept needs at least
        // 3 genuinely wrong symbols in one row at once). A decode
        // whose worst row burned more of the code's distance on
        // erasure fallback or corrections can be a confident
        // mis-correction while clusters are still small — defer it to
        // the next column-map change or to finish(), where the full
        // read set backs the consensus.
        if (outcome.max_row_correction_load > slack)
            continue;
        ++stats_.units_attempted;
        ++stats_.units_decoded;
        stats_.candidate_retries += outcome.candidate_retries;
        stats_.symbol_errors_corrected +=
            outcome.symbol_errors_corrected;
        stats_.erasures_filled += outcome.erasures_filled;
        emitUnit(outcome.unit, std::move(outcome.data), true);
    }
}

void
StreamingDecoder::emitUnit(const UnitKey &unit, Bytes payload,
                           bool early)
{
    if (early) {
        ++stats_.units_emitted_early;
        pending_units_.erase(unit);
    }
    auto [it, inserted] = completed_.emplace(unit, std::move(payload));
    (void)inserted;
    emitted_.push_back({unit.first, unit.second, it->second});
    if (streaming_.on_unit)
        streaming_.on_unit(unit.first, unit.second, it->second);
    if (!expected_remaining_.empty()) {
        expected_remaining_.erase(unit);
        if (expected_remaining_.empty())
            complete_ = true;
    }
}

std::map<uint64_t, BlockVersions>
StreamingDecoder::finish(DecodeStats *stats, ThreadPool &pool,
                         const telemetry::TraceContext &trace)
{
    fatalIf(finished_, "StreamingDecoder::finish called twice");
    finished_ = true;

    // Bring consensus up to date for every usable cluster that grew
    // since its last refresh. Deferred mode: that is all of them, so
    // steps 3-4 below run over the full accumulated state.
    // Early-terminated sessions skip this — their pending attempts
    // are cancelled, not completed.
    views_.resize(clusterer_.clusters().size());
    if (!complete_) {
        std::vector<size_t> stale;
        for (size_t c = 0; c < views_.size(); ++c) {
            const cluster::Cluster &cl = clusterer_.clusters()[c];
            if (cl.size() >= params_.min_cluster_size &&
                views_[c].members_at_consensus != cl.size())
                stale.push_back(c);
        }
        if (!stale.empty())
            refreshClusters(stale, pool, trace);
    }

    // Step 3: assemble per-address candidate slots from the clusters
    // by decreasing size (the size cutoff is a prefix); the first
    // reconstruction per address is primary, later ones are alternate
    // candidates for the Section 8.1 fallback. This defines the
    // cluster/strand accounting in every mode; in non-complete
    // sessions it also feeds the RS sweep below.
    std::vector<size_t> order(clusterer_.clusters().size());
    for (size_t c = 0; c < order.size(); ++c)
        order[c] = c;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return clusterer_.clusters()[a].size() >
               clusterer_.clusters()[b].size();
    });

    stats_.clusters_total = clusterer_.clusters().size();
    UnitSlots recovered;
    for (size_t c : order) {
        const cluster::Cluster &cl = clusterer_.clusters()[c];
        if (cl.size() < params_.min_cluster_size)
            break;  // sorted: the rest are below the cutoff too
        ++stats_.clusters_used;
        const ClusterView &view = views_[c];
        if (view.state == ClusterView::State::Unparsed)
            continue;
        if (view.state == ClusterView::State::IndexReject) {
            ++stats_.index_rejects;
            continue;
        }
        RecoveredSlot &slot = recovered[view.unit][view.column];
        if (!slot.candidates.empty())
            ++stats_.duplicate_addresses;
        if (slot.candidates.size() <
            params_.max_candidates_per_address) {
            StrandCandidate candidate;
            candidate.payload = view.payload;
            candidate.cluster_size = cl.size();
            candidate.index_mismatches = view.index_mismatches;
            slot.candidates.push_back(std::move(candidate));
            ++stats_.strands_recovered;
        }
    }

    // Step 4: RS-decode every unit not already emitted. An
    // early-terminated session decodes nothing further.
    std::erase_if(recovered, [&](const UnitSlots::value_type &entry) {
        return complete_ || completed_.count(entry.first) > 0;
    });
    // Rank candidates: exact-index reconstructions from big clusters
    // first; misprimed amplicons sink to the back (Section 8.1).
    for (auto &[unit, columns] : recovered) {
        for (auto &[column, slot] : columns)
            std::sort(slot.candidates.begin(), slot.candidates.end(),
                      candidateBefore);
    }
    for (UnitOutcome &outcome :
         decodeUnits(partition_, recovered, pool, trace)) {
        ++stats_.units_attempted;
        stats_.candidate_retries += outcome.candidate_retries;
        if (!outcome.ok) {
            ++stats_.units_failed;
            continue;
        }
        ++stats_.units_decoded;
        stats_.symbol_errors_corrected +=
            outcome.symbol_errors_corrected;
        stats_.erasures_filled += outcome.erasures_filled;
        emitUnit(outcome.unit, std::move(outcome.data), false);
    }

    std::map<uint64_t, BlockVersions> result;
    for (const auto &[unit, payload] : completed_)
        result[unit.first].versions[unit.second] = payload;
    if (stats)
        *stats = stats_;
    return result;
}

} // namespace dnastore::core
