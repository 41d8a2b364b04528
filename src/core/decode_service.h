/**
 * @file
 * DecodeService: asynchronous batch decoding over one shared pool,
 * with per-tenant admission control, fair scheduling, and telemetry.
 *
 * Decoder::decodeAll is synchronous: it blocks its caller while the
 * stages fork on a pool (ThreadPool::shared() by default). A device
 * serving heavy traffic instead wants to enqueue work (a batch of
 * read sets, one per partition) and collect futures. The service
 * owns its own long-lived ThreadPool and per-tenant submission
 * queues drained by a weighted-deficit-round-robin dispatcher:
 *
 *  - a batch's per-partition jobs are sharded across the pool and run
 *    concurrently, while each job's internal decode stages fork on
 *    the same pool (the nested fork-join the multi-job ThreadPool
 *    supports);
 *  - each job's result is exactly what a sequential decodeAll of that
 *    read set would produce (the per-stage index-addressed slots keep
 *    every decode byte-identical for any thread count), and the
 *    batch's promises are fulfilled in submission order;
 *  - an exception inside one partition's job surfaces through that
 *    job's future only — sibling futures in the batch still deliver.
 *
 * Tenancy: every request names a TenantId (kDefaultTenant when the
 * caller doesn't care — one submitBatch is one tenant's work, mixed
 * batches throw FatalError). Configured tenants
 * (DecodeServiceParams::tenants) carry a token-bucket admission
 * contract, a WDRR weight, and an optional per-tenant queue-depth
 * cap; see core/tenant.h for the exact bucket semantics. The
 * dispatcher serves queued tenants round-robin in activation order,
 * granting each `weight` requests' worth of deficit per round, so
 * under saturation dispatch counts match the weight ratio exactly
 * for any pool size, and no backlogged tenant can be starved: a
 * flooding tenant only ever delays others by one round. The default
 * tenant with no configured TenantParams preserves the untenanted
 * service behavior byte-for-byte (single queue, FIFO dispatch, no
 * bucket, no per-tenant instruments).
 *
 * Admission control: max_queue_depth bounds the requests admitted but
 * not yet fulfilled, service-wide; TenantParams::max_queue_depth adds
 * a per-tenant bound. A submission that would exceed either bound
 * blocks the submitter until space frees (OverflowPolicy::Block, the
 * default) or is shed (OverflowPolicy::Reject): every future of the
 * shed batch resolves immediately with DecodeStatus::Overloaded — a
 * typed outcome, never an exception thrown across threads, so remote
 * callers can retry or back off. Blocked submitters are ticketed and
 * admitted strictly in the order they arrived (no barging, no
 * spurious-wakeup lottery). A batch that exceeds a tenant's token
 * bucket is shed with DecodeStatus::Throttled regardless of policy —
 * rate contracts are never converted into blocking. A batch larger
 * than an applicable bound can never be admitted and is rejected at
 * the call site with FatalError.
 *
 * Telemetry: point DecodeServiceParams::metrics at a registry (which
 * must outlive the service) and the service records, per request,
 * queue latency (submit → job start) and decode latency into
 * fixed-bucket histograms, plus submitted/decoded/failed/rejected/
 * throttled counters and in-flight / pool-occupancy gauges.
 * Explicitly configured tenants — and any non-default tenant seen at
 * runtime — additionally get per-tenant admitted/rejected/throttled/
 * dispatched counters and a queue-latency histogram under
 * `decode_service.tenant.<id>.*`. See README "Storage frontend &
 * telemetry" for the exact metric names.
 *
 * Determinism hooks (used by tests/support/scheduler_harness and
 * src/workload): `clock_us` replaces the time source — token-bucket
 * refills AND queue/decode latency stamps — with a virtual clock,
 * `on_dispatch` observes the exact dispatch order from the dispatcher
 * thread, and `start_paused` + resumeDispatch() let a test script an
 * entire contended backlog before a single batch runs. Under an
 * injected clock the latency histograms are byte-reproducible.
 *
 * Fed requests: submit() also takes a ReadFeedWriter in place of a
 * complete read set, so a client can submit right after PCR and push
 * its reads in chunks while it sequences them (BlockDevice::readRange
 * and readAll do). A fed request is billed exactly like a complete one:
 * one admission (token, queue slot, ticket line), one WDRR dispatch,
 * one request/admission/queue/decode span each and one outcome. It is
 * always a one-item batch and runs inline on the dispatcher, which
 * pulls its chunks into one deferred decode session (per chunk a
 * decode.primer_filter and decode.cluster span, plus a
 * decode.feed_wait span for the time spent waiting for it) and so
 * may wait for the producer between chunks; no pool worker ever
 * waits on a feed.
 *
 * Shutdown drains: pending batches are decoded, not dropped, before
 * the dispatcher exits (dispatch resumes if paused), so destroying
 * the service never leaves a broken promise. Submissions after
 * shutdown are rejected with FatalError; a submitter blocked on a
 * full queue when shutdown() lands is woken and also fails with
 * FatalError. Draining a fed request waits for its producer to close
 * (or drop) its ReadFeedWriter, so close it before shutting down.
 */

#ifndef DNASTORE_CORE_DECODE_SERVICE_H
#define DNASTORE_CORE_DECODE_SERVICE_H

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>  // std::once_flag only; locks are common/sync.h
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/decoder.h"
#include "core/read_feed.h"
#include "core/tenant.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace dnastore::core {

/** What happens to a submission that would overflow the queue. */
enum class OverflowPolicy
{
    /** Block the submitter until the queue has room; waiters are
     *  admitted strictly in arrival order — one global line, so a
     *  head waiter parked on its own tenant's queue-depth cap delays
     *  later submitters of other tenants until its tenant drains.
     *  That coupling is the price of total admission order; tenants
     *  that need isolation from each other's backpressure should
     *  bound themselves with token buckets or Reject-policy caps,
     *  which never park anyone. */
    Block,

    /** Shed the batch: futures resolve with DecodeStatus::Overloaded. */
    Reject,
};

/** Service-wide knobs. */
struct DecodeServiceParams
{
    /** Worker threads of the service's own pool (0 = hardware
     *  concurrency); this pool is not ThreadPool::shared(), which
     *  serves synchronous decodes. Partition jobs and their internal
     *  stages share these workers. */
    size_t threads = 0;

    /** Maximum requests admitted but not yet fulfilled (queued plus
     *  decoding); 0 = unbounded. One submitBatch() must fit whole:
     *  batches larger than this throw FatalError. */
    size_t max_queue_depth = 0;

    /** Applied when a submission would exceed max_queue_depth or a
     *  tenant's own cap. */
    OverflowPolicy overflow = OverflowPolicy::Block;

    /** Per-tenant admission contracts and WDRR weights. Tenants not
     *  listed here get TenantParams{} (weight 1, no bucket, no cap);
     *  a listed weight of 0 throws FatalError at construction. */
    std::map<TenantId, TenantParams> tenants;

    /** Optional metrics sink; not owned, must outlive the service.
     *  nullptr disables instrumentation. */
    telemetry::MetricsRegistry *metrics = nullptr;

    /** Optional trace collector; not owned, must outlive the service.
     *  When set, every request whose DecodeRequest::trace is inactive
     *  gets its own "request"-rooted trace (admission, queue, decode
     *  stage spans); requests that arrive with an active context —
     *  e.g. under a StorageFrontend root span — join that trace
     *  instead. nullptr (the default) disables service-rooted
     *  tracing; span operations then cost one branch each. */
    telemetry::TraceCollector *tracer = nullptr;

    /** Bucket bounds for the queue/decode latency histograms
     *  (service-wide and per-tenant). Empty = defaultLatencyBoundsUs()
     *  (decade grid). The workload simulator passes
     *  fineLatencyBoundsUs() so p99/p999 extraction has usable
     *  resolution. All services sharing one registry must agree
     *  (bounds are fixed per name). */
    std::vector<uint64_t> latency_bounds_us;

    /** Time source for the token buckets AND the queue/decode latency
     *  stamps, in microseconds. Leave empty for steady_clock; tests
     *  and the workload simulator inject a virtual clock so refill
     *  decisions — and latency histograms — are asserted exactly,
     *  not statistically. */
    std::function<uint64_t()> clock_us;

    /** Observer invoked from the dispatcher thread, in dispatch
     *  order, just before each batch runs: (tenant, request count).
     *  Must not call back into the service. */
    std::function<void(TenantId, size_t)> on_dispatch;

    /** Construct with dispatch paused (submissions queue up but
     *  nothing runs) until resumeDispatch(); shutdown() resumes
     *  automatically so draining always completes. */
    bool start_paused = false;
};

/** One partition's unit of work within a batch. */
struct DecodeRequest
{
    /** Decoder bound to the partition the reads came from. Must stay
     *  alive until the request's future is ready; a decoder destroyed
     *  while the request is still queued is caught at dispatch and
     *  surfaces as FatalError through the future. */
    const Decoder *decoder = nullptr;

    std::vector<sim::Read> reads;

    /** Tenant this request is billed to. All requests of one
     *  submitBatch must agree. */
    TenantId tenant = kDefaultTenant;

    /** Trace context this request runs under (e.g. a StorageFrontend
     *  root span's). Inactive by default — the service then roots a
     *  fresh trace itself when DecodeServiceParams::tracer is set. */
    telemetry::TraceContext trace;
};

/** How a request left the service. */
enum class DecodeStatus
{
    Ok,

    /** Shed by OverflowPolicy::Reject before any decoding ran;
     *  units/stats are empty. */
    Overloaded,

    /** Shed by the tenant's token bucket before any decoding ran;
     *  units/stats are empty. Applies under either overflow policy —
     *  a rate contract never blocks the submitter. */
    Throttled,

    /** A stream chunk that arrived after its session had already
     *  recovered every expected unit: the reads were counted as
     *  skipped, never processed. Stream chunks only. */
    Skipped,

    /** A stream finished with at least one expected unit still
     *  unrecovered; `units` holds everything that did decode and the
     *  missing units' futures resolve as Incomplete. Stream finish
     *  outcomes only. */
    Partial,
};

/** What a request's future delivers. */
struct DecodeOutcome
{
    DecodeStatus status = DecodeStatus::Ok;
    std::map<uint64_t, BlockVersions> units;
    DecodeStats stats;

    bool operator==(const DecodeOutcome &) const = default;
};

/**
 * Thrown by synchronous read frontends (StorageFrontend, the routed
 * BlockDevice/PoolManager paths) when a Reject-policy service sheds
 * the request. Distinct from FatalError: the request was well-formed,
 * the service was merely saturated — retry or back off.
 */
class OverloadedError : public std::runtime_error
{
  public:
    explicit OverloadedError(const std::string &msg)
        : std::runtime_error("overloaded: " + msg)
    {}
};

/**
 * Thrown by synchronous read frontends when the caller's tenant
 * token bucket sheds the request. Derives from OverloadedError so
 * existing back-off handlers keep working; catch ThrottledError
 * first to distinguish a rate-contract breach from plain saturation.
 */
class ThrottledError : public OverloadedError
{
  public:
    explicit ThrottledError(const std::string &msg)
        : OverloadedError("throttled: " + msg)
    {}
};

class DecodeService;

/**
 * The units of a routed request's @p outcome, with its stats copied
 * into @p stats when non-null. A shed request throws instead:
 * ThrottledError when the tenant's token bucket shed it,
 * OverloadedError when the service did, each message naming
 * @p caller.
 */
std::map<uint64_t, BlockVersions> routedUnits(DecodeOutcome outcome,
                                              DecodeStats *stats,
                                              const char *caller);

/**
 * Decode @p reads with @p decoder: synchronously on
 * ThreadPool::shared() when @p service is null, else as one request
 * to @p service billed to @p tenant, whose outcome routedUnits()
 * unpacks (so a shed request throws, naming @p caller).
 */
std::map<uint64_t, BlockVersions> decodeReads(
    const Decoder &decoder, std::vector<sim::Read> reads,
    DecodeStats *stats, DecodeService *service, TenantId tenant,
    const telemetry::TraceContext &trace, const char *caller);

/** How one expected unit of a stream resolved. */
enum class UnitStatus
{
    /** The unit decoded; `payload` is byte-identical to what a
     *  one-shot decodeAll of the full read set would produce. */
    Decoded,

    /** The stream finished before the unit ever became decodable;
     *  `payload` is empty. */
    Incomplete,
};

/** What a per-unit completion future delivers. */
struct StreamUnitResult
{
    UnitStatus status = UnitStatus::Incomplete;
    uint64_t block = 0;
    unsigned version = 0;
    Bytes payload;

    bool operator==(const StreamUnitResult &) const = default;
};

/** Parameters of one streaming decode session. */
struct StreamParams
{
    /** Decoder bound to the partition the stream reads from. Must
     *  outlive the stream (same liveness contract as
     *  DecodeRequest::decoder). */
    const Decoder *decoder = nullptr;

    /** Tenant every chunk of this stream is billed to. */
    TenantId tenant = kDefaultTenant;

    /** Units whose recovery completes the session early; each gets a
     *  completion future (DecodeStream::unitFuture). Empty = deferred
     *  mode: no early attempts, and finish() decodes everything at
     *  once, as decodeAll does (see StreamingParams::expected_units). */
    std::vector<UnitKey> expected_units;

    /** See StreamingParams::attempt_columns (0 = the margin-derived
     *  default; early accepts always keep reliability margin >= 3). */
    size_t attempt_columns = 0;

    /** Trace context the session's "stream" span joins (same
     *  contract as DecodeRequest::trace: inactive = the service
     *  roots its own trace when it has a tracer). */
    telemetry::TraceContext trace;
};

/**
 * Handle to one streaming decode session on a DecodeService. Obtained
 * from DecodeService::openStream; copyable (all copies share the
 * session). Each chunk submitted through feed() is a one-request
 * batch: it passes the same admission control as batch submissions
 * (token bucket, queue depth, WDRR dispatch) and chunks are processed
 * strictly in submission order, so the session sees the exact chunk
 * sequence the caller fed.
 *
 * The service must outlive every handle. finish() must be called to
 * resolve outstanding unit futures (dropping the last handle without
 * finishing breaks them with std::future_error instead).
 */
class DecodeStream
{
  public:
    /**
     * Submit one chunk. The future resolves after the chunk is
     * processed: Ok (with the session's running stats) when consumed,
     * Skipped when the session had already completed, Overloaded /
     * Throttled when admission shed the chunk before it reached the
     * session. Throws FatalError after finish() was called or after
     * service shutdown.
     */
    std::future<DecodeOutcome> feed(std::vector<sim::Read> reads);

    /**
     * Completion future for one expected unit: resolves Decoded the
     * moment the unit's RS decode succeeds (possibly many chunks
     * before the stream ends), or Incomplete when finish() runs
     * first. Each expected unit's future can be claimed once; an
     * unexpected (block, version) throws FatalError.
     */
    std::future<StreamUnitResult> unitFuture(uint64_t block,
                                             unsigned version);

    /**
     * Finalize the session: decodes everything still decodable from
     * the accumulated state, resolves every unclaimed expected-unit
     * future, and delivers the full result set — DecodeStatus::Ok
     * when every expected unit decoded (always Ok in deferred mode),
     * Partial otherwise. Single-shot; further feed()/finish() throws.
     */
    std::future<DecodeOutcome> finish();

    /** True once every expected unit has decoded — further feed()
     *  chunks will be skipped, so callers should stop reading. */
    bool complete() const;

    TenantId tenant() const;

  private:
    friend class DecodeService;

    struct State;
    explicit DecodeStream(std::shared_ptr<State> state);

    std::shared_ptr<State> state_;
};

class DecodeService
{
  public:
    explicit DecodeService(DecodeServiceParams params = {});

    /** Drains the queue (pending batches still decode) and joins. */
    ~DecodeService();

    DecodeService(const DecodeService &) = delete;
    DecodeService &operator=(const DecodeService &) = delete;

    /** Enqueue one read set for @p tenant. Throws FatalError after
     *  shutdown(). @p trace parents the request's spans (see
     *  DecodeRequest::trace). */
    std::future<DecodeOutcome> submit(
        const Decoder &decoder, std::vector<sim::Read> reads,
        TenantId tenant = kDefaultTenant,
        const telemetry::TraceContext &trace = {});

    /**
     * Enqueue one request whose reads @p writer will push (see "Fed
     * requests" above). Admission and its outcome are submit()'s: a
     * shed request's future is ready when this returns, before any
     * read need be produced. Otherwise the decode pulls chunks until
     * the writer closes; units and stats equal decodeAll's over the
     * concatenated chunks. A writer dropped open resolves the future
     * with its error and frees the request's queue slot. Throws
     * FatalError after shutdown().
     */
    std::future<DecodeOutcome> submit(
        const Decoder &decoder, ReadFeedWriter &writer,
        TenantId tenant = kDefaultTenant,
        const telemetry::TraceContext &trace = {});

    /**
     * Enqueue a batch (typically one request per partition of a
     * device). The batch's jobs run concurrently; futures are
     * returned — and later fulfilled — in submission order. Throws
     * FatalError after shutdown(), when the batch mixes tenants, or
     * when the batch alone exceeds max_queue_depth or its tenant's
     * cap; a Reject-policy overflow instead resolves every returned
     * future with DecodeStatus::Overloaded, and a token-bucket breach
     * resolves them with DecodeStatus::Throttled.
     */
    std::vector<std::future<DecodeOutcome>> submitBatch(
        std::vector<DecodeRequest> batch);

    /**
     * Open a streaming decode session (see DecodeStream). The
     * session's chunks flow through this service's admission and
     * scheduling like any other submission of @p params.tenant.
     * Throws FatalError after shutdown() or without a decoder.
     */
    DecodeStream openStream(StreamParams params);

    /**
     * Stop accepting submissions, decode everything already queued
     * (resuming dispatch if paused), and join the dispatcher.
     * Idempotent; also run by the destructor.
     */
    void shutdown();

    /** Hold back dispatch: admitted batches queue but none start.
     *  Requests already dispatched finish normally. */
    void pauseDispatch();

    /** Resume dispatch after pauseDispatch()/start_paused. */
    void resumeDispatch();

    /** Worker count of the shared pool. */
    size_t threadCount() const { return pool_.threadCount(); }

    /** Batches accepted but not yet started (for backpressure). */
    size_t pendingBatches() const;

    /** Requests admitted but not yet fulfilled (queued + decoding). */
    size_t inFlightRequests() const;

    /** Block-policy submitters currently parked on a full queue, in
     *  ticket order (for backpressure and the ordering tests). */
    size_t blockedSubmitters() const;

  private:
    using Clock = std::chrono::steady_clock;

    /** One request, or one chunk of a stream session: a chunk is a
     *  one-item batch whose reads sit in request.reads (the decoder
     *  stays null; the session carries its own). A fed request is a
     *  one-item batch too. */
    struct Item
    {
        DecodeRequest request;
        std::promise<DecodeOutcome> promise;
        /** Liveness token of the request's (or session's) decoder. */
        std::weak_ptr<const void> liveness;
        uint64_t enqueued_us = 0;  ///< nowUs() at submission
        uint64_t admitted_us = 0;  ///< nowUs() when admission granted

        /** The session a chunk feeds; null for a request. */
        std::shared_ptr<DecodeStream::State> stream;
        /** A fed request's reads (request.reads stays empty); null
         *  otherwise. */
        std::shared_ptr<ReadFeed> feed;
        /** The chunk is the finish marker DecodeStream::finish()
         *  enqueues. */
        bool stream_finish = false;

        // Trace: root is the request's "request" span (joined from
        // request.trace or service-rooted), or a chunk's
        // "stream.chunk" / "stream.finish" span under its session's
        // "stream" root; ctx parents the admission/queue/decode
        // children. Both inactive when tracing is off.
        telemetry::SpanHandle root;
        telemetry::TraceContext ctx;
    };

    /** One admission and one dispatch: a submitBatch's requests, or
     *  a single stream chunk or fed request as a one-item batch. */
    struct Batch
    {
        std::vector<Item> items;
        TenantId tenant = kDefaultTenant;
        // Per-tenant instruments resolved at admission (null when
        // uninstrumented) so dispatch never re-locks the registry.
        telemetry::Counter *dispatched = nullptr;
        telemetry::Histogram *queue_latency = nullptr;

        /** WDRR credit left for the tenant's turn right after this
         *  batch was charged (captured in popNextBatchLocked; only
         *  read by the dispatch spans). */
        uint64_t dispatch_deficit = 0;
    };

    /** Per-tenant scheduler state; lives in tenants_, so every field
     *  is reached under mutex_ (the map carries the GUARDED_BY). */
    struct TenantState
    {
        TenantParams params;
        std::deque<Batch> queue;
        bool active = false;     ///< has an entry in active_
        uint64_t deficit = 0;    ///< WDRR credit, in requests
        bool charged = false;    ///< quantum granted for current turn
        double tokens = 0.0;     ///< token bucket level
        uint64_t last_refill_us = 0;
        bool bucket_primed = false;
        size_t in_flight = 0;    ///< admitted but unfulfilled requests

        // Cached per-tenant instruments (null when uninstrumented).
        telemetry::Counter *admitted = nullptr;
        telemetry::Counter *rejected = nullptr;
        telemetry::Counter *throttled = nullptr;
        telemetry::Counter *dispatched = nullptr;
        telemetry::Histogram *queue_latency = nullptr;
    };

    void dispatcherLoop() DNASTORE_EXCLUDES(mutex_);

    /** Run every item of @p batch on the pool, then release its queue
     *  space, count outcomes and fulfil its promises in order. */
    void runBatch(Batch &batch) DNASTORE_EXCLUDES(mutex_);

    /** Feed or finish a chunk's session and update the stream
     *  counters (see the definition for the threading invariant). */
    void runStreamItem(Item &item, DecodeOutcome &outcome)
        DNASTORE_EXCLUDES(mutex_);

    /** Decode a fed request, pulling its chunks as they arrive. */
    void runFedItem(Item &item, DecodeOutcome &outcome,
                    telemetry::SpanHandle &decode_span)
        DNASTORE_EXCLUDES(mutex_);

    /** Fill a request's item: decoder liveness, enqueue stamp, and the
     *  root of its trace. */
    void initRequestItem(Item &item, DecodeRequest request,
                         uint64_t now_us) const;

    /** Admission path shared by submitBatch and stream chunks: bill
     *  the token bucket, wait in the ticket line (Block policy) or
     *  shed, and enqueue on success. Returns true when @p pending was
     *  admitted (and moved into the queue); a shed batch stays with
     *  the caller, its promises already resolved Overloaded or
     *  Throttled. */
    bool admitOrShed(Batch &pending) DNASTORE_EXCLUDES(mutex_);

    /** Enqueue one chunk of @p stream through admission control. */
    std::future<DecodeOutcome> submitStreamChunk(
        std::shared_ptr<DecodeStream::State> stream,
        std::vector<sim::Read> reads, bool finish_marker)
        DNASTORE_EXCLUDES(mutex_);

    /** Build a fresh tenant's state: validate its contract and create
     *  its instruments. Takes only the registry lock — holding
     *  mutex_ (rank kServiceState) while it reaches for the registry
     *  (rank kTelemetryRegistry, higher) is the PR 6 inversion, and
     *  the rank checker aborts on it. */
    TenantState makeTenantState(TenantId tenant) const
        DNASTORE_EXCLUDES(mutex_);

    /** Find-or-create a tenant's state. On first sighting the
     *  instruments are created with @p lock dropped (the registry
     *  mutex is never taken under mutex_), then reacquired; rechecks
     *  accepting_ after the gap. The drop/relock goes through a
     *  parameter the analysis cannot follow, so the body is exempt;
     *  REQUIRES still binds every call site. */
    TenantState &tenantStateLocked(sync::MutexLock &lock,
                                   TenantId tenant)
        DNASTORE_REQUIRES(mutex_) DNASTORE_NO_THREAD_SAFETY_ANALYSIS;

    /** Refill a tenant's token bucket to the service clock. */
    void refillBucketLocked(TenantState &state)
        DNASTORE_REQUIRES(mutex_);

    /** Whether @p n more requests fit under both the global and the
     *  tenant's queue-depth bound. */
    bool fitsLocked(const TenantState &state, size_t n) const
        DNASTORE_REQUIRES(mutex_);

    /** Pop the next batch under weighted deficit round robin (at
     *  least one batch must be pending). */
    Batch popNextBatchLocked() DNASTORE_REQUIRES(mutex_);

    /** Token-bucket clock, microseconds. */
    uint64_t nowUs() const;

    DecodeServiceParams params_;
    ThreadPool pool_;
    mutable sync::Mutex mutex_{sync::Rank::kServiceState,
                               "decode_service"};
    sync::CondVar queue_cv_;
    sync::CondVar space_cv_;
    std::map<TenantId, TenantState> tenants_
        DNASTORE_GUARDED_BY(mutex_);
    /** WDRR round order. */
    std::deque<TenantId> active_ DNASTORE_GUARDED_BY(mutex_);
    size_t pending_batches_ DNASTORE_GUARDED_BY(mutex_) = 0;
    size_t in_flight_ DNASTORE_GUARDED_BY(mutex_) = 0;
    bool accepting_ DNASTORE_GUARDED_BY(mutex_) = true;
    bool paused_ DNASTORE_GUARDED_BY(mutex_) = false;
    uint64_t next_ticket_ DNASTORE_GUARDED_BY(mutex_) = 0;
    uint64_t serving_ticket_ DNASTORE_GUARDED_BY(mutex_) = 0;
    std::once_flag joined_;
    std::thread dispatcher_;

    // Cached instruments (null when params_.metrics is null) so the
    // submit/dispatch hot paths never take the registry lock.
    telemetry::Counter *batches_submitted_ = nullptr;
    telemetry::Counter *requests_submitted_ = nullptr;
    telemetry::Counter *requests_rejected_ = nullptr;
    telemetry::Counter *requests_throttled_ = nullptr;
    telemetry::Counter *requests_decoded_ = nullptr;
    telemetry::Counter *requests_failed_ = nullptr;
    telemetry::Gauge *queue_depth_ = nullptr;
    telemetry::Gauge *pool_threads_ = nullptr;
    telemetry::Gauge *pool_active_ = nullptr;
    telemetry::Histogram *queue_latency_us_ = nullptr;
    telemetry::Histogram *decode_latency_us_ = nullptr;
    telemetry::Histogram *rejected_latency_us_ = nullptr;

    // Streaming instruments (null when params_.metrics is null).
    telemetry::Counter *streams_opened_ = nullptr;
    telemetry::Counter *stream_chunks_ = nullptr;
    telemetry::Counter *stream_reads_consumed_ = nullptr;
    telemetry::Counter *stream_reads_skipped_ = nullptr;
    telemetry::Counter *stream_units_early_ = nullptr;
    telemetry::Counter *streams_completed_early_ = nullptr;
    telemetry::Histogram *stream_reads_at_completion_ = nullptr;

    friend class DecodeStream;
};

} // namespace dnastore::core

#endif // DNASTORE_CORE_DECODE_SERVICE_H
