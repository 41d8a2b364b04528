#include "core/decode_service.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <string>

#include "common/error.h"

namespace dnastore::core {

namespace {

/** Saturating microsecond delta: an injected virtual clock may stamp
 *  an arrival "after" dispatch reads it (the simulator advances time
 *  between the two), and a negative latency must read as zero, not
 *  wrap. */
uint64_t
elapsedUs(uint64_t from_us, uint64_t to_us)
{
    return to_us > from_us ? to_us - from_us : 0;
}

/** Slack for the double-valued token ledger so an exact refill (1.0
 *  token after exactly one second at rate 1) is never lost to the
 *  last ulp of the accumulation. */
constexpr double kTokenEpsilon = 1e-9;

/** The "outcome" attribute a resolved request or chunk's root span
 *  carries. */
const char *
outcomeName(DecodeStatus status)
{
    switch (status) {
      case DecodeStatus::Ok:
        return "ok";
      case DecodeStatus::Overloaded:
        return "overloaded";
      case DecodeStatus::Throttled:
        return "throttled";
      case DecodeStatus::Skipped:
        return "skipped";
      case DecodeStatus::Partial:
        return "partial";
    }
    return "unknown";
}

} // namespace

std::map<uint64_t, BlockVersions>
routedUnits(DecodeOutcome outcome, DecodeStats *stats, const char *caller)
{
    if (outcome.status == DecodeStatus::Throttled)
        throw ThrottledError(std::string(caller) +
                             " shed by the tenant's token bucket");
    if (outcome.status == DecodeStatus::Overloaded)
        throw OverloadedError(std::string(caller) +
                              " shed by the decode service");
    if (stats)
        *stats = outcome.stats;
    return std::move(outcome.units);
}

std::map<uint64_t, BlockVersions>
decodeReads(const Decoder &decoder, std::vector<sim::Read> reads,
            DecodeStats *stats, DecodeService *service, TenantId tenant,
            const telemetry::TraceContext &trace, const char *caller)
{
    if (!service)
        return decoder.decodeAll(std::move(reads), stats,
                                 ThreadPool::shared(), trace);
    return routedUnits(
        service->submit(decoder, std::move(reads), tenant, trace).get(),
        stats, caller);
}

/**
 * Shared session state behind every copy of a DecodeStream handle.
 * The StreamingDecoder itself is touched only from the dispatcher
 * thread (chunks of a session are strictly serialized through the
 * queue); the promise/future maps are shared with caller threads and
 * guarded by `m`.
 */
struct DecodeStream::State
{
    DecodeService *service = nullptr;
    std::weak_ptr<const void> liveness;
    TenantId tenant = kDefaultTenant;

    /** Dispatcher-thread only after openStream(). */
    std::unique_ptr<StreamingDecoder> session;

    /** Set once the reads-at-completion histogram was fed, so a
     *  stream observes exactly one sample (dispatcher-thread only). */
    bool completion_observed = false;

    /** Expected units still unrecovered when the finish marker ran,
     *  for the "stream" root span (dispatcher-thread only). */
    size_t units_missing = 0;

    /** Guards the promise/future maps shared between caller threads
     *  and the dispatcher. Ranks below the service mutex: a chunk's
     *  admission never nests the two (feed() drops m before
     *  submitting), but if they ever must nest, service-then-stream
     *  is the direction the dispatcher already implies. */
    sync::Mutex m{sync::Rank::kStreamState, "decode_stream"};
    std::map<UnitKey, std::promise<StreamUnitResult>> unit_promises
        DNASTORE_GUARDED_BY(m);
    std::map<UnitKey, std::future<StreamUnitResult>> unit_futures
        DNASTORE_GUARDED_BY(m);
    bool finish_submitted DNASTORE_GUARDED_BY(m) = false;

    std::atomic<bool> complete{false};

    /** Session-level "stream" span (root of the session's trace, or
     *  a child of the caller's context). Written in openStream, read
     *  by chunk submissions (trace_ctx only), ended by the dispatcher
     *  when the finish marker completes — those phases are ordered
     *  through the service queue, so no extra guard is needed. The
     *  SpanHandle destructor is the safety net for sessions dropped
     *  without finish(). */
    telemetry::SpanHandle trace_root;
    telemetry::TraceContext trace_ctx;

    /** StreamingParams::on_unit target: resolves the unit's
     *  completion future the moment it decodes. */
    void
    deliverUnit(uint64_t block, unsigned version, const Bytes &payload)
    {
        sync::MutexLock lock(m);
        auto it = unit_promises.find({block, version});
        if (it == unit_promises.end())
            return;  // unexpected unit, or already delivered
        StreamUnitResult result;
        result.status = UnitStatus::Decoded;
        result.block = block;
        result.version = version;
        result.payload = payload;
        it->second.set_value(std::move(result));
        unit_promises.erase(it);
    }
};

DecodeStream::DecodeStream(std::shared_ptr<State> state)
    : state_(std::move(state))
{}

std::future<DecodeOutcome>
DecodeStream::feed(std::vector<sim::Read> reads)
{
    {
        sync::MutexLock lock(state_->m);
        fatalIf(state_->finish_submitted,
                "DecodeStream: feed after finish()");
    }
    return state_->service->submitStreamChunk(state_, std::move(reads),
                                              false);
}

std::future<StreamUnitResult>
DecodeStream::unitFuture(uint64_t block, unsigned version)
{
    sync::MutexLock lock(state_->m);
    auto it = state_->unit_futures.find({block, version});
    fatalIf(it == state_->unit_futures.end(),
            "DecodeStream: unit (", block, ", ", version,
            ") is not an expected unit of this stream, or its future "
            "was already claimed");
    std::future<StreamUnitResult> future = std::move(it->second);
    state_->unit_futures.erase(it);
    return future;
}

std::future<DecodeOutcome>
DecodeStream::finish()
{
    {
        sync::MutexLock lock(state_->m);
        fatalIf(state_->finish_submitted,
                "DecodeStream: finish() called twice");
        state_->finish_submitted = true;
    }
    return state_->service->submitStreamChunk(state_, {}, true);
}

bool
DecodeStream::complete() const
{
    return state_->complete.load(std::memory_order_acquire);
}

TenantId
DecodeStream::tenant() const
{
    return state_->tenant;
}

DecodeService::DecodeService(DecodeServiceParams params)
    : params_(std::move(params)), pool_(params_.threads),
      paused_(params_.start_paused)
{
    if (params_.metrics) {
        telemetry::MetricsRegistry &registry = *params_.metrics;
        batches_submitted_ =
            &registry.counter("decode_service.batches_submitted");
        requests_submitted_ =
            &registry.counter("decode_service.requests_submitted");
        requests_rejected_ =
            &registry.counter("decode_service.requests_rejected");
        requests_throttled_ =
            &registry.counter("decode_service.requests_throttled");
        requests_decoded_ =
            &registry.counter("decode_service.requests_decoded");
        requests_failed_ =
            &registry.counter("decode_service.requests_failed");
        queue_depth_ = &registry.gauge("decode_service.queue_depth");
        pool_threads_ = &registry.gauge("decode_service.pool_threads");
        pool_active_ =
            &registry.gauge("decode_service.pool_active_threads");
        const std::vector<uint64_t> latency_bounds =
            params_.latency_bounds_us.empty()
                ? telemetry::defaultLatencyBoundsUs()
                : params_.latency_bounds_us;
        queue_latency_us_ =
            &registry.histogram("decode_service.queue_latency_us",
                                latency_bounds);
        decode_latency_us_ =
            &registry.histogram("decode_service.decode_latency_us",
                                latency_bounds);
        rejected_latency_us_ =
            &registry.histogram("decode_service.rejected_latency_us",
                                latency_bounds);
        streams_opened_ =
            &registry.counter("decode_service.streams_opened");
        stream_chunks_ =
            &registry.counter("decode_service.stream_chunks");
        stream_reads_consumed_ =
            &registry.counter("decode_service.stream_reads_consumed");
        stream_reads_skipped_ =
            &registry.counter("decode_service.stream_reads_skipped");
        stream_units_early_ =
            &registry.counter("decode_service.stream_units_early");
        streams_completed_early_ = &registry.counter(
            "decode_service.streams_completed_early");
        stream_reads_at_completion_ = &registry.histogram(
            "decode_service.stream_reads_at_completion",
            telemetry::defaultReadCountBounds());
        pool_threads_->set(
            static_cast<int64_t>(pool_.threadCount()));
    }
    // Validate every configured tenant (and create its instruments)
    // up front so a bad contract throws here, not mid-traffic. The
    // registry work happens before mutex_ is ever taken — the rank
    // order (registry above service) allows no other arrangement.
    std::map<TenantId, TenantState> initial;
    for (const auto &[tenant, tenant_params] : params_.tenants) {
        (void)tenant_params;
        initial.emplace(tenant, makeTenantState(tenant));
    }
    {
        sync::MutexLock lock(mutex_);
        tenants_ = std::move(initial);
    }
    // Start the dispatcher only once every member it reads exists.
    dispatcher_ = std::thread([this] { dispatcherLoop(); });
}

DecodeService::~DecodeService()
{
    shutdown();
}

void
DecodeService::shutdown()
{
    {
        sync::MutexLock lock(mutex_);
        accepting_ = false;
        paused_ = false;  // draining must not hang on a paused valve
    }
    queue_cv_.notify_all();
    space_cv_.notify_all();
    std::call_once(joined_, [this] { dispatcher_.join(); });
}

void
DecodeService::pauseDispatch()
{
    sync::MutexLock lock(mutex_);
    paused_ = true;
}

void
DecodeService::resumeDispatch()
{
    {
        sync::MutexLock lock(mutex_);
        paused_ = false;
    }
    queue_cv_.notify_all();
}

uint64_t
DecodeService::nowUs() const
{
    if (params_.clock_us)
        return params_.clock_us();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now().time_since_epoch())
            .count());
}

DecodeService::TenantState
DecodeService::makeTenantState(TenantId tenant) const
{
    TenantState state;
    auto configured = params_.tenants.find(tenant);
    if (configured != params_.tenants.end())
        state.params = configured->second;
    fatalIf(state.params.weight == 0, "DecodeService: tenant ", tenant,
            " has weight 0; WDRR weights must be >= 1");
    fatalIf(state.params.rate < 0.0 || state.params.burst < 0.0,
            "DecodeService: tenant ", tenant,
            " has a negative token-bucket rate or burst");

    // Per-tenant instruments only for tenants the caller opted into —
    // explicitly configured or non-default — so a default-tenant-only
    // run exports exactly the pre-tenant metric set.
    if (params_.metrics &&
        (configured != params_.tenants.end() ||
         tenant != kDefaultTenant)) {
        telemetry::MetricsRegistry &registry = *params_.metrics;
        const std::string prefix =
            "decode_service.tenant." + std::to_string(tenant) + ".";
        state.admitted =
            &registry.counter(prefix + "requests_admitted");
        state.rejected =
            &registry.counter(prefix + "requests_rejected");
        state.throttled =
            &registry.counter(prefix + "requests_throttled");
        state.dispatched =
            &registry.counter(prefix + "batches_dispatched");
        state.queue_latency = &registry.histogram(
            prefix + "queue_latency_us",
            params_.latency_bounds_us.empty()
                ? telemetry::defaultLatencyBoundsUs()
                : params_.latency_bounds_us);
    }
    return state;
}

// The body drops and reacquires the caller's lock through a
// parameter, which the thread-safety analysis cannot follow; the
// REQUIRES(mutex_) contract is still enforced at every call site,
// and the rank checker covers the registry acquisition in the gap.
DecodeService::TenantState &
DecodeService::tenantStateLocked(sync::MutexLock &lock,
                                 TenantId tenant)
{
    auto it = tenants_.find(tenant);
    if (it != tenants_.end())
        return it->second;

    // First sighting of a runtime tenant. Building its state creates
    // instruments in the registry, which takes the registry mutex —
    // drop the service lock for that so the two mutexes are never
    // held together and a concurrent snapshot()/exportText() never
    // contends with the admission path.
    lock.unlock();
    TenantState fresh = makeTenantState(tenant);
    lock.lock();
    fatalIf(!accepting_, "DecodeService: submission after shutdown");
    // A racing submitter may have inserted the tenant during the gap;
    // emplace keeps the first insertion and the duplicate instruments
    // resolve to the same registry objects by name.
    return tenants_.emplace(tenant, std::move(fresh)).first->second;
}

void
DecodeService::refillBucketLocked(TenantState &state)
{
    const uint64_t now_us = nowUs();
    if (!state.bucket_primed) {
        // The bucket starts full: a fresh tenant may burst.
        state.tokens = state.params.burst;
        state.bucket_primed = true;
    } else if (now_us > state.last_refill_us) {
        const double elapsed_us =
            static_cast<double>(now_us - state.last_refill_us);
        state.tokens =
            std::min(state.params.burst,
                     state.tokens +
                         elapsed_us * state.params.rate / 1e6);
    }
    state.last_refill_us = now_us;
}

std::future<DecodeOutcome>
DecodeService::submit(const Decoder &decoder,
                      std::vector<sim::Read> reads, TenantId tenant,
                      const telemetry::TraceContext &trace)
{
    std::vector<DecodeRequest> batch(1);
    batch[0].decoder = &decoder;
    batch[0].reads = std::move(reads);
    batch[0].tenant = tenant;
    batch[0].trace = trace;
    return std::move(submitBatch(std::move(batch))[0]);
}

std::future<DecodeOutcome>
DecodeService::submit(const Decoder &decoder, ReadFeedWriter &writer,
                      TenantId tenant,
                      const telemetry::TraceContext &trace)
{
    DecodeRequest request;
    request.decoder = &decoder;
    request.tenant = tenant;
    request.trace = trace;
    Batch pending;
    pending.tenant = tenant;
    Item &item = pending.items.emplace_back();
    initRequestItem(item, std::move(request), nowUs());
    item.feed = writer.feed();
    std::future<DecodeOutcome> future = item.promise.get_future();
    if (admitOrShed(pending) && batches_submitted_)
        batches_submitted_->increment();
    return future;
}

void
DecodeService::initRequestItem(Item &item, DecodeRequest request,
                               uint64_t now_us) const
{
    if (request.decoder)
        item.liveness = request.decoder->livenessToken();
    item.request = std::move(request);
    item.enqueued_us = now_us;

    // Root the request's trace: join the caller's context when it has
    // one (e.g. a StorageFrontend root span), otherwise start a fresh
    // head-sampled trace. Both inactive => one branch.
    const TenantId tenant = item.request.tenant;
    if (item.request.trace.active())
        item.root = item.request.trace.spanAt("request", now_us);
    else if (params_.tracer)
        item.root = params_.tracer->startTrace("request", tenant);
    if (item.root.active()) {
        item.root.attrU64("tenant", tenant);
        item.ctx = item.root.context();
    }
}

bool
DecodeService::fitsLocked(const TenantState &state, size_t n) const
{
    if (params_.max_queue_depth > 0 &&
        in_flight_ + n > params_.max_queue_depth)
        return false;
    const size_t tenant_cap = state.params.max_queue_depth;
    if (tenant_cap > 0 && state.in_flight + n > tenant_cap)
        return false;
    return true;
}

bool
DecodeService::admitOrShed(Batch &pending)
{
    const size_t n = pending.items.size();
    sync::MutexLock lock(mutex_);
    fatalIf(!accepting_, "DecodeService: submission after shutdown");
    const TenantId tenant = pending.tenant;
    // Queue depth as the request found it — before this batch adds
    // its own weight — for the admission span.
    const uint64_t entry_depth = in_flight_;
    uint64_t ticket_wait_us = 0;
    bool ticketed = false;
    TenantState &state = tenantStateLocked(lock, tenant);
    pending.dispatched = state.dispatched;
    pending.queue_latency = state.queue_latency;

    // A finish marker is a control message, not work: it carries no
    // reads and must always reach the session (its unit futures
    // resolve there), so it bypasses the rate and capacity checks.
    const bool exempt = n == 1 && pending.items[0].stream_finish;

    if (!exempt && params_.max_queue_depth > 0) {
        fatalIf(n > params_.max_queue_depth,
                "DecodeService: batch of ", n,
                " requests exceeds max_queue_depth ",
                params_.max_queue_depth);
    }
    const size_t tenant_cap = state.params.max_queue_depth;
    if (!exempt && tenant_cap > 0) {
        fatalIf(n > tenant_cap, "DecodeService: batch of ", n,
                " requests exceeds tenant ", tenant,
                "'s queue-depth cap of ", tenant_cap);
    }

    // Ok = admitted; otherwise the status every shed future gets.
    DecodeStatus verdict = DecodeStatus::Ok;
    telemetry::Counter *tenant_shed = nullptr;

    // Token bucket first: the rate contract is independent of how
    // full the queue happens to be, and never blocks.
    if (!exempt && state.params.bucketEnabled()) {
        refillBucketLocked(state);
        if (state.tokens + kTokenEpsilon < static_cast<double>(n)) {
            verdict = DecodeStatus::Throttled;
            tenant_shed = state.throttled;
        } else {
            state.tokens -= static_cast<double>(n);
        }
    }

    if (!exempt && verdict == DecodeStatus::Ok) {
        // Join the ticket line when the queue is full OR other
        // submitters are already parked — barging past them would
        // undo the FIFO admission order.
        if (!fitsLocked(state, n) ||
            next_ticket_ != serving_ticket_) {
            if (params_.overflow == OverflowPolicy::Reject) {
                if (!fitsLocked(state, n)) {
                    verdict = DecodeStatus::Overloaded;
                    tenant_shed = state.rejected;
                }
                // A Reject-policy service never parks submitters,
                // so the line is empty and a fitting batch admits.
            } else {
                const uint64_t ticket = next_ticket_++;
                ticketed = true;
                const uint64_t wait_start_us = nowUs();
                while (accepting_ &&
                       !(ticket == serving_ticket_ &&
                         fitsLocked(state, n)))
                    space_cv_.wait(lock);
                ticket_wait_us = elapsedUs(wait_start_us, nowUs());
                ++serving_ticket_;
                if (!accepting_) {
                    // Successors wake via accepting_ and fail too.
                    space_cv_.notify_all();
                    fatal("DecodeService: shut down while a "
                          "submission was blocked on a full queue");
                }
            }
        }
    }
    if (verdict == DecodeStatus::Ok) {
        // Emit the admission spans before the batch is surrendered to
        // the queue (a dispatcher may take it the moment the lock
        // drops). Span pushes rank kTraceBuffer, far below mutex_, so
        // recording here is rank-legal; when tracing is off each
        // iteration is one branch.
        const uint64_t admitted_us = nowUs();
        for (Item &item : pending.items) {
            item.admitted_us = admitted_us;
            if (!item.ctx.active())
                continue;
            telemetry::SpanHandle span =
                item.ctx.spanAt("admission", item.enqueued_us);
            span.attr("outcome", "admitted");
            span.attrU64("queue_depth_entry", entry_depth);
            span.attrU64("ticket_wait_us", ticket_wait_us);
            span.endAt(admitted_us);
        }
        in_flight_ += n;
        state.in_flight += n;
        if (queue_depth_)
            queue_depth_->set(static_cast<int64_t>(in_flight_));
        state.queue.push_back(std::move(pending));
        ++pending_batches_;
        if (!state.active) {
            state.active = true;
            active_.push_back(tenant);
        }
        if (state.admitted)
            state.admitted->increment(n);
    }
    lock.unlock();

    if (verdict != DecodeStatus::Ok) {
        // Shed: resolve every future with a typed outcome rather
        // than throwing across threads. No decoding ran.
        telemetry::Counter *global = verdict == DecodeStatus::Throttled
                                         ? requests_throttled_
                                         : requests_rejected_;
        if (global)
            global->increment(n);
        if (tenant_shed)
            tenant_shed->increment(n);
        const uint64_t shed_us = nowUs();
        for (Item &item : pending.items) {
            // Shed requests spent real time in admission (token
            // lookup, possibly a ticket wait) that queue_latency_us
            // never sees — account for it separately.
            const uint64_t waited_us =
                elapsedUs(item.enqueued_us, shed_us);
            if (rejected_latency_us_)
                rejected_latency_us_->observe(waited_us,
                                              item.ctx.traceId());
            if (item.root.active()) {
                item.root.attr("outcome", outcomeName(verdict));
                item.root.attrU64("rejected_latency_us", waited_us);
                item.ctx.keep();  // tail trigger: shed = interesting
                item.root.endAt(shed_us);
            }
            DecodeOutcome outcome;
            outcome.status = verdict;
            item.promise.set_value(std::move(outcome));
        }
        return false;
    }

    queue_cv_.notify_one();
    if (ticketed) {
        // We were the head of the line; the next ticket holder must
        // re-evaluate whether the remaining space fits it.
        space_cv_.notify_all();
    }
    if (requests_submitted_)
        requests_submitted_->increment(n);
    return true;
}

std::vector<std::future<DecodeOutcome>>
DecodeService::submitBatch(std::vector<DecodeRequest> batch)
{
    const size_t n = batch.size();
    Batch pending;
    pending.items.resize(n);
    std::vector<std::future<DecodeOutcome>> futures;
    futures.reserve(n);
    const uint64_t now_us = nowUs();
    const TenantId tenant = n > 0 ? batch[0].tenant : kDefaultTenant;
    pending.tenant = tenant;
    for (size_t i = 0; i < n; ++i) {
        fatalIf(batch[i].tenant != tenant,
                "DecodeService: batch mixes tenants ", tenant, " and ",
                batch[i].tenant,
                "; one submitBatch is one tenant's work");
        initRequestItem(pending.items[i], std::move(batch[i]), now_us);
        futures.push_back(pending.items[i].promise.get_future());
    }
    if (n == 0) {
        sync::MutexLock lock(mutex_);
        fatalIf(!accepting_,
                "DecodeService: submission after shutdown");
        return futures;
    }

    if (admitOrShed(pending) && batches_submitted_)
        batches_submitted_->increment();
    return futures;
}

DecodeStream
DecodeService::openStream(StreamParams params)
{
    fatalIf(params.decoder == nullptr,
            "DecodeService::openStream: no decoder");
    auto state = std::make_shared<DecodeStream::State>();
    state->service = this;
    state->liveness = params.decoder->livenessToken();
    state->tenant = params.tenant;

    // Root the session's trace; every chunk becomes a child span.
    if (params.trace.active())
        state->trace_root = params.trace.span("stream");
    else if (params_.tracer)
        state->trace_root =
            params_.tracer->startTrace("stream", params.tenant);
    if (state->trace_root.active()) {
        state->trace_root.attrU64("tenant", params.tenant);
        state->trace_root.attrU64("expected_units",
                                  params.expected_units.size());
        state->trace_ctx = state->trace_root.context();
    }

    StreamingParams streaming;
    streaming.expected_units = params.expected_units;
    streaming.attempt_columns = params.attempt_columns;
    // The callback outlives nothing: the session lives inside the
    // state it points back to, and fires only while processing a
    // chunk of that session.
    DecodeStream::State *raw = state.get();
    streaming.on_unit = [raw](uint64_t block, unsigned version,
                              const Bytes &payload) {
        raw->deliverUnit(block, version, payload);
    };
    state->session = std::make_unique<StreamingDecoder>(
        params.decoder->partition(), params.decoder->params(),
        std::move(streaming));

    for (const UnitKey &unit : params.expected_units) {
        if (state->unit_futures.count(unit))
            continue;  // a duplicate expected unit gets one future
        std::promise<StreamUnitResult> promise;
        state->unit_futures.emplace(unit, promise.get_future());
        state->unit_promises.emplace(unit, std::move(promise));
    }
    {
        // Resolve the tenant now so the first chunk's admission
        // doesn't pay the instrument-creation detour.
        sync::MutexLock lock(mutex_);
        fatalIf(!accepting_,
                "DecodeService: openStream after shutdown");
        tenantStateLocked(lock, params.tenant);
    }
    if (streams_opened_)
        streams_opened_->increment();
    return DecodeStream(std::move(state));
}

std::future<DecodeOutcome>
DecodeService::submitStreamChunk(
    std::shared_ptr<DecodeStream::State> stream,
    std::vector<sim::Read> reads, bool finish_marker)
{
    Batch pending;
    pending.tenant = stream->tenant;
    Item &item = pending.items.emplace_back();
    item.request.reads = std::move(reads);
    item.request.tenant = stream->tenant;
    item.liveness = stream->liveness;
    item.stream_finish = finish_marker;
    item.enqueued_us = nowUs();
    if (stream->trace_ctx.active()) {
        item.root = stream->trace_ctx.spanAt(
            finish_marker ? "stream.finish" : "stream.chunk",
            item.enqueued_us);
        item.root.attrU64("reads", item.request.reads.size());
        item.ctx = item.root.context();
    }
    item.stream = std::move(stream);
    std::future<DecodeOutcome> future = item.promise.get_future();

    if (admitOrShed(pending) && stream_chunks_)
        stream_chunks_->increment();
    return future;
}

size_t
DecodeService::pendingBatches() const
{
    sync::MutexLock lock(mutex_);
    return pending_batches_;
}

size_t
DecodeService::inFlightRequests() const
{
    sync::MutexLock lock(mutex_);
    return in_flight_;
}

size_t
DecodeService::blockedSubmitters() const
{
    sync::MutexLock lock(mutex_);
    return static_cast<size_t>(next_ticket_ - serving_ticket_);
}

DecodeService::Batch
DecodeService::popNextBatchLocked()
{
    // Weighted deficit round robin over the active tenants, in
    // activation order. Each tenant's turn at the head grants it
    // `weight` requests' worth of deficit once; it dispatches whole
    // batches while the deficit covers them, then rotates to the
    // back. An emptied tenant leaves the round and forfeits its
    // remaining deficit, so credit never banks across idle periods.
    for (;;) {
        TenantState &state = tenants_.at(active_.front());
        if (!state.charged) {
            state.deficit += state.params.weight;
            state.charged = true;
        }
        const uint64_t cost = state.queue.front().items.size();
        if (active_.size() == 1 && state.deficit < cost) {
            // Alone in the round there is nothing to interleave
            // with: grant the full cost at once instead of spinning
            // ceil(cost/weight) empty rotations under the lock. The
            // deficit is consumed in full below, so no credit leaks
            // into a later contended round.
            state.deficit = cost;
        }
        if (state.deficit >= cost) {
            Batch batch = std::move(state.queue.front());
            state.queue.pop_front();
            --pending_batches_;
            state.deficit -= cost;
            // Credit left for this turn, for the dispatch ("queue")
            // spans — captured here because the state is gone from
            // the dispatcher's view once the lock drops.
            batch.dispatch_deficit = state.deficit;
            if (state.queue.empty()) {
                state.deficit = 0;
                state.charged = false;
                state.active = false;
                active_.pop_front();
            }
            return batch;
        }
        // Turn exhausted: keep the accumulated deficit (a batch
        // bigger than one quantum still dispatches within
        // ceil(cost / weight) rounds — starvation-free) and rotate.
        state.charged = false;
        active_.push_back(active_.front());
        active_.pop_front();
    }
}

void
DecodeService::dispatcherLoop()
{
    for (;;) {
        Batch batch;
        {
            sync::MutexLock lock(mutex_);
            while (accepting_ &&
                   (pending_batches_ == 0 || paused_))
                queue_cv_.wait(lock);
            if (pending_batches_ == 0)
                return;  // shut down and fully drained
            batch = popNextBatchLocked();
        }
        if (params_.on_dispatch)
            params_.on_dispatch(batch.tenant, batch.items.size());
        if (batch.dispatched)
            batch.dispatched->increment();
        runBatch(batch);
    }
}

// A stream chunk is a one-item batch, and ThreadPool::parallelFor runs
// a single item inline, so this runs on the dispatcher thread: a
// session is only ever touched by the dispatcher, and one session's
// chunks run one at a time in submission order.
void
DecodeService::runStreamItem(Item &item, DecodeOutcome &outcome)
{
    DecodeStream::State &stream = *item.stream;
    const DecodeStats before = stream.session->stats();
    if (item.stream_finish) {
        outcome.units =
            stream.session->finish(&outcome.stats, pool_, item.ctx);
        // Expected units the session never recovered resolve with a
        // typed Incomplete result, and the finish outcome reports
        // Partial.
        {
            sync::MutexLock lock(stream.m);
            stream.units_missing = stream.unit_promises.size();
            for (auto &[unit, promise] : stream.unit_promises) {
                StreamUnitResult result;
                result.status = UnitStatus::Incomplete;
                result.block = unit.first;
                result.version = unit.second;
                promise.set_value(std::move(result));
            }
            stream.unit_promises.clear();
        }
        outcome.status = stream.units_missing == 0
                             ? DecodeStatus::Ok
                             : DecodeStatus::Partial;
    } else {
        const bool empty = item.request.reads.empty();
        const size_t consumed = stream.session->feed(
            std::move(item.request.reads), pool_, item.ctx);
        outcome.stats = stream.session->stats();
        outcome.status = (consumed == 0 && !empty)
                             ? DecodeStatus::Skipped
                             : DecodeStatus::Ok;
    }

    const DecodeStats &after = outcome.stats;
    if (stream_reads_consumed_)
        stream_reads_consumed_->increment(after.reads_consumed -
                                          before.reads_consumed);
    if (stream_reads_skipped_)
        stream_reads_skipped_->increment(after.reads_skipped -
                                         before.reads_skipped);
    if (stream_units_early_)
        stream_units_early_->increment(after.units_emitted_early -
                                       before.units_emitted_early);
    if (stream.session->complete() &&
        !stream.complete.load(std::memory_order_relaxed)) {
        stream.complete.store(true, std::memory_order_release);
        if (streams_completed_early_)
            streams_completed_early_->increment();
    }
    if ((stream.session->complete() || item.stream_finish) &&
        !stream.completion_observed) {
        stream.completion_observed = true;
        if (stream_reads_at_completion_)
            stream_reads_at_completion_->observe(after.reads_consumed);
    }
}

// A fed request is a one-item batch, so like a stream chunk it runs
// inline on the dispatcher thread: only the dispatcher ever waits on a
// feed, never a pool worker.
void
DecodeService::runFedItem(Item &item, DecodeOutcome &outcome,
                          telemetry::SpanHandle &decode_span)
{
    const telemetry::TraceContext ctx = decode_span.context();
    outcome.units = item.request.decoder->decodeChunks(
        [&] {
            // Waiting for the producer is not decode work: it gets a
            // span of its own, so decode's self time stays the work.
            telemetry::SpanHandle wait = ctx.span("decode.feed_wait");
            std::optional<std::vector<sim::Read>> chunk =
                item.feed->pull();
            wait.end();
            return chunk;
        },
        &outcome.stats, pool_, ctx);
    decode_span.attrU64("reads", outcome.stats.reads_in);
}

void
DecodeService::runBatch(Batch &batch)
{
    const size_t n = batch.items.size();
    std::vector<DecodeOutcome> outcomes(n);
    std::vector<std::exception_ptr> errors(n);

    // Shard the batch's items across the pool. A request's internal
    // stages fork on the same pool (nested fork-join), and each item
    // catches its own failure so one bad request cannot abandon its
    // siblings' iterations or poison their promises.
    pool_.parallelFor(n, [&](size_t i) {
        Item &item = batch.items[i];
        const uint64_t start_us = nowUs();
        const uint64_t queued_us = elapsedUs(item.enqueued_us,
                                             start_us);
        if (queue_latency_us_)
            queue_latency_us_->observe(queued_us,
                                       item.ctx.traceId());
        if (batch.queue_latency)
            batch.queue_latency->observe(queued_us,
                                         item.ctx.traceId());
        if (pool_active_)
            pool_active_->set(
                static_cast<int64_t>(pool_.activeThreads()));
        telemetry::SpanHandle decode_span;
        if (item.ctx.active()) {
            telemetry::SpanHandle queue_span =
                item.ctx.spanAt("queue", item.admitted_us);
            queue_span.attrU64("wdrr_deficit",
                               batch.dispatch_deficit);
            queue_span.endAt(start_us);
            // A chunk's stage spans hang directly off its chunk span.
            if (!item.stream) {
                decode_span = item.ctx.span("decode");
                if (!item.feed)
                    decode_span.attrU64("reads",
                                        item.request.reads.size());
            }
        }
        try {
            fatalIf(!item.stream && item.request.decoder == nullptr,
                    "DecodeService: request has no decoder");
            fatalIf(item.liveness.expired(),
                    "DecodeService: Decoder destroyed before its ",
                    item.stream ? "stream chunk" : "request", " ran");
            if (item.stream) {
                runStreamItem(item, outcomes[i]);
            } else if (item.feed) {
                runFedItem(item, outcomes[i], decode_span);
            } else {
                outcomes[i].units = item.request.decoder->decodeAll(
                    std::move(item.request.reads), &outcomes[i].stats,
                    pool_, decode_span.context());
            }
            if (decode_latency_us_)
                decode_latency_us_->observe(
                    elapsedUs(start_us, nowUs()),
                    item.ctx.traceId());
        } catch (...) {
            errors[i] = std::current_exception();
        }
        decode_span.end();
    });
    // Re-sample after the batch so an idle service doesn't keep
    // reporting the last mid-decode occupancy forever.
    if (pool_active_)
        pool_active_->set(static_cast<int64_t>(pool_.activeThreads()));

    // Release queue space before fulfilling the promises: a caller
    // woken by future.get() must observe the freed capacity.
    {
        sync::MutexLock lock(mutex_);
        in_flight_ -= n;
        tenants_.at(batch.tenant).in_flight -= n;
        if (queue_depth_)
            queue_depth_->set(static_cast<int64_t>(in_flight_));
    }
    space_cv_.notify_all();

    // Count outcomes before any promise fires so a caller returning
    // from future.get() already observes the updated counters.
    size_t failed = 0;
    for (size_t i = 0; i < n; ++i)
        failed += errors[i] ? 1 : 0;
    if (requests_failed_ && failed > 0)
        requests_failed_->increment(failed);
    if (requests_decoded_ && failed < n)
        requests_decoded_->increment(n - failed);

    // Reduce in submission order: promises fire exactly in the order
    // the requests were handed in.
    for (size_t i = 0; i < n; ++i) {
        Item &item = batch.items[i];
        if (item.root.active()) {
            if (errors[i]) {
                item.root.attr("outcome", "error");
                item.ctx.keep();  // tail trigger: errors always kept
            } else {
                item.root.attr("outcome",
                               outcomeName(outcomes[i].status));
                if (item.stream)
                    item.root.attrU64(
                        "reads_consumed",
                        outcomes[i].stats.reads_consumed);
            }
            // End (and possibly deposit) the trace before the caller
            // wakes, so a future.get() straight into findTrace()
            // observes it.
            item.root.end();
        }
        // The finish marker closes the session's "stream" root (it is
        // the last chunk by contract), also before its caller wakes.
        if (item.stream_finish && item.stream->trace_root.active()) {
            DecodeStream::State &stream = *item.stream;
            if (errors[i]) {
                stream.trace_root.attr("outcome", "error");
                stream.trace_ctx.keep();
            } else {
                stream.trace_root.attr(
                    "outcome", outcomeName(outcomes[i].status));
                stream.trace_root.attrU64("units_missing",
                                          stream.units_missing);
            }
            stream.trace_root.end();
        }
        if (errors[i])
            item.promise.set_exception(errors[i]);
        else
            item.promise.set_value(std::move(outcomes[i]));
    }
}

} // namespace dnastore::core
