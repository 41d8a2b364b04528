/**
 * @file
 * ReadFeed: the reads of one decode request, handed over in chunks
 * while they are still being sequenced.
 *
 * A range read sequences its reads on the client thread, and the
 * decode service filters and clusters them on its dispatcher. A feed
 * lets the two halves overlap: the client submits its request with a
 * feed right after PCR, pushes each chunk as the sequencer produces
 * it, and closes the feed; the decode pulls chunks until the feed is
 * closed and drained, then finishes (DecodeService::submit's feed
 * overload). One producer, one consumer.
 *
 * The producer holds a ReadFeedWriter. Destroying the writer before
 * close() (the producer threw, or returned early) fails the feed, so
 * a decode never waits on a producer that has left.
 */

#ifndef DNASTORE_CORE_READ_FEED_H
#define DNASTORE_CORE_READ_FEED_H

#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "sim/sequencer.h"

namespace dnastore::core {

/** The chunk queue shared by a fed request's producer, which writes
 *  through its ReadFeedWriter, and its decode, which pulls. */
class ReadFeed
{
  public:
    ReadFeed() = default;
    ReadFeed(const ReadFeed &) = delete;
    ReadFeed &operator=(const ReadFeed &) = delete;

    /**
     * The next chunk, waiting until one is pushed; nullopt once the
     * writer closed the feed and every chunk was pulled. Throws
     * FatalError once the writer was dropped open.
     */
    std::optional<std::vector<sim::Read>> pull()
        DNASTORE_EXCLUDES(mutex_);

  private:
    friend class ReadFeedWriter;

    void push(std::vector<sim::Read> chunk) DNASTORE_EXCLUDES(mutex_);
    void close(bool failed) DNASTORE_EXCLUDES(mutex_);

    sync::Mutex mutex_{sync::Rank::kReadFeed, "read_feed"};
    sync::CondVar ready_;
    std::deque<std::vector<sim::Read>> chunks_
        DNASTORE_GUARDED_BY(mutex_);
    bool closed_ DNASTORE_GUARDED_BY(mutex_) = false;
    bool failed_ DNASTORE_GUARDED_BY(mutex_) = false;
};

/**
 * The producer's end of a feed. Submit the writer to the service, push
 * the chunks, then close(). Destroying an open writer fails the feed,
 * and the request's future then delivers a FatalError.
 */
class ReadFeedWriter
{
  public:
    ReadFeedWriter() : feed_(std::make_shared<ReadFeed>()) {}
    ~ReadFeedWriter();

    ReadFeedWriter(const ReadFeedWriter &) = delete;
    ReadFeedWriter &operator=(const ReadFeedWriter &) = delete;

    /** The shared feed, which DecodeService::submit's decode pulls. */
    const std::shared_ptr<ReadFeed> &feed() const { return feed_; }

    /** Append one chunk. Throws FatalError after close(). */
    void push(std::vector<sim::Read> chunk)
    {
        feed_->push(std::move(chunk));
    }

    /** No more chunks; the decode drains what is queued. */
    void close();

  private:
    std::shared_ptr<ReadFeed> feed_;
    bool closed_ = false;
};

} // namespace dnastore::core

#endif // DNASTORE_CORE_READ_FEED_H
