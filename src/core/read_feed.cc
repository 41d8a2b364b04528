#include "core/read_feed.h"

#include <utility>

#include "common/error.h"

namespace dnastore::core {

void
ReadFeed::push(std::vector<sim::Read> chunk)
{
    {
        sync::MutexLock lock(mutex_);
        fatalIf(closed_, "ReadFeed::push after close()");
        chunks_.push_back(std::move(chunk));
    }
    ready_.notify_one();
}

void
ReadFeed::close(bool failed)
{
    {
        sync::MutexLock lock(mutex_);
        closed_ = true;
        failed_ = failed;
    }
    ready_.notify_one();
}

std::optional<std::vector<sim::Read>>
ReadFeed::pull()
{
    sync::MutexLock lock(mutex_);
    while (chunks_.empty() && !closed_)
        ready_.wait(lock);
    // A failed producer fails the decode at once: the chunks it did
    // push cannot make a complete read set.
    fatalIf(failed_, "ReadFeed: writer dropped before close(); its "
                     "producer failed or returned early");
    if (chunks_.empty())
        return std::nullopt;
    std::vector<sim::Read> chunk = std::move(chunks_.front());
    chunks_.pop_front();
    return chunk;
}

ReadFeedWriter::~ReadFeedWriter()
{
    if (!closed_)
        feed_->close(true);
}

void
ReadFeedWriter::close()
{
    closed_ = true;
    feed_->close(false);
}

} // namespace dnastore::core
