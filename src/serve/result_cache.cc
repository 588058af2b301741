#include "serve/result_cache.h"

#include <algorithm>
#include <cstdio>

#include <sys/stat.h>
#include <unistd.h>

#include "util/env.h"

namespace fs {
namespace serve {

ResultCache::ResultCache(std::size_t max_bytes, std::string spill_dir)
    : max_bytes_(max_bytes), spill_dir_(std::move(spill_dir))
{
}

bool
ResultCache::enabled()
{
    return !util::envFlag("FS_NO_SERVE_CACHE");
}

std::string
ResultCache::spillPath(std::uint64_t key) const
{
    char name[40];
    std::snprintf(name, sizeof name, "fs-%016llx.fsr",
                  (unsigned long long)key);
    return spill_dir_ + "/" + name;
}

bool
ResultCache::lookup(std::uint64_t key, MsgKind &kind,
                    std::vector<std::uint8_t> &payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        unlink(*it);
        pushNewest(*it);
        const Entry &e = it->second;
        kind = e.kind;
        payload.assign(e.payload.get(), e.payload.get() + e.size);
        ++stats_.hits;
        return true;
    }
    if (!spill_dir_.empty() && readSpill(key, kind, payload)) {
        // Promote the disk hit so repeats stay in memory.
        insertLocked(key, kind, payload);
        ++stats_.diskHits;
        return true;
    }
    ++stats_.misses;
    return false;
}

void
ResultCache::insert(std::uint64_t key, MsgKind kind,
                    const std::vector<std::uint8_t> &payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    insertLocked(key, kind, payload);
    ++stats_.insertions;
    if (!spill_dir_.empty())
        writeSpill(key, kind, payload);
}

void
ResultCache::unlink(Slot &slot)
{
    Entry &e = slot.second;
    (e.newer ? e.newer->second.older : newest_) = e.older;
    (e.older ? e.older->second.newer : oldest_) = e.newer;
    e.newer = e.older = nullptr;
}

void
ResultCache::pushNewest(Slot &slot)
{
    Entry &e = slot.second;
    e.older = newest_;
    (newest_ ? newest_->second.newer : oldest_) = &slot;
    newest_ = &slot;
}

void
ResultCache::insertLocked(std::uint64_t key, MsgKind kind,
                          const std::vector<std::uint8_t> &payload)
{
    auto [it, fresh] = entries_.try_emplace(key);
    Entry &e = it->second;
    if (!fresh) {
        bytes_used_ -= e.size;
        unlink(*it);
    }
    e.payload = std::make_unique_for_overwrite<std::uint8_t[]>(
        payload.size());
    std::copy(payload.begin(), payload.end(), e.payload.get());
    e.size = payload.size();
    e.kind = kind;
    pushNewest(*it);
    bytes_used_ += e.size;
    while (bytes_used_ > max_bytes_ && entries_.size() > 1) {
        const std::uint64_t victim = oldest_->first;
        bytes_used_ -= oldest_->second.size;
        unlink(*oldest_);
        entries_.erase(victim);
        ++stats_.evictions;
    }
}

namespace {

/** Append the spill-file integrity trailer: FNV-1a over the frame. */
void
appendDigest(std::vector<std::uint8_t> &bytes)
{
    const std::uint64_t digest = fnv1a64(bytes.data(), bytes.size());
    for (int i = 0; i < 8; ++i)
        bytes.push_back(std::uint8_t(digest >> (8 * i)));
}

} // namespace

bool
ResultCache::readSpill(std::uint64_t key, MsgKind &kind,
                       std::vector<std::uint8_t> &payload)
{
    const std::string path = spillPath(key);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::vector<std::uint8_t> bytes;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);

    // Validate every layer: digest trailer (bit rot), frame header
    // (stale magic/version), declared length (crash-mid-write
    // truncation), and exact consumption (torn concatenation). Any
    // failure discards the file so the entry is recomputed -- a
    // damaged cache loses capacity, never correctness.
    bool valid = bytes.size() > 8;
    std::uint64_t stored = 0;
    if (valid) {
        const std::size_t body = bytes.size() - 8;
        for (int i = 0; i < 8; ++i)
            stored |= std::uint64_t(bytes[body + std::size_t(i)])
                      << (8 * i);
        valid = fnv1a64(bytes.data(), body) == stored;
        if (valid) {
            Frame frame;
            std::size_t consumed = 0;
            valid = parseFrame(bytes.data(), body, frame, consumed) ==
                        FrameStatus::kOk &&
                    consumed == body;
            if (valid) {
                kind = frame.kind;
                payload = std::move(frame.payload);
            }
        }
    }
    if (!valid) {
        std::remove(path.c_str());
        ++stats_.spillDiscarded;
        return false;
    }
    return true;
}

void
ResultCache::writeSpill(std::uint64_t key, MsgKind kind,
                        const std::vector<std::uint8_t> &payload)
{
    if (!spill_dir_ready_) {
        ::mkdir(spill_dir_.c_str(), 0755); // EEXIST is fine
        spill_dir_ready_ = true;
    }
    const std::string path = spillPath(key);
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return;
    std::vector<std::uint8_t> bytes = frameMessage(kind, payload);
    appendDigest(bytes);
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    std::fclose(f);
    // Atomic publish: readers only ever see whole spill files.
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0)
        std::remove(tmp.c_str());
}

ResultCache::Stats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
ResultCache::entryCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::size_t
ResultCache::bytesUsed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_used_;
}

} // namespace serve
} // namespace fs
