#include "riscv/dbt.h"

#include <algorithm>

#include "util/env.h"

namespace fs {
namespace riscv {

namespace {

std::size_t
budgetFromEnv()
{
    return std::size_t(util::envU64("FS_DBT_CACHE_BYTES",
                                    DbtCache::kDefaultBudgetBytes, 1024,
                                    1u << 30));
}

} // namespace

DbtCache::DbtCache() : budget_(budgetFromEnv()) {}

DbtBlock *
DbtCache::insert(DbtBlock block)
{
    auto owned = std::make_unique<DbtBlock>(std::move(block));
    DbtBlock *p = owned.get();
    const std::uint32_t lo = p->base;
    const std::uint32_t hi =
        p->base + std::uint32_t(p->ops.size()) * 4u;
    if (blocks_.empty()) {
        code_lo_ = lo;
        code_hi_ = hi;
    } else {
        code_lo_ = std::min(code_lo_, lo);
        code_hi_ = std::max(code_hi_, hi);
    }
    // Replacing an existing translation (a stale block from before a
    // partial invalidation) must not leak its byte accounting or
    // chain slots.
    const auto it = blocks_.find(p->base);
    if (it != blocks_.end())
        removeBlock(it->second.get());
    bytes_ += p->bytes();
    p->lastUse = ++tick_;
    blocks_[p->base] = std::move(owned);
    ++stats_.translations;
    while (bytes_ > budget_ && blocks_.size() > 1)
        evictOne(p);
    return p;
}

void
DbtCache::evictOne(const DbtBlock *keep)
{
    DbtBlock *victim = nullptr;
    for (auto &entry : blocks_) {
        DbtBlock *b = entry.second.get();
        if (b == keep)
            continue;
        if (victim == nullptr || b->lastUse < victim->lastUse)
            victim = b;
    }
    if (victim == nullptr)
        return;
    removeBlock(victim);
    ++stats_.evictions;
}

void
DbtCache::removeBlock(DbtBlock *victim)
{
    // Unlink chains INTO the victim (slots in other blocks -- or the
    // victim itself for self-loops -- that would otherwise dangle).
    for (DbtOp *in : victim->incoming) {
        if (in->chain == victim) {
            in->chain = nullptr;
            ++stats_.unlinks;
        }
    }
    // Unlink chains OUT of the victim: remove its ops from their
    // targets' incoming lists so a later eviction of the target does
    // not write through a freed slot.
    for (DbtOp &op : victim->ops) {
        if (op.chain == nullptr || op.chain == victim)
            continue;
        auto &inc = op.chain->incoming;
        inc.erase(std::remove(inc.begin(), inc.end(), &op),
                  inc.end());
    }
    for (Slot &slot : slots_) {
        if (slot.block == victim)
            slot = {};
    }
    bytes_ -= victim->bytes();
    blocks_.erase(victim->base);
}

void
DbtCache::flush()
{
    if (!blocks_.empty())
        ++stats_.flushes;
    slots_.fill({});
    blocks_.clear();
    bytes_ = 0;
    code_lo_ = 0;
    code_hi_ = 0;
    ++generation_;
}

} // namespace riscv
} // namespace fs
