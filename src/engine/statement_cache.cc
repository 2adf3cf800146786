#include "engine/statement_cache.h"

#include <algorithm>

#include "common/macros.h"
#include "obs/obs.h"

namespace caldb {

namespace {

struct CacheMetrics {
  obs::Counter* hits = obs::Metrics().counter("caldb.stmt_cache.hits");
  obs::Counter* misses = obs::Metrics().counter("caldb.stmt_cache.misses");
  obs::Counter* evictions =
      obs::Metrics().counter("caldb.stmt_cache.evictions");
  obs::Counter* invalidations =
      obs::Metrics().counter("caldb.stmt_cache.invalidations");
  obs::Gauge* size = obs::Metrics().gauge("caldb.stmt_cache.size");
};

CacheMetrics& Metrics() {
  static CacheMetrics* m = new CacheMetrics();
  return *m;
}

}  // namespace

StatementCache::StatementCache(size_t max_entries)
    : max_entries_(max_entries) {
  stats_.capacity = max_entries;
}

CompiledStatementPtr StatementCache::Find(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  ++stats_.hits;
  Metrics().hits->Increment();
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.compiled;
}

Result<CompiledStatementPtr> StatementCache::GetOrCompile(
    const std::string& text) {
  if (CompiledStatementPtr hit = Find(text)) return hit;
  return GetOrCompile(NormalizeStatementText(text), text);
}

Result<CompiledStatementPtr> StatementCache::GetOrCompile(
    const std::string& key, std::string_view source, bool lift_literals) {
  if (CompiledStatementPtr hit = Find(key)) return hit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    Metrics().misses->Increment();
  }

  // Compile outside the lock: a slow parse must not serialize the
  // sessions that are hitting.  Errors are returned, never cached.
  CALDB_ASSIGN_OR_RETURN(CompiledStatementPtr compiled,
                         CompileStatement(source, lift_literals));
  if (max_entries_ == 0) return compiled;

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A racing session inserted the same statement first; keep its handle
    // so everyone shares one compilation.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.compiled;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{compiled, lru_.begin()});
  while (entries_.size() > max_entries_) {
    auto victim = entries_.find(lru_.back());
    EraseLocked(victim);
    ++stats_.evictions;
    Metrics().evictions->Increment();
  }
  stats_.size = entries_.size();
  Metrics().size->Set(static_cast<int64_t>(entries_.size()));
  return compiled;
}

void StatementCache::EraseLocked(
    std::unordered_map<std::string, Entry>::iterator it) {
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

void StatementCache::InvalidateTables(const std::vector<std::string>& tables) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.invalidations;
  Metrics().invalidations->Increment();
  if (tables.empty()) {
    stats_.invalidated_entries += static_cast<int64_t>(entries_.size());
    entries_.clear();
    lru_.clear();
  } else {
    for (auto it = entries_.begin(); it != entries_.end();) {
      const std::vector<std::string>& referenced =
          it->second.compiled->tables;
      const bool affected = std::any_of(
          tables.begin(), tables.end(), [&](const std::string& t) {
            return std::find(referenced.begin(), referenced.end(), t) !=
                   referenced.end();
          });
      if (affected) {
        auto dead = it++;
        EraseLocked(dead);
        ++stats_.invalidated_entries;
      } else {
        ++it;
      }
    }
  }
  stats_.size = entries_.size();
  Metrics().size->Set(static_cast<int64_t>(entries_.size()));
}

void StatementCache::InvalidateAll() { InvalidateTables({}); }

StatementCache::Stats StatementCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<StatementCache::EntryInfo> StatementCache::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<EntryInfo> out;
  out.reserve(entries_.size());
  for (const std::string& key : lru_) {  // MRU first
    auto it = entries_.find(key);
    if (it != entries_.end()) out.push_back({key, it->second.compiled});
  }
  return out;
}

}  // namespace caldb
