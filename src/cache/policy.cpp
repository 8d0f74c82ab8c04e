#include "cache/policy.h"

#include <algorithm>

namespace visapult::cache {

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLru: return "lru";
    case PolicyKind::kSegmentedLru: return "slru";
  }
  return "unknown";
}

std::unique_ptr<EvictionPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kSegmentedLru:
      return std::make_unique<SegmentedLruPolicy>();
    case PolicyKind::kLru:
      break;
  }
  return std::make_unique<LruPolicy>();
}

// ---- LRU -------------------------------------------------------------------

void LruPolicy::on_insert(const BlockKey& key) {
  order_.push_front(key);
  pos_[key] = order_.begin();
}

void LruPolicy::on_access(const BlockKey& key) {
  auto it = pos_.find(key);
  if (it == pos_.end()) return;
  order_.splice(order_.begin(), order_, it->second);
  it->second = order_.begin();
}

void LruPolicy::on_erase(const BlockKey& key) {
  auto it = pos_.find(key);
  if (it == pos_.end()) return;
  order_.erase(it->second);
  pos_.erase(it);
}

bool LruPolicy::select_victim(
    const std::function<bool(const BlockKey&)>& evictable, BlockKey* victim) {
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    if (evictable(*it)) {
      *victim = *it;
      return true;
    }
  }
  return false;
}

// ---- Segmented LRU ---------------------------------------------------------

std::size_t SegmentedLruPolicy::protected_cap() const {
  // ceil(2/3 of tracked keys), at least 1.
  return std::max<std::size_t>(1, (pos_.size() * 2 + 2) / 3);
}

void SegmentedLruPolicy::enforce_protected_cap() {
  while (protected_.size() > protected_cap()) {
    // Demote the protected tail to the probationary MRU position: it keeps
    // one more chance before becoming an eviction candidate.
    const BlockKey key = protected_.back();
    protected_.pop_back();
    probation_.push_front(key);
    Slot& slot = pos_[key];
    slot.it = probation_.begin();
    slot.is_protected = false;
  }
}

void SegmentedLruPolicy::on_insert(const BlockKey& key) {
  probation_.push_front(key);
  Slot slot;
  slot.it = probation_.begin();
  slot.is_protected = false;
  pos_[key] = slot;
}

void SegmentedLruPolicy::on_access(const BlockKey& key) {
  auto it = pos_.find(key);
  if (it == pos_.end()) return;
  Slot& slot = it->second;
  if (slot.is_protected) {
    protected_.splice(protected_.begin(), protected_, slot.it);
  } else {
    // Re-reference promotes out of probation: scans touch each block once
    // and therefore never displace the protected set.
    probation_.erase(slot.it);
    protected_.push_front(key);
    slot.is_protected = true;
  }
  slot.it = protected_.begin();
  enforce_protected_cap();
}

void SegmentedLruPolicy::on_erase(const BlockKey& key) {
  auto it = pos_.find(key);
  if (it == pos_.end()) return;
  if (it->second.is_protected) {
    protected_.erase(it->second.it);
  } else {
    probation_.erase(it->second.it);
  }
  pos_.erase(it);
}

bool SegmentedLruPolicy::select_victim(
    const std::function<bool(const BlockKey&)>& evictable, BlockKey* victim) {
  for (auto it = probation_.rbegin(); it != probation_.rend(); ++it) {
    if (evictable(*it)) {
      *victim = *it;
      return true;
    }
  }
  for (auto it = protected_.rbegin(); it != protected_.rend(); ++it) {
    if (evictable(*it)) {
      *victim = *it;
      return true;
    }
  }
  return false;
}

}  // namespace visapult::cache
