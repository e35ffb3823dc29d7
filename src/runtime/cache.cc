#include "runtime/cache.h"

namespace kd::runtime {

const model::ApiObject* ObjectCache::Get(const std::string& key) const {
  TouchLane(key, /*write=*/false);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.invalid) return nullptr;
  return &it->second.object;
}

// Keys are "Kind/name" and entries_ is sorted, so all objects of one
// kind occupy the contiguous range of keys prefixed "Kind/". Scanning
// just that range keeps List/VisibleCount O(kind population) instead of
// O(total entries) — these run inside controller reconcile loops.
std::vector<const model::ApiObject*> ObjectCache::List(
    const std::string& kind) const {
  TouchLane(kind + "/*", /*write=*/false);
  std::vector<const model::ApiObject*> out;
  const std::string prefix = kind + "/";
  for (auto it = entries_.lower_bound(prefix);
       it != entries_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    if (!it->second.invalid) out.push_back(&it->second.object);
  }
  return out;
}

std::size_t ObjectCache::VisibleCount(const std::string& kind) const {
  TouchLane(kind + "/*", /*write=*/false);
  std::size_t n = 0;
  const std::string prefix = kind + "/";
  for (auto it = entries_.lower_bound(prefix);
       it != entries_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    if (!it->second.invalid) ++n;
  }
  return n;
}

void ObjectCache::FireChange(const std::string& key,
                             const model::ApiObject* before,
                             const model::ApiObject* after) {
  for (const auto& handler : handlers_) handler(key, before, after);
}

void ObjectCache::Upsert(model::ApiObject obj) {
  const std::string key = obj.Key();
  TouchLane(key, /*write=*/true);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    auto [ins, ok] = entries_.emplace(key, Entry{std::move(obj), false});
    (void)ok;
    FireChange(key, nullptr, &ins->second.object);
    return;
  }
  const bool was_visible = !it->second.invalid;
  // The old object moves out (no copy); handlers see it as `before`.
  model::ApiObject before = std::move(it->second.object);
  it->second.object = std::move(obj);
  it->second.invalid = false;
  FireChange(key, was_visible ? &before : nullptr, &it->second.object);
}

void ObjectCache::Remove(const std::string& key) {
  TouchLane(key, /*write=*/true);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  const bool was_visible = !it->second.invalid;
  model::ApiObject before = std::move(it->second.object);
  entries_.erase(it);
  if (was_visible) FireChange(key, &before, nullptr);
}

void ObjectCache::MarkInvalid(const std::string& key) {
  TouchLane(key, /*write=*/true);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.invalid) return;
  it->second.invalid = true;
  FireChange(key, &it->second.object, nullptr);
}

bool ObjectCache::IsInvalid(const std::string& key) const {
  TouchLane(key, /*write=*/false);
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.invalid;
}

void ObjectCache::DropInvalid(const std::string& key) {
  TouchLane(key, /*write=*/true);
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.invalid) entries_.erase(it);
}

std::vector<std::string> ObjectCache::InvalidKeys() const {
  TouchLane("*", /*write=*/false);
  std::vector<std::string> out;
  for (const auto& [key, entry] : entries_) {
    if (entry.invalid) out.push_back(key);
  }
  return out;
}

void ObjectCache::Clear() {
  TouchLane("*", /*write=*/true);
  entries_.clear();
}

void ObjectCache::ForEachVisible(
    const std::function<void(const model::ApiObject&)>& fn) const {
  TouchLane("*", /*write=*/false);
  for (const auto& [key, entry] : entries_) {
    if (!entry.invalid) fn(entry.object);
  }
}

std::size_t ObjectCache::size() const {
  TouchLane("*", /*write=*/false);
  std::size_t n = 0;
  for (const auto& [key, entry] : entries_) {
    if (!entry.invalid) ++n;
  }
  return n;
}

}  // namespace kd::runtime
