#include "runtime/cache.h"

#include <algorithm>

namespace kd::runtime {

const model::ApiObject* ObjectCache::Get(const std::string& key) const {
  TouchLane(key);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.invalid) return nullptr;
  return &it->second.object;
}

// Keys are "Kind/name", so a kind's objects are the entries prefixed
// "Kind/". The table has no order to range over; the views that promise
// key order collect their entries and sort them here, which is cheap
// because they run on relists, handshakes and drains, never per event.
std::vector<const ObjectCache::Table::value_type*> ObjectCache::SortedEntries(
    std::string_view prefix, bool invalid) const {
  std::vector<const Table::value_type*> out;
  for (const Table::value_type& slot : entries_) {
    if (slot.second.invalid == invalid &&
        std::string_view(slot.first).starts_with(prefix)) {
      out.push_back(&slot);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Table::value_type* a, const Table::value_type* b) {
              return a->first < b->first;
            });
  return out;
}

std::vector<const model::ApiObject*> ObjectCache::List(
    const std::string& kind) const {
  TouchLane(kind + "/*");
  const std::string prefix = kind + "/";
  std::vector<const model::ApiObject*> out;
  for (const Table::value_type* slot : SortedEntries(prefix, false)) {
    out.push_back(&slot->second.object);
  }
  return out;
}

std::size_t ObjectCache::VisibleCount(const std::string& kind) const {
  TouchLane(kind + "/*");
  const std::string prefix = kind + "/";
  std::size_t n = 0;
  for (const auto& [key, entry] : entries_) {
    if (!entry.invalid && key.starts_with(prefix)) ++n;
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
  TouchLane(key);
  // One lookup; try_emplace leaves `obj` untouched when the key exists.
  auto [it, added] = entries_.try_emplace(key, std::move(obj), false);
  if (added) {
    FireChange(key, nullptr, &it->second.object);
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
  TouchLane(key);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  const bool was_visible = !it->second.invalid;
  model::ApiObject before = std::move(it->second.object);
  entries_.erase(it);
  if (was_visible) FireChange(key, &before, nullptr);
}

void ObjectCache::MarkInvalid(const std::string& key) {
  TouchLane(key);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.invalid) return;
  it->second.invalid = true;
  FireChange(key, &it->second.object, nullptr);
}

bool ObjectCache::IsInvalid(const std::string& key) const {
  TouchLane(key);
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.invalid;
}

void ObjectCache::DropInvalid(const std::string& key) {
  TouchLane(key);
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.invalid) entries_.erase(it);
}

std::vector<std::string> ObjectCache::InvalidKeys() const {
  TouchLane("*");
  std::vector<std::string> out;
  for (const Table::value_type* slot : SortedEntries("", true)) {
    out.push_back(slot->first);
  }
  return out;
}

void ObjectCache::Clear() {
  TouchLane("*");
  entries_.clear();
}

void ObjectCache::ForEachVisible(
    const std::function<void(const model::ApiObject&)>& fn) const {
  TouchLane("*");
  for (const Table::value_type* slot : SortedEntries("", false)) {
    fn(slot->second.object);
  }
}

std::size_t ObjectCache::size() const {
  TouchLane("*");
  std::size_t n = 0;
  for (const auto& [key, entry] : entries_) {
    if (!entry.invalid) ++n;
  }
  return n;
}

}  // namespace kd::runtime
