// A sorted array of (key, value) fields: the object representation of
// model::Value and the attribute list of a KdMessage.
//
// Keys are kept in std::map<std::string, V>'s order (byte-wise), so
// iteration, equality and everything rendered from them (serialized
// JSON, hashes, diffs) match what a std::map gives. Fields sit in one
// contiguous block and a lookup is a binary search over it, where a
// std::map spends a heap node per field and chases pointers.
//
// The price is std::vector's invalidation rule: inserting or erasing a
// field moves the fields behind it (and may reallocate all of them),
// so it invalidates references, pointers and iterators into *this*
// array. A std::map never did that. Do not edit keys through a mutable
// iterator; that breaks the order every lookup relies on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

namespace kd::model {

template <typename V>
class FieldArray {
 public:
  using value_type = std::pair<std::string, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return fields_.begin(); }
  iterator end() { return fields_.end(); }
  const_iterator begin() const { return fields_.begin(); }
  const_iterator end() const { return fields_.end(); }
  std::size_t size() const { return fields_.size(); }
  bool empty() const { return fields_.empty(); }

  iterator find(std::string_view key) {
    const auto it = LowerBound(key);
    return it != fields_.end() && it->first == key ? it : fields_.end();
  }
  const_iterator find(std::string_view key) const {
    const auto it = LowerBound(key);
    return it != fields_.end() && it->first == key ? it : fields_.end();
  }
  std::size_t count(std::string_view key) const {
    return find(key) != end() ? 1 : 0;
  }

  // Inserts (key, V(args...)) unless `key` is present, which keeps the
  // existing value (std::map::emplace semantics).
  template <typename... Args>
  std::pair<iterator, bool> emplace(std::string key, Args&&... args) {
    const auto it = LowerBound(key);
    if (it != fields_.end() && it->first == key) return {it, false};
    return {Insert(it, std::move(key), std::forward<Args>(args)...), true};
  }

  // Inserting lookup: a missing key gets a value-initialized V.
  V& operator[](std::string_view key) {
    const auto it = LowerBound(key);
    if (it != fields_.end() && it->first == key) return it->second;
    return Insert(it, key)->second;
  }

  std::size_t erase(std::string_view key) {
    const auto it = find(key);
    if (it == fields_.end()) return 0;
    fields_.erase(it);
    return 1;
  }

  bool operator==(const FieldArray& other) const {
    return fields_ == other.fields_;
  }

 private:
  iterator LowerBound(std::string_view key) {
    return std::lower_bound(fields_.begin(), fields_.end(), key, KeyLess{});
  }
  const_iterator LowerBound(std::string_view key) const {
    return std::lower_bound(fields_.begin(), fields_.end(), key, KeyLess{});
  }

  template <typename K, typename... Args>
  iterator Insert(const_iterator pos, K&& key, Args&&... args) {
    return fields_.emplace(pos, std::piecewise_construct,
                           std::forward_as_tuple(std::forward<K>(key)),
                           std::forward_as_tuple(std::forward<Args>(args)...));
  }

  struct KeyLess {
    bool operator()(const value_type& field, std::string_view key) const {
      return std::string_view(field.first) < key;
    }
  };

  std::vector<value_type> fields_;
};

}  // namespace kd::model
