#include "kubedirect/materialize.h"

#include "common/strings.h"

namespace kd::kubedirect {

Status ApplyAttr(model::ApiObject& obj, const std::string& path,
                 const model::Value& value) {
  // Split off the top-level section.
  const std::string_view full = path;
  const std::size_t dot = full.find('.');
  const std::string_view section = full.substr(0, dot);
  model::Value* target = nullptr;
  if (section == "metadata") {
    target = &obj.metadata;
  } else if (section == "spec") {
    target = &obj.spec;
  } else if (section == "status") {
    target = &obj.status;
  } else {
    return InvalidArgumentError("unknown attribute section: " + path);
  }
  if (dot == std::string::npos) {
    // Whole-section replacement (e.g. "spec" -> template copy).
    *target = value;
    return OkStatus();
  }
  const std::string_view rest = full.substr(dot + 1);
  if (value.is_null()) {
    target->ErasePath(rest);
  } else {
    target->SetPath(rest, value);
  }
  return OkStatus();
}

StatusOr<model::ApiObject> Materialize(const KdMessage& msg,
                                       const runtime::ObjectCache& cache) {
  const std::size_t slash = msg.obj_key.find('/');
  if (slash == std::string::npos) {
    return InvalidArgumentError("malformed object key: " + msg.obj_key);
  }

  model::ApiObject obj;
  if (const model::ApiObject* existing = cache.Get(msg.obj_key)) {
    obj = *existing;  // patch semantics
  } else {
    obj.kind = msg.obj_key.substr(0, slash);
    obj.name = msg.obj_key.substr(slash + 1);
  }

  for (const auto& [path, value] : msg.attrs) {
    if (value.is_pointer()) {
      const KdPointer& ptr = value.pointer();
      const model::ApiObject* referenced = cache.Get(ptr.obj_key);
      if (referenced == nullptr) {
        return FailedPreconditionError(
            StrFormat("dangling pointer to %s (materializing %s)",
                      ptr.obj_key.c_str(), msg.obj_key.c_str()));
      }
      // Resolve against the referenced object's sections.
      const std::string_view ref_path = ptr.attr_path;
      const std::size_t ref_dot = ref_path.find('.');
      const std::string_view ref_section = ref_path.substr(0, ref_dot);
      const model::Value* section_value =
          ref_section == "metadata" ? &referenced->metadata
          : ref_section == "spec"   ? &referenced->spec
          : ref_section == "status" ? &referenced->status
                                    : nullptr;
      if (section_value == nullptr) {
        return InvalidArgumentError("bad pointer path: " + ptr.attr_path);
      }
      const model::Value* resolved =
          ref_dot == std::string::npos
              ? section_value
              : section_value->FindPath(ref_path.substr(ref_dot + 1));
      if (resolved == nullptr) {
        return FailedPreconditionError(
            StrFormat("pointer path %s not found in %s",
                      ptr.attr_path.c_str(), ptr.obj_key.c_str()));
      }
      Status s = ApplyAttr(obj, path, *resolved);
      if (!s.ok()) return s;
    } else {
      Status s = ApplyAttr(obj, path, value.literal());
      if (!s.ok()) return s;
    }
  }
  return obj;
}

}  // namespace kd::kubedirect
