#include "android/app.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace edx::android {

const CallbackSpec* ComponentSpec::find_callback(
    const std::string& name) const {
  for (const CallbackSpec& callback : callbacks) {
    if (callback.name == name) return &callback;
  }
  return nullptr;
}

CallbackSpec* ComponentSpec::find_callback(const std::string& name) {
  return const_cast<CallbackSpec*>(
      static_cast<const ComponentSpec*>(this)->find_callback(name));
}

void ComponentSpec::set_callback(CallbackSpec callback) {
  if (CallbackSpec* existing = find_callback(callback.name)) {
    *existing = std::move(callback);
    return;
  }
  callbacks.push_back(std::move(callback));
}

const ComponentSpec* AppSpec::find_component(
    const std::string& class_name) const {
  for (const ComponentSpec& component : components) {
    if (component.class_name == class_name) return &component;
  }
  return nullptr;
}

ComponentSpec* AppSpec::find_component(const std::string& class_name) {
  return const_cast<ComponentSpec*>(
      static_cast<const AppSpec*>(this)->find_component(class_name));
}

int AppSpec::total_loc() const {
  int total = glue_loc;
  for (const ComponentSpec& component : components) {
    total += component.helper_loc;
    for (const CallbackSpec& callback : component.callbacks) {
      total += callback.lines_of_code;
    }
  }
  return total;
}

void AppSpec::ensure_lifecycle_callbacks() {
  const auto default_callback = [](const std::string& name) {
    CallbackSpec callback;
    callback.name = name;
    // A typical real-world lifecycle override plus the private helpers it
    // calls — the unit of code a developer reads when the event is
    // reported to them.
    callback.lines_of_code = 24;
    callback.behavior = {lift(cpu_work(4, 0.25))};
    return callback;
  };

  for (ComponentSpec& component : components) {
    const std::vector<std::string> needed =
        component.kind == ClassKind::kActivity
            ? std::vector<std::string>{"onCreate", "onStart", "onResume",
                                       "onPause", "onStop", "onRestart",
                                       "onDestroy"}
            : std::vector<std::string>{"onCreate", "onStartCommand",
                                       "onDestroy"};
    if (component.kind == ClassKind::kOther) continue;
    for (const std::string& name : needed) {
      if (component.find_callback(name) == nullptr) {
        component.callbacks.push_back(default_callback(name));
      }
    }
  }
}

std::string make_class_name(const std::string& package_name,
                            const std::string& subpackage,
                            const std::string& simple_name) {
  require(!package_name.empty() && !simple_name.empty(),
          "make_class_name: package and simple name must be non-empty");
  std::string path = strings::replace_all(package_name, ".", "/");
  if (!subpackage.empty()) path += "/" + subpackage;
  return "L" + path + "/" + simple_name + ";";
}

}  // namespace edx::android
