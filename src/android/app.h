// Declarative app model.
//
// An AppSpec describes a simulated app the way its manifest + source tree
// would: components (activities/services), their callbacks with behavior
// scripts and source-line budgets, default configuration, and the bulk
// "everything else" code that is not in any instrumented callback.  The
// catalog in src/workload builds AppSpecs; apk_builder lowers them to dex.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "android/dex.h"
#include "android/event.h"
#include "android/ops.h"

namespace edx::android {

/// One callback of a component.
struct CallbackSpec {
  std::string name;        ///< "onResume", "onClick:btnSend", "menuDeleted"
  int lines_of_code{12};   ///< handler + directly-invoked private helpers
  Behavior behavior;
};

/// One activity or service.
struct ComponentSpec {
  std::string class_name;   ///< "Lcom/fsck/k9/activity/MessageList;"
  std::string simple_name;  ///< "MessageList"
  ClassKind kind{ClassKind::kActivity};
  std::vector<CallbackSpec> callbacks;
  /// Source lines in this component *outside* any callback (private
  /// helpers, adapters, layouts); lowered to helper methods in the dex.
  int helper_loc{0};

  [[nodiscard]] const CallbackSpec* find_callback(
      const std::string& name) const;
  [[nodiscard]] CallbackSpec* find_callback(const std::string& name);

  /// Adds a callback, replacing any existing one with the same name.
  void set_callback(CallbackSpec callback);
};

/// A whole app.
struct AppSpec {
  std::string package_name;  ///< "com.fsck.k9"
  std::string display_name;  ///< "K-9 Mail"
  std::vector<ComponentSpec> components;
  std::string main_activity;  ///< class_name of the launcher activity
  std::map<std::string, std::string> default_config;
  /// App-level code outside all components (build glue, libraries vendored
  /// into the app, resources' code-behind).
  int glue_loc{0};

  [[nodiscard]] const ComponentSpec* find_component(
      const std::string& class_name) const;
  [[nodiscard]] ComponentSpec* find_component(const std::string& class_name);

  /// Total source lines: callbacks + helpers + glue.
  [[nodiscard]] int total_loc() const;

  /// Gives every activity the full lifecycle set and every service
  /// onCreate/onStartCommand/onDestroy, adding default lightweight
  /// callbacks where the builder did not specify one.  Idempotent.
  void ensure_lifecycle_callbacks();
};

/// Builds the canonical JVM class name for a component of `package`:
/// make_class_name("com.fsck.k9", "activity", "MessageList")
///   == "Lcom/fsck/k9/activity/MessageList;".
std::string make_class_name(const std::string& package_name,
                            const std::string& subpackage,
                            const std::string& simple_name);

}  // namespace edx::android
