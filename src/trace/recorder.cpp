#include "trace/recorder.h"

#include <charconv>
#include <sstream>
#include <string_view>

#include "common/error.h"
#include "common/strings.h"

namespace edx::trace {

std::string TraceBundle::to_text() const {
  std::ostringstream out;
  out << "BUNDLE user=" << user << " device=" << device_name << '\n';
  out << "[events]\n" << events.to_text();
  out << "[utilization]\n" << utilization.to_text();
  out << "[end]\n";
  return out.str();
}

TraceBundle TraceBundle::from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || !strings::starts_with(line, "BUNDLE ")) {
    throw ParseError("TraceBundle::from_text: missing BUNDLE header");
  }
  TraceBundle bundle;
  // "BUNDLE user=<n> device=<name...>" — device names may contain spaces,
  // so the device field runs to the end of the line.
  const std::string header = line.substr(7);
  const std::size_t device_pos = header.find(" device=");
  if (device_pos == std::string::npos ||
      !strings::starts_with(header, "user=")) {
    throw ParseError("TraceBundle::from_text: malformed BUNDLE header");
  }
  // The whole field must be one decimal UserId: a trailing suffix
  // ("0abc") or a non-number is a malformed upload, not user 0.
  const std::string_view user_field =
      std::string_view(header).substr(5, device_pos - 5);
  const char* const user_end = user_field.data() + user_field.size();
  const auto [parsed_end, ec] =
      std::from_chars(user_field.data(), user_end, bundle.user);
  if (ec != std::errc() || parsed_end != user_end) {
    throw ParseError("TraceBundle::from_text: malformed user field '" +
                     std::string(user_field) + "'");
  }
  bundle.device_name = strings::trim(header.substr(device_pos + 8));

  std::string events_text;
  std::string util_text;
  std::string* section = nullptr;
  while (std::getline(in, line)) {
    const std::string trimmed = strings::trim(line);
    if (trimmed == "[events]") {
      section = &events_text;
    } else if (trimmed == "[utilization]") {
      section = &util_text;
    } else if (trimmed == "[end]") {
      section = nullptr;
    } else if (section != nullptr) {
      *section += line + "\n";
    }
  }
  bundle.events = EventTrace::from_text(events_text);
  bundle.utilization = UtilizationTrace::from_text(util_text);
  return bundle;
}

TraceRecorder::TraceRecorder(power::Device device,
                             power::TrackerConfig tracker_config, Rng rng)
    : device_(device),
      tracker_(power::PowerModel(std::move(device)), tracker_config, rng) {}

TraceBundle TraceRecorder::record(const android::RunResult& run,
                                  power::UtilizationTimeline& timeline,
                                  UserId user, Pid tracker_pid) {
  tracker_.register_self_cost(timeline, tracker_pid, run.start_time,
                              run.end_time);
  TraceBundle bundle;
  bundle.user = user;
  bundle.device_name = device_.name();
  bundle.events = EventTrace::from_run(run);
  bundle.utilization = UtilizationTrace(
      device_.name(),
      tracker_.track(timeline, run.pid, run.start_time, run.end_time));
  return bundle;
}

}  // namespace edx::trace
