#include "src/workloads/run.h"

#include "src/workloads/linux_workloads.h"
#include "src/workloads/vista_workloads.h"

namespace tempo {

namespace {

constexpr WorkloadEntry kWorkloads[] = {
    {"linux-idle", RunLinuxIdle},       {"linux-skype", RunLinuxSkype},
    {"linux-firefox", RunLinuxFirefox}, {"linux-webserver", RunLinuxWebserver},
    {"vista-idle", RunVistaIdle},       {"vista-skype", RunVistaSkype},
    {"vista-firefox", RunVistaFirefox}, {"vista-webserver", RunVistaWebserver},
    {"vista-desktop", RunVistaDesktop},
};

}  // namespace

const WorkloadEntry* FindWorkload(std::string_view name) {
  for (const WorkloadEntry& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

std::string WorkloadUsage(std::string_view first, std::string_view last) {
  std::string out = "  workloads: ";
  out += first;
  std::string_view os;
  for (const WorkloadEntry& w : kWorkloads) {
    const std::string_view name = w.name;
    const size_t dash = name.find('-') + 1;
    if (name.substr(0, dash) != os) {
      out += os.empty() ? "" : "},\n             ";
      os = name.substr(0, dash);
      out += os;
      out += "{";
    } else {
      out += ",";
    }
    out += name.substr(dash);
  }
  out += "}";
  out += last;
  out += "\n";
  return out;
}

void AttachLiveTap(const WorkloadOptions& options, TraceRun* run, TraceRecorder* recorder) {
  LiveTapOptions* live = options.live;
  if (live == nullptr || live->channels == nullptr) {
    return;
  }
  RelayChannel* tap = live->channels->Register("live/" + run->label);
  recorder->SetLiveTap(tap);
  if (live->poll && live->period > 0) {
    run->keepalive.push_back(
        run->sim->SchedulePeriodic(live->period, [tap, poll = live->poll] {
          tap->FlushOpen();  // the drainer only sees published sub-buffers
          poll();
        }));
  }
}

}  // namespace tempo
