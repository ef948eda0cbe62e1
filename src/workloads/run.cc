#include "src/workloads/run.h"

namespace tempo {

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
