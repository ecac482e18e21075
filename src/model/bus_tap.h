// BusRecorderTap: builds TraceRecorder histories from the obs event bus,
// the one path by which the RPC layer reports them. The call-level
// events (kCallIssue/kCallCollate/kExecuteBegin/kExecuteEnd) carry each
// call's (module, procedure, payload) triple and its thread, so a tap
// attached for a process's origin address records that process's
// per-thread history (Section 3.3.1) — which lets the chaos harness and
// tests run their Section 3.5.2 determinism checks off the bus like
// every other observer.
#ifndef SRC_MODEL_BUS_TAP_H_
#define SRC_MODEL_BUS_TAP_H_

#include <cstdint>
#include <map>

#include "src/model/recorder.h"
#include "src/obs/bus.h"

namespace circus::model {

class BusRecorderTap {
 public:
  // Subscribes to `bus` (which must outlive the tap).
  explicit BusRecorderTap(obs::EventBus* bus);
  BusRecorderTap(const BusRecorderTap&) = delete;
  BusRecorderTap& operator=(const BusRecorderTap&) = delete;
  ~BusRecorderTap();

  // Routes call events whose origin equals `origin` (the process's
  // packed address, obs::PackAddress) into `recorder`. The recorder
  // must outlive the tap or be detached first. Re-attaching an origin
  // replaces the previous recorder.
  void Attach(uint64_t origin, TraceRecorder* recorder);
  void Detach(uint64_t origin);

 private:
  void OnEvent(const obs::Event& e);

  obs::EventBus* bus_;
  obs::EventBus::SubscriberId id_ = 0;
  std::map<uint64_t, TraceRecorder*> recorders_;
};

}  // namespace circus::model

#endif  // SRC_MODEL_BUS_TAP_H_
