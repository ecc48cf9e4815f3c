#include "trace/recorder.hpp"

#include <utility>

#include "obs/counters.hpp"

namespace wolf {

namespace {
const obs::Counter kRecordedEvents("trace.recorded_events");
}  // namespace

Trace TraceRecorder::take() {
  kRecordedEvents.add(trace_.events.size());
  next_seq_ = 0;
  return std::exchange(trace_, Trace{});
}

}  // namespace wolf
