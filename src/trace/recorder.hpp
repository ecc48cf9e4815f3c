// Trace sinks. Substrates report instrumentation callbacks to a TraceSink;
// the standard sink is TraceRecorder, which assigns global sequence numbers
// and accumulates a Trace. A NullSink supports "uninstrumented" baseline
// runs for slowdown measurements.
#pragma once

#include <cstdint>

#include "trace/event.hpp"

namespace wolf {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  // `e.seq` is ignored on input; sinks that keep events assign their own
  // sequence numbers. Callers must already hold whatever lock serializes
  // the substrate's event emission (sim emits from one OS thread; rt emits
  // only under its executor's monitor).
  virtual void on_event(Event e) = 0;
};

class NullSink final : public TraceSink {
 public:
  void on_event(Event) override {}
};

class TraceRecorder final : public TraceSink {
 public:
  void on_event(Event e) override {
    e.seq = next_seq_++;
    trace_.events.push_back(e);
  }

  const Trace& trace() const { return trace_; }
  // Hands over the recording (counted as trace.recorded_events) and leaves
  // the recorder empty, its sequence restarted at 0.
  Trace take();

 private:
  Trace trace_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace wolf
