#include "observability.hpp"

#include "sim/event_queue.hpp"

namespace flex::obs {

Observability::Observability(ObservabilityConfig config)
    : recorder_(config.recorder), tracer_(config.tracer, &metrics_)
{
  tracer_.SetRecorder(&recorder_);
}

void
Observability::BindClock(const sim::EventQueue& queue)
{
  metrics_.SetClock(&queue);
  SetLogClock(&queue);
}

void
Observability::UnbindClock(const sim::EventQueue& queue)
{
  if (metrics_.clock() == &queue)
    metrics_.SetClock(nullptr);
  if (GetLogClock() == &queue)
    SetLogClock(nullptr);
}

}  // namespace flex::obs
