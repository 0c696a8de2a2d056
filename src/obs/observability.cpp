#include "observability.hpp"

namespace flex::obs {

Observability::Observability(ObservabilityConfig config)
    : recorder_(config.recorder), tracer_(config.tracer, &metrics_)
{
  tracer_.SetRecorder(&recorder_);
}

}  // namespace flex::obs
