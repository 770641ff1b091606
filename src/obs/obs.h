// Umbrella header for the observability layer: tracing spans, metrics,
// and the structured event log. See docs/OBSERVABILITY.md for the span
// naming scheme, the metric catalog, and the disarmed-cost contract.
#pragma once

#include "obs/clock.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/physics.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/trace.h"
