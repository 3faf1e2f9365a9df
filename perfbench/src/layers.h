/**
 * @file
 * The traced run: per-layer metrics of every module, read from the
 * spans and counters the library already emits plus timed calls into
 * each module's public functions.
 */

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include "bench.h"
#include "serve_load.h"
#include "stages.h"

namespace perfbench {

/**
 * Measure every layer once untraced and once under obs tracing, and
 * record the per-layer metrics plus the traced and untraced
 * pipeline_s, fit_s and serve_rows_per_s (the tracing overhead).
 */
void measureLayers(const Options &options, Report &report,
                   PipelineWorkload &pipeline, TrainWorkload &train,
                   ServeWorkload &serve);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H_
