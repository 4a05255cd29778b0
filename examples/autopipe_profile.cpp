// Measurement-driven planning workflow (the paper's Fig. 2 front-end):
//
//   autopipe_profile profile   [flags]   measure per-block times, fill cache
//   autopipe_profile plan --from-profile [flags]   plan from measurements
//   autopipe_profile calibrate [flags]   measured-vs-analytic error table
//
// Profiles are cached on disk (--cache-dir, default ".") keyed by model
// spec, micro-batch size, sequence length and host fingerprint: the first
// `profile` measures and writes the cache entry, any later invocation on
// the same host reports a cache hit and skips measurement (--force
// re-measures). `plan` without --from-profile uses the analytic model, so
// the two config sources are directly comparable through the same planner.
//
// Flags: --model <zoo-name|tiny> (default tiny: a CPU-friendly transformer;
// override its shape with --layers/--hidden/--heads/--vocab), --mbs, --seq,
// --warmup, --samples, --inner, --estimator median|trimmed, --trim, --seed,
// --every-layer (time every layer instead of sharing layer-0 timings),
// --max-age <seconds>, --gpus, --gbs, --stages.
#include <cstdio>
#include <string>

#include "core/autopipe.h"
#include "costmodel/config_io.h"
#include "profiler/calibration.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace autopipe;

costmodel::ModelSpec spec_from(const util::Cli& cli) {
  const std::string name = cli.get("model", "tiny");
  costmodel::ModelSpec spec;
  if (name == "tiny") {
    // Small enough that profiling the real CPU tensor blocks takes
    // milliseconds; still the full Fig. 3 block structure.
    spec.name = "tiny";
    spec.num_layers = 2;
    spec.hidden = 32;
    spec.heads = 4;
    spec.vocab = 128;
    spec.default_seq = 16;
    spec.causal = true;
  } else {
    spec = costmodel::model_by_name(name);
  }
  spec.num_layers = cli.get_int("layers", spec.num_layers);
  spec.hidden = cli.get_int("hidden", spec.hidden);
  spec.heads = cli.get_int("heads", spec.heads);
  spec.vocab = cli.get_int("vocab", spec.vocab);
  return spec;
}

profiler::SessionOptions session_from(const util::Cli& cli) {
  profiler::SessionOptions s;
  s.cache_dir = cli.get("cache-dir", ".");
  s.force_remeasure = cli.get_bool("force", false);
  s.max_age_seconds = cli.get_int("max-age", 0);
  s.profiler.warmup = cli.get_int("warmup", 2);
  s.profiler.samples = cli.get_int("samples", 5);
  s.profiler.inner_iterations = cli.get_int("inner", 1);
  s.profiler.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  s.profiler.share_layer_timings = !cli.get_bool("every-layer", false);
  s.profiler.trim_frac = cli.checked_double("trim", 0.2, 0.0, 0.49);
  if (cli.get("estimator", "median") == "trimmed") {
    s.profiler.estimator = profiler::TimingEstimator::TrimmedMean;
  }
  return s;
}

void print_source(const profiler::SessionResult& source) {
  if (source.from_cache) {
    std::printf("profile cache HIT: %s (no re-measurement)\n",
                source.cache_path.c_str());
  } else {
    std::printf("profile cache MISS (%s): measured and stored %s\n",
                source.miss_reason.c_str(), source.cache_path.c_str());
  }
}

int do_profile(const costmodel::ModelSpec& spec,
               const costmodel::TrainConfig& train,
               const profiler::SessionOptions& session) {
  const auto source = profiler::obtain_profile(spec, train, session);
  print_source(source);
  if (!source.from_cache) {
    util::Table t({"block", "kind", "fwd (ms)", "fwd stddev", "bwd (ms)",
                   "bwd stddev", "shared"});
    for (const auto& m : source.measurement.measurements) {
      t.add_row({m.name, costmodel::to_string(m.kind),
                 util::Table::fmt(m.fwd_ms, 4),
                 util::Table::fmt(m.fwd.stddev, 4),
                 util::Table::fmt(m.bwd_ms, 4),
                 util::Table::fmt(m.bwd.stddev, 4), m.shared ? "yes" : "no"});
    }
    std::printf("%s", t.to_ascii().c_str());
    std::printf("profiling wall time: %.1f ms\n",
                source.measurement.wall_ms);
    std::printf("note: memory/comm fields are analytic; only fwd/bwd times "
                "are measured\n");
  }
  std::printf("total measured fwd %.4f ms, bwd %.4f ms per micro-batch\n",
              source.config.total_fwd_ms(), source.config.total_bwd_ms());
  return 0;
}

int do_plan(const util::Cli& cli, const costmodel::ModelSpec& spec,
            const costmodel::TrainConfig& train,
            const profiler::SessionOptions& session) {
  const int gpus = cli.checked_int("gpus", 4, 1, 1 << 20);
  const long gbs = cli.checked_int("gbs", 64, 1, 1 << 30);
  const int stages = cli.checked_int("stages", 0, 0, 1 << 20);
  const core::AutoPipeOptions options{gpus, gbs, stages, true};

  core::AutoPipeResult result;
  std::string config_source;
  const std::string from = cli.get("from-profile", "");
  if (!from.empty() && from != "true" && from != "false") {
    // Explicit profile file (any config_io file, cached or hand-written).
    const auto cfg = costmodel::load_model_config_file(from);
    result = core::auto_plan(cfg, options);
    config_source = "profile file " + from;
  } else if (cli.get_bool("from-profile", false)) {
    auto planned = core::auto_plan_profiled(spec, train, session, options);
    print_source(planned.source);
    result = std::move(planned.result);
    config_source = "measured profile";
  } else {
    const auto cfg = costmodel::build_model_config(spec, train);
    result = core::auto_plan(cfg, options);
    config_source = "analytic model";
  }

  std::printf("planned %s from %s: %d stage(s) x %d-way data parallel\n",
              spec.name.c_str(), config_source.c_str(),
              result.plan.num_stages(), result.plan.data_parallel);
  util::Table t({"stage", "blocks", "load (ms/micro-batch)"});
  const auto& counts = result.plan.partition.counts;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    t.add_row({std::to_string(s), std::to_string(counts[s]),
               util::Table::fmt(s < result.evaluation.stage_loads_ms.size()
                                    ? result.evaluation.stage_loads_ms[s]
                                    : 0.0,
                                4)});
  }
  std::printf("%s", t.to_ascii().c_str());
  std::printf("iteration %.3f ms; slicer splits %d micro-batch(es), startup "
              "%.3f -> %.3f ms\n",
              result.evaluation.iteration_ms,
              result.slicing.sliced_micro_batches,
              result.slicing.startup_before_ms,
              result.slicing.startup_after_ms);
  return 0;
}

int do_calibrate(const costmodel::ModelSpec& spec,
                 const costmodel::TrainConfig& train,
                 const profiler::SessionOptions& session) {
  const auto source = profiler::obtain_profile(spec, train, session);
  print_source(source);
  const auto analytic = costmodel::build_model_config(spec, train);
  const auto report = profiler::calibrate(source.config, analytic);
  std::printf("%s", report.table().to_ascii().c_str());
  std::printf("analytic-vs-measured relative error: mean %.3f, max %.3f\n",
              report.mean_rel_err, report.max_rel_err);
  std::printf("(measured times are ground truth; memory/comm fields of the "
              "measured config remain analytic)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.positional().empty()) {
    std::fprintf(stderr,
                 "usage: %s profile|plan|calibrate [--model tiny|<zoo>] "
                 "[--mbs N] [--seq N] [--cache-dir DIR] [--force] "
                 "[--from-profile[=FILE]] [--gpus N] [--gbs N] [--stages N]\n",
                 cli.program().c_str());
    return 2;
  }
  const std::string verb = cli.positional()[0];
  try {
    // Flag parsing sits inside the try as well: a bad --stages or an
    // unknown --model is a one-line `error:` + exit 1, not a terminate.
    const costmodel::ModelSpec spec = spec_from(cli);
    const costmodel::TrainConfig train{cli.checked_int("mbs", 2, 1, 1 << 20),
                                       cli.checked_int("seq", 0, 0, 1 << 20),
                                       cli.get_bool("recompute", true)};
    const profiler::SessionOptions session = session_from(cli);
    if (verb == "profile") return do_profile(spec, train, session);
    if (verb == "plan") return do_plan(cli, spec, train, session);
    if (verb == "calibrate") return do_calibrate(spec, train, session);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown verb '%s' (expected profile|plan|calibrate)\n",
               verb.c_str());
  return 2;
}
