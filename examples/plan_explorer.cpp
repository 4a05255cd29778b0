// Plan explorer: compare all four planners on one configuration and export
// traces.
//
//   ./plan_explorer --model gpt2-1.3b --gpus 8 --mbs 16 --gbs 512
//                   [--threads 8] [--trace /tmp/autopipe.trace.json]
//                   [--config profile.cfg] [--save-config profile.cfg]
//                   [--topology uniform|paper] [--gpus-per-node 4]
//                   [--zero-bubble] [--schedule auto|<kind>]
//
// --zero-bubble co-searches the schedule kind on AutoPipe's chosen
// partition: the zero-bubble (split-backward) schedule replaces sliced
// 1F1B when it is faster and its deferred weight-gradient states fit
// device memory. --schedule forces the reported/traced schedule to a
// specific kind (parse_schedule_kind grammar) regardless of the search.
//
// --topology paper prices each stage boundary from the cluster layout
// (PCIe inside a node, 100G InfiniBand across) and the model's activation
// size; every planner and the reported iteration times then see the same
// per-boundary costs. --gpus-per-node sets the node width for that pricing
// (and for DAPPLE's placement search in either mode).
//
// Prints a Table III/IV style comparison row (DAPPLE / Piper / AutoPipe /
// Megatron-LM where applicable) and optionally writes the AutoPipe
// schedule as a chrome://tracing JSON file. With --config, the model
// configs are loaded from a profiled file (see costmodel/config_io.h)
// instead of the analytic model; --save-config dumps the analytic profile
// as a starting point for hand tuning.
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/autopipe.h"
#include "costmodel/analytic.h"
#include "costmodel/config_io.h"
#include "costmodel/topology.h"
#include "planners/dapple.h"
#include "planners/megatron.h"
#include "planners/piper.h"
#include "sim/executor.h"
#include "trace/chrome_trace.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

std::string devices_of(const autopipe::core::ParallelPlan& plan) {
  if (plan.uniform_dp) {
    return std::to_string(plan.num_stages()) + " stages x dp " +
           std::to_string(plan.data_parallel);
  }
  std::string out = "per-stage [";
  for (std::size_t i = 0; i < plan.stage_devices.size(); ++i) {
    if (i) out += " ";
    out += std::to_string(plan.stage_devices[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace autopipe;
  const util::Cli cli(argc, argv);
  const std::string model = cli.get("model", "gpt2-345m");
  const int gpus = cli.checked_int("gpus", 4, 1, 1 << 20);
  const int mbs = cli.checked_int("mbs", 32, 1, 1 << 20);
  const long gbs = cli.checked_int("gbs", 512, 1, 1 << 30);
  // Piper's and DAPPLE's worker threads (1 = serial, 0 = auto); AutoPipe's
  // search is sequential. Every planner returns the same plan at any value;
  // only the wall clock changes.
  const int threads = cli.checked_int("threads", 1, 0, 4096);
  const int gpus_per_node = cli.checked_int("gpus-per-node", 4, 1, 1 << 20);
  const std::string topology = cli.get("topology", "uniform");
  if (topology != "uniform" && topology != "paper") {
    throw std::invalid_argument("--topology must be 'uniform' or 'paper'");
  }
  // Validate --schedule up front so a typo fails before the planner runs.
  std::optional<costmodel::ScheduleKind> forced;
  if (cli.has("schedule") && cli.get("schedule", "auto") != "auto") {
    forced = costmodel::parse_schedule_kind(cli.get("schedule", "auto"));
  }

  const auto cfg =
      cli.has("config")
          ? costmodel::load_model_config_file(cli.get("config", ""))
          : costmodel::build_model_config(costmodel::model_by_name(model),
                                          {mbs, 0, true});
  if (cli.has("save-config")) {
    const std::string path = cli.get("save-config", "profile.cfg");
    if (costmodel::save_model_config(cfg, path)) {
      std::printf("model configs written to %s\n", path.c_str());
    }
  }
  // Per-boundary comm pricing: uniform keeps the profile's scalar comm_ms;
  // paper derives each hop from the cluster links and the activation size.
  costmodel::ClusterTopology topo = costmodel::paper_cluster();
  topo.gpus_per_node = gpus_per_node;
  const costmodel::CommModel comm =
      topology == "paper"
          ? costmodel::CommModel::from_topology(
                topo, 0, costmodel::activation_bytes(cfg))
          : costmodel::CommModel(cfg.comm_ms);
  std::printf("Planner comparison: %s, %d GPUs, mbs %d, gbs %ld, %s comm\n\n",
              cfg.spec.name.c_str(), gpus, mbs, gbs, topology.c_str());

  util::Table table({"planner", "configuration", "layers per stage",
                     "iteration (ms)", "balance stddev", "plan time (ms)"});
  auto add = [&](const char* name, const core::ParallelPlan& plan) {
    const auto ev = core::evaluate_plan(cfg, plan, gbs, comm);
    std::string layers;
    for (double u : core::stage_layer_units(cfg, plan.partition)) {
      if (!layers.empty()) layers += " ";
      layers += util::Table::fmt(u, 1);
    }
    std::string iter = ev.oom             ? "OOM"
                       : ev.runtime_error ? "runtime error"
                                          : util::Table::fmt(ev.iteration_ms, 1);
    table.add_row({name, devices_of(plan), layers, iter,
                   util::Table::fmt(ev.balance_stddev_ms, 1),
                   util::Table::fmt(plan.planning_ms, 1)});
  };

  planners::DappleOptions dapple{8, gpus_per_node, gbs, threads};
  dapple.topology = topo;
  add("DAPPLE", planners::dapple_plan(cfg, gpus, dapple));
  planners::PiperOptions piper{8, gbs, threads};
  piper.comm = comm;
  add("Piper", planners::piper_plan(cfg, gpus, piper));
  core::AutoPipeOptions ours_opts{gpus, gbs, 0, true};
  ours_opts.comm = comm;
  ours_opts.enable_zero_bubble = cli.has("zero-bubble");
  const auto ours = core::auto_plan(cfg, ours_opts);
  add("AutoPipe", ours.plan);

  core::Schedule schedule = ours.schedule;
  if (forced.has_value()) {
    schedule = core::build_schedule(
        *forced, core::stage_costs(cfg, ours.plan.partition),
        ours.schedule.num_micro_batches, comm,
        {ours.slicing.sliced_micro_batches, 1});
  }
  std::printf("AutoPipe schedule: %s, %.1f ms analytic\n",
              costmodel::to_string(schedule.kind),
              core::evaluate_schedule(schedule).iteration_ms);
  if (planners::megatron_supports(cfg, ours.plan.num_stages()) &&
      gpus % ours.plan.num_stages() == 0) {
    add("Megatron-LM",
        planners::megatron_plan(cfg, gpus, ours.plan.num_stages()));
  }
  std::printf("%s\n", table.to_ascii().c_str());

  if (cli.has("trace")) {
    const auto exec = sim::execute(schedule);
    const std::string path = cli.get("trace", "autopipe.trace.json");
    if (trace::write_chrome_trace(exec, path)) {
      std::printf("AutoPipe schedule trace written to %s (open in "
                  "chrome://tracing)\n",
                  path.c_str());
    }
  }
  return 0;
} catch (const std::exception& e) {
  // One-line diagnostic and a nonzero exit on malformed profile files, bad
  // flag values, or any other configuration error -- never a raw terminate.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
