// Every simulated table and figure of the paper's evaluation (§IV).
//
//   paper_tables [VERB...]     print the ASCII tables (default: every verb)
//   paper_tables json          print every row as the BENCH_paper.json document
//   paper_tables check FILE    regenerate every row and compare it with FILE
//
// Verbs: models fig9 fig10 fig11 table3 table4 fig13 fig14 comm_topology
// ablation. A verb fills {table, row, column, value} records once; the ASCII
// tables and the JSON rows are both rendered from them. A value is a double
// (written with %.17g, which round-trips) or a string: a marker (OOM = out of
// memory, - = runtime error, X = unsupported) or a label. Times come from the
// paper's recurrences and from the discrete-event executor with the RTX-3090
// launch-overhead profile; OOM cells come from the memory model. No value
// depends on a clock, so `check` compares every value's text exactly; it
// exits 1 naming the first row that differs, is missing or is extra.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common.h"
#include "core/balanced_dp.h"
#include "costmodel/analytic.h"
#include "costmodel/memory.h"
#include "costmodel/model_zoo.h"
#include "costmodel/topology.h"
#include "planners/dapple.h"
#include "planners/megatron.h"
#include "planners/piper.h"
#include "planners/units.h"
#include "util/stats.h"

namespace {

using namespace autopipe;
using namespace autopipe::bench;

using Value = std::variant<double, std::string>;
constexpr int kHidden = -1;  ///< precision of a JSON-only column

struct Record {
  std::string table, row, column;
  Value value;
  int precision;       ///< ASCII decimals of a number, or kHidden
  std::string suffix;  ///< ASCII suffix of a number
};

/// One verb's output: its records, and its prose and tables in print order.
class Report {
 public:
  /// Printf-style prose, printed in place.
  __attribute__((format(printf, 2, 3))) void text(const char* format, ...) {
    char buf[1024];
    va_list args;
    va_start(args, format);
    const int n = std::vsnprintf(buf, sizeof buf, format, args);
    va_end(args);
    if (n < 0 || n >= int(sizeof buf)) throw std::length_error("prose line");
    printout_.push_back({buf, {}});
  }

  /// Starts table `id`, printed in place. `keys` name its rows: pairs of
  /// {JSON name, ASCII header}.
  void table(std::string id,
             std::vector<std::pair<std::string, std::string>> keys) {
    table_ = std::move(id);
    keys_ = std::move(keys);
    std::vector<std::string> header;
    for (const auto& key : keys_) header.push_back(key.second);
    printout_.push_back({table_, header});
  }

  /// Starts a row of the current table from its key values: {"4", "D"}
  /// under keys gpus and alg is the row "gpus=4, alg=D".
  Report& row(const std::vector<std::string>& values) {
    row_.clear();
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      row_ += (k ? ", " : "") + keys_[k].first + "=" + values.at(k);
    }
    return *this;
  }

  /// Appends a cell to the current row.
  Report& set(const std::string& column, Value value, int precision = 1,
              std::string suffix = "") {
    const auto* number = std::get_if<double>(&value);
    if (number && !std::isfinite(*number)) {
      throw std::runtime_error("non-finite " + table_ + " " + row_ + " " +
                               column);
    }
    records.push_back(
        {table_, row_, column, std::move(value), precision, std::move(suffix)});
    return *this;
  }

  void print() const {
    for (const auto& [text, header] : printout_) {
      std::fputs(header.empty() ? text.c_str() : render(text, header).c_str(),
                 stdout);
    }
  }

  std::vector<Record> records;

 private:
  /// Table `id` in ASCII. The header is the key header plus the first row's
  /// shown columns; a table with no shown column prints nothing.
  std::string render(const std::string& id,
                     std::vector<std::string> header) const {
    std::vector<std::vector<std::string>> rows;
    const std::string* last = nullptr;
    for (const Record& r : records) {
      if (r.table != id || r.precision == kHidden) continue;
      if (!last || r.row != *last) {
        last = &r.row;
        rows.emplace_back();  // the key values of "k=v, k=v"
        for (std::size_t eq = r.row.find('='); eq != std::string::npos;
             eq = r.row.find('=', eq + 1)) {
          rows.back().push_back(
              r.row.substr(eq + 1, r.row.find(", ", eq) - eq - 1));
        }
      }
      if (rows.size() == 1) header.push_back(r.column);
      const auto* text = std::get_if<std::string>(&r.value);
      rows.back().push_back(
          text ? *text
               : util::Table::fmt(std::get<double>(r.value), r.precision) +
                     r.suffix);
    }
    if (rows.empty()) return "";
    util::Table t(std::move(header));
    for (auto& row : rows) t.add_row(std::move(row));
    return t.to_ascii();
  }

  /// Prose (empty header) or a table id with its key header.
  std::vector<std::pair<std::string, std::vector<std::string>>> printout_;
  std::string table_, row_;
  std::vector<std::pair<std::string, std::string>> keys_;
};

const std::vector<std::string> kZoo{"gpt2-345m", "gpt2-762m", "gpt2-1.3b",
                                    "bert-large"};

std::vector<costmodel::StageFootprint> footprints(
    const core::ModelConfig& cfg, const core::Partition& partition) {
  std::vector<costmodel::StageFootprint> stages(partition.num_stages());
  for (int s = 0; s < partition.num_stages(); ++s) {
    stages[s].param_bytes = core::stage_param_bytes(cfg, partition, s);
    stages[s].stash_bytes = core::stage_stash_bytes(cfg, partition, s);
    stages[s].work_bytes = core::stage_work_bytes(cfg, partition, s);
  }
  return stages;
}

/// Does `partition` fit device memory under `kind` with m micro-batches?
bool fits(const core::ModelConfig& cfg, const core::Partition& partition,
          costmodel::ScheduleKind kind, int m, int chunks = 1) {
  return costmodel::fits_memory(footprints(cfg, partition), kind, m, chunks,
                                cfg.device.mem_capacity_bytes);
}

/// Plain or sliced (the Slicer's choice) 1F1B over `costs` on the executor,
/// under "actual run" options.
sim::ExecResult run_1f1b(const core::ModelConfig& cfg,
                         const std::vector<core::StageCost>& costs, int m,
                         bool sliced) {
  return sim::execute(
      sliced ? core::build_sliced_1f1b(
                   costs, m, cfg.comm_ms,
                   core::solve_slicing(costs, cfg.comm_ms, m)
                       .sliced_micro_batches)
             : core::build_1f1b(costs, m, cfg.comm_ms),
      actual_run_options(cfg));
}

/// The Fig. 9/10 cells of one (model, depth, m): the uniform partition
/// without and with slicing (Megatron-LM, Slicer), then the planned one
/// without and with it (Planner, AutoPipe).
void time_variants(Report& out, const core::ModelConfig& cfg, int stages,
                   int m) {
  const auto uniform =
      core::stage_costs(cfg, planners::megatron_partition(cfg, stages));
  const auto planned =
      core::stage_costs(cfg, core::plan(cfg, stages, m).partition);
  const double megatron = run_1f1b(cfg, uniform, m, false).iteration_ms;
  const double autopipe = run_1f1b(cfg, planned, m, true).iteration_ms;
  out.set("Megatron-LM", megatron)
      .set("Slicer", run_1f1b(cfg, uniform, m, true).iteration_ms)
      .set("Planner", run_1f1b(cfg, planned, m, false).iteration_ms)
      .set("AutoPipe", autopipe)
      .set("speedup", megatron / autopipe, 3, "x");
}

/// The DAPPLE, Piper and AutoPipe rows of Table III (`lowmem`) or IV: each
/// plan's time per iteration at `gbs_list`, or "OOM" / "-" (runtime error).
/// Table III puts a runtime error before OOM, and adds each plan's shape and
/// search effort.
void planner_rows(Report& out, const core::ModelConfig& cfg,
                  const std::vector<std::string>& keys, int gpus, long plan_gbs,
                  const std::vector<long>& gbs_list, bool lowmem) {
  for (const auto& [tag, plan] :
       std::vector<std::pair<std::string, core::ParallelPlan>>{
           {"D", planners::dapple_plan(cfg, gpus, {8, 4, plan_gbs})},
           {"P", planners::piper_plan(cfg, gpus, {8, plan_gbs})},
           {"A", core::auto_plan(cfg, {gpus, plan_gbs, 0, true}).plan}}) {
    auto row = keys;
    row.insert(row.end(), {std::to_string(gpus), tag});
    out.row(row);
    if (lowmem) {
      std::string config = std::to_string(plan.num_stages()) + "st";
      if (plan.uniform_dp) {
        config += " x dp" + std::to_string(plan.data_parallel);
      } else {
        config += " dev[";
        for (int g : plan.stage_devices) config += std::to_string(g) + " ";
        config.back() = ']';
      }
      out.set("config", config);
    }
    for (long gbs : gbs_list) {
      const auto ev = core::evaluate_plan(cfg, plan, gbs);
      const bool oom = ev.oom && !(lowmem && ev.runtime_error);
      out.set("Gbs=" + std::to_string(gbs),
              oom                ? Value("OOM")
              : ev.runtime_error ? Value("-")
                                 : Value(ev.iteration_ms));
    }
    if (lowmem) out.set("evaluations", double(plan.evaluations), 0);
  }
}

// Table I: the benchmark models, and the derived per-block cost model that
// every other table consumes.
void models(Report& out) {
  out.text("Table I -- benchmark models\n\n");
  out.table("table1", {{"model", "Model"}});
  for (const auto& spec : costmodel::model_zoo()) {
    const auto cfg = costmodel::build_model_config(spec, {4, 0, true});
    out.row({spec.name})
        .set("# layers", double(spec.num_layers), 0)
        .set("Hidden size", double(spec.hidden), 0)
        .set("# params (millions)",
             double(costmodel::param_count(spec) / 1000000), 0)
        .set("seq len", double(spec.default_seq), 0)
        .set("blocks (sub-layer)", double(cfg.num_blocks()), 0);
  }
  out.text("\nDerived per-micro-batch cost model (micro-batch 4, RTX-3090 "
           "profile, activation checkpointing):\n\n");
  out.table("table1.cost", {{"model", "Model"}});
  for (const auto& spec : costmodel::model_zoo()) {
    const auto cfg = costmodel::build_model_config(spec, {4, 0, true});
    out.row({spec.name})
        .set("fwd (ms)", cfg.total_fwd_ms())
        .set("bwd (ms)", cfg.total_bwd_ms())
        .set("Comm (ms)", cfg.comm_ms, 3)
        .set("embedding fwd", cfg.blocks.front().fwd_ms, 3)
        .set("attn fwd", cfg.blocks[1].fwd_ms, 3)
        .set("ffn fwd", cfg.blocks[2].fwd_ms, 3)
        .set("head fwd", cfg.blocks.back().fwd_ms, 3);
  }
}

// Fig. 9: iteration time vs micro-batch size, 4 stages and 8 micro-batches
// per iteration (as in the paper). GPT-2 762M OOMs at 32, as observed.
void fig9(Report& out) {
  const int stages = 4, m = 8;
  out.text("Fig. 9 -- iteration time (ms) vs micro-batch size; %d stages, %d "
           "micro-batches per iteration\n(lower is better; speedup = "
           "Megatron-LM / AutoPipe)\n\n",
           stages, m);
  for (const std::string& model : kZoo) {
    out.text("%s:\n", model.c_str());
    out.table("fig9." + model, {{"mbs", "micro-batch size"}});
    for (int mbs : {1, 2, 4, 8, 16, 24, 32}) {
      const auto cfg = config_for(model, mbs);
      out.row({std::to_string(mbs)});
      // The paper's rule: drop configurations that OOM.
      if (fits(cfg, planners::megatron_partition(cfg, stages),
               costmodel::ScheduleKind::OneFOneB, m)) {
        time_variants(out, cfg, stages, m);
        continue;
      }
      for (const char* col : {"Megatron-LM", "Slicer", "Planner", "AutoPipe"}) {
        out.set(col, "OOM");
      }
      out.set("speedup", "-");
    }
    out.text("\n");
  }
}

// Fig. 10: iteration time vs depth, m = 2 x depth, micro-batch 4 for GPT-2
// and 16 for BERT-large (the paper's settings). Megatron-LM needs the depth
// to divide the layer count, so GPT-2 762M (36 layers) uses 9 stages where
// the others use 8.
void fig10(Report& out) {
  out.text("Fig. 10 -- iteration time (ms) vs pipeline depth; m = 2 x depth "
           "(lower is better)\n\n");
  for (const auto& [model, mbs] : std::vector<std::pair<std::string, int>>{
           {"gpt2-345m", 4}, {"gpt2-762m", 4}, {"gpt2-1.3b", 4},
           {"bert-large", 16}}) {
    const auto cfg = config_for(model, mbs);
    out.text("%s (micro-batch %d):\n", model.c_str(), mbs);
    out.table("fig10." + model, {{"stages", "stages"}});
    for (int depth : {2, 3, 4, 6, 8, 9, 12}) {
      if (!planners::megatron_supports(cfg, depth)) continue;
      if (depth == 9 && cfg.spec.num_layers != 36) continue;
      if (depth == 8 && cfg.spec.num_layers == 36) continue;
      time_variants(out.row({std::to_string(depth)}), cfg, depth, 2 * depth);
    }
    out.text("\n");
  }
  out.text("Expected shape: the Slicer hurts slightly at depth 2 and helps at "
           "depth >= 4; Planner gains grow with depth; AutoPipe combines both "
           "(paper: 1.02x-1.30x).\n");
}

// Table II + Fig. 11: simulator accuracy over seven partitions of GPT-2 345M
// on 4 stages. "Actual" is the executor with launch overhead and 2% seeded
// jitter; "simulated" is the paper's simulator. The gap must be stable for
// planning on simulated times to be sound.
void fig11(Report& out) {
  const auto cfg = config_for("gpt2-345m", 4);
  const int m = 8;
  const std::vector<std::vector<double>> schemes{
      {5, 7, 6, 6},         {6, 6.5, 6.5, 5},  {6, 7, 6, 5},
      {6.5, 6.5, 6.5, 4.5}, {6.5, 6.5, 6, 5},  {7, 5.5, 6, 5.5},
      {7, 6.5, 5.5, 5}};
  out.text("Table II -- pipeline planning schemes of GPT-2 345M (layers per "
           "stage)\n\n");
  out.table("table2", {{"partition", "Partition ID"}});
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    out.row({std::to_string(i + 1)});
    for (int s = 0; s < 4; ++s) {
      out.set("stage " + std::to_string(s), schemes[i][s]);
    }
  }

  out.text("\nFig. 11 -- execution time per micro-batch (ms), simulator vs "
           "actual run\n\n");
  out.table("fig11", {{"partition", "Partition ID"}});
  std::vector<double> gaps;
  auto opts = actual_run_options(cfg);
  opts.jitter_frac = 0.02;  // measurement noise of a real run
  opts.seed = 2022;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const auto p = core::partition_from_layers(cfg, schemes[i]);
    const double simulated =
        core::simulate_pipeline(cfg, p, m).iteration_ms / m;
    const double actual =
        sim::execute(
            core::build_1f1b(core::stage_costs(cfg, p), m, cfg.comm_ms), opts)
            .iteration_ms /
        m;
    gaps.push_back(actual - simulated);
    out.row({std::to_string(i + 1)})
        .set("simulated", simulated, 2)
        .set("actual", actual, 2)
        .set("gap", actual - simulated, 2)
        .set("gap %", 100.0 * (actual - simulated) / simulated);
  }
  const double mean = util::mean(gaps), stddev = util::stddev(gaps);
  out.table("fig11.gap", {{"partitions", ""}});
  out.row({"all"})
      .set("mean (ms)", mean, kHidden)
      .set("stddev (ms)", stddev, kHidden);
  out.text("\ngap stability: mean %.2f ms, stddev %.2f ms (stable gap => "
           "planning on simulated times is sound)\n",
           mean, stddev);
}

// Table III: planners under low memory demand (GPT-2 345M, micro-batch 4).
// Piper and AutoPipe tie on pure data parallelism; DAPPLE's 16-GPU device
// assignment exceeds the micro-batch size, a runtime error. The last column
// is each planner's search effort in objective evaluations.
void table3(Report& out) {
  const auto cfg = config_for("gpt2-345m", 4);
  out.text("Table III -- planner comparison, low memory demand (GPT-2 345M, "
           "micro-batch 4); time per iteration (ms)\n('-' = runtime error, as "
           "in the paper)\n\n");
  out.table("table3", {{"gpus", "# of GPUs"}, {"alg", "Alg."}});
  for (int gpus : {4, 16}) {
    planner_rows(out, cfg, {}, gpus, 128, {128, 256, 512}, true);
  }
  out.text("\n");
}

// Table IV: planners under high memory demand (GPT-2 345M at micro-batch 32,
// 1.3B at 16). AutoPipe is fastest everywhere; DAPPLE OOMs on 1.3B (its
// memory model misses activations); Piper is feasible but slower.
void table4(Report& out) {
  out.text("Table IV -- planner comparison, high memory demand; time per "
           "iteration (ms)\n\n");
  out.table("table4", {{"model", "Model"},
                       {"mbs", "Mbs"},
                       {"gpus", "# of GPUs"},
                       {"alg", "Alg."}});
  for (const auto& [model, mbs] : std::vector<std::pair<std::string, int>>{
           {"gpt2-345m", 32}, {"gpt2-1.3b", 16}}) {
    for (int gpus : {4, 8}) {
      planner_rows(out, config_for(model, mbs), {model, std::to_string(mbs)},
                   gpus, 512, {512, 1024, 2048}, false);
    }
  }

  // The paper's headline ratios for this table.
  const auto cfg = config_for("gpt2-345m", 32);
  const double a =
      core::auto_plan(cfg, {8, 2048, 0, true}).evaluation.iteration_ms;
  const double d =
      core::evaluate_plan(cfg, planners::dapple_plan(cfg, 8, {8, 4, 2048}),
                          2048)
          .iteration_ms;
  const double p =
      core::evaluate_plan(cfg, planners::piper_plan(cfg, 8, {8, 2048}), 2048)
          .iteration_ms;
  out.table("table4.headline", {{"model", ""}, {"gpus", ""}, {"gbs", ""}});
  out.row({"gpt2-345m", "8", "2048"})
      .set("vs DAPPLE", d / a, kHidden)
      .set("vs Piper", p / a, kHidden);
  out.text("\nGPT-2 345M, 8 GPUs, Gbs 2048: AutoPipe vs DAPPLE %.2fx, vs Piper "
           "%.2fx (paper: 1.19x and 1.18x)\n",
           d / a, p / a);
}

// Fig. 13: balance, the stddev of per-stage time, for Table IV's GPT-2 345M
// plans. The paper reports AutoPipe 2.73x-6.89x better than DAPPLE and
// 5.35x-12.7x better than Piper.
void fig13(Report& out) {
  const auto cfg = config_for("gpt2-345m", 32);
  out.text("Fig. 13 -- balance (stddev of per-stage time, ms) for GPT-2 345M, "
           "micro-batch 32 (lower is better)\n\n");
  out.table("fig13", {{"gpus", "# of GPUs"}});
  for (int gpus : {4, 8}) {
    const double d =
        core::evaluate_plan(cfg, planners::dapple_plan(cfg, gpus, {8, 4, 512}),
                            512)
            .balance_stddev_ms;
    const double p =
        core::evaluate_plan(cfg, planners::piper_plan(cfg, gpus, {8, 512}), 512)
            .balance_stddev_ms;
    const double a = core::auto_plan(cfg, {gpus, 512, 0, true})
                         .evaluation.balance_stddev_ms;
    out.row({std::to_string(gpus)})
        .set("DAPPLE", d)
        .set("Piper", p)
        .set("AutoPipe", a)
        .set("improvement vs D", d / a, 2, "x")
        .set("improvement vs P", p / a, 2, "x");
  }
  out.text("\nnote: in our reproduction DAPPLE's 1+N replication makes its "
           "unscaled stage times the most skewed; the paper measures Piper as "
           "worst. Ordering AutoPipe << baselines holds either way (see "
           "EXPERIMENTS.md).\n");
}

/// Fig. 14's startup times of one (micro-batch, depth, m) cell.
void startup_row(Report& out, const core::ModelConfig& cfg, int stages,
                 int m) {
  const int chunks = 2;
  const auto uniform = planners::megatron_partition(cfg, stages);
  const auto uniform_costs = core::stage_costs(cfg, uniform);
  out.set("Megatron-LM", run_1f1b(cfg, uniform_costs, m, false).startup_ms);
  if (!planners::megatron_interleaved_supports(cfg, stages, chunks) ||
      m % stages != 0) {
    out.set("Interleaved", "X");
  } else if (!fits(cfg, uniform, costmodel::ScheduleKind::Interleaved, m,
                   chunks)) {
    out.set("Interleaved", "OOM");
  } else {
    out.set("Interleaved",
            sim::execute(core::build_interleaved(
                             planners::megatron_interleaved_costs(cfg, stages,
                                                                  chunks),
                             m, cfg.comm_ms),
                         actual_run_options(cfg))
                .startup_ms);
  }
  const auto planned =
      core::stage_costs(cfg, core::plan(cfg, stages, m).partition);
  out.set("Slicer", run_1f1b(cfg, uniform_costs, m, true).startup_ms)
      .set("AutoPipe", run_1f1b(cfg, planned, m, true).startup_ms);
}

// Fig. 14: startup overhead of GPT-2 345M, (a) over micro-batch sizes at 4
// stages, (b) over depths at micro-batch 4. The 2-chunk interleaved
// schedule halves startup but OOMs at large micro-batches and needs layers
// % (stages * chunks) == 0.
void fig14(Report& out) {
  out.text("Fig. 14 -- startup overhead (ms) of GPT-2 345M (X = configuration "
           "unsupported, OOM = out of memory)\n\n(a) 4-stage pipeline, "
           "sweeping micro-batch size (8 micro-batches per iteration):\n");
  out.table("fig14a", {{"mbs", "micro-batch size"}});
  for (int mbs : {4, 8, 16, 24, 32}) {
    startup_row(out.row({std::to_string(mbs)}), config_for("gpt2-345m", mbs),
                4, 8);
  }
  out.text("\n(b) micro-batch size 4, sweeping pipeline depth (m = 2 x "
           "depth):\n");
  out.table("fig14b", {{"stages", "stages"}});
  const auto cfg = config_for("gpt2-345m", 4);
  for (int stages : {2, 4, 6, 8, 12}) {
    if (!planners::megatron_supports(cfg, stages)) continue;
    startup_row(out.row({std::to_string(stages)}), cfg, stages, 2 * stages);
  }
  out.text("\nExpected shape: Interleaved and Slicer both roughly halve "
           "Megatron-LM's startup; Interleaved OOMs at large micro-batch and "
           "X's where layers %% (stages*chunks) != 0; AutoPipe is slightly "
           "above Slicer because the Planner front-loads the last stage.\n");
}

// Uniform vs per-boundary link pricing. Each pipeline is planned with the
// uniform comm_ms and with the paper cluster's per-boundary costs (PCIe in a
// 4-GPU node, 100G InfiniBand across), then both plans are simulated under
// the per-boundary prices: the delta is what assuming uniform links costs.
void comm_topology(Report& out) {
  const auto topo = costmodel::paper_cluster();
  out.text("Comm topology -- uniform vs per-boundary pricing (paper cluster: "
           "%d GPUs/node)\n\n",
           topo.gpus_per_node);
  out.table("comm_topology",
            {{"model", "model"}, {"stages", "stages"}, {"m", "m"}});
  for (const std::string& model : kZoo) {
    const auto cfg = config_for(model, 8);
    const auto comm = costmodel::CommModel::from_topology(
        topo, 0, costmodel::activation_bytes(cfg));
    core::PlannerOptions hetero;
    hetero.comm = comm;
    for (int stages : {4, 5, 8}) {
      const int m = 2 * stages + stages / 2;
      const auto uniform = core::plan(cfg, stages, m, {}).partition;
      const auto priced = core::plan(cfg, stages, m, hetero).partition;
      const auto time = [&](const core::Partition& p) {
        return core::simulate_pipeline(core::stage_costs(cfg, p), m, comm)
            .iteration_ms;
      };
      const double uniform_ms = time(uniform), priced_ms = time(priced);
      out.row({model, std::to_string(stages), std::to_string(m)})
          .set("uniform plan (ms)", uniform_ms, 2)
          .set("topology plan (ms)", priced_ms, 2)
          .set("delta (%)", 100.0 * (uniform_ms - priced_ms) / uniform_ms, 3)
          .set("plan changed", uniform.counts != priced.counts ? "yes" : "no");
    }
  }
  out.text("\nnote: the topology-aware plan can never simulate worse than the "
           "uniform plan under heterogeneous prices; 'no' rows mean the "
           "uniform partition was already optimal there.\n");
}

// Ablations of AutoPipe's design choices (DESIGN.md §12): planner
// granularity, the master-stage heuristic vs Algorithm 1 alone, the
// Slicer's gain per depth and per comm/compute ratio, and each schedule's
// peak memory.
void ablation(Report& out) {
  const auto cfg = config_for("gpt2-345m", 4);
  out.text("Ablation 1 -- planner granularity (GPT-2 345M, micro-batch 4, m = "
           "2 x depth): iteration ms\n\n");
  out.table("ablation1", {{"stages", "stages"}});
  const auto units = planners::layer_units(cfg);
  for (int depth : {2, 4, 8, 12}) {
    const int m = 2 * depth;
    // Layer granularity (Algorithm-1 style DP over whole layers) vs the
    // full sub-layer planner.
    const double layer_ms =
        core::simulate_pipeline(
            cfg,
            planners::partition_from_unit_counts(
                units, planners::weighted_balanced_split(
                           units, std::vector<double>(depth, 1.0))),
            m)
            .iteration_ms;
    const double planned_ms = core::plan(cfg, depth, m).sim.iteration_ms;
    out.row({std::to_string(depth)})
        .set("layer granularity", layer_ms)
        .set("sub-layer granularity", planned_ms)
        .set("gain", layer_ms / planned_ms, 3, "x");
  }

  out.text("\nAblation 2 -- heuristic master-stage search vs Algorithm 1 "
           "alone:\n\n");
  out.table("ablation2", {{"model", "model"}, {"stages", "stages"}});
  for (const std::string model : {"gpt2-345m", "bert-large"}) {
    const auto model_cfg = config_for(model, 4);
    for (int depth : {4, 8}) {
      const int m = 2 * depth;
      const double seed_ms =
          core::simulate_pipeline(
              model_cfg, core::balanced_partition(model_cfg, depth), m)
              .iteration_ms;
      const auto planned = core::plan(model_cfg, depth, m);
      out.row({model, std::to_string(depth)})
          .set("Algorithm 1 only", seed_ms)
          .set("full heuristic", planned.sim.iteration_ms)
          .set("gain", seed_ms / planned.sim.iteration_ms, 3, "x")
          .set("evaluations", double(planned.evaluations), 0);
    }
  }

  out.text("\nAblation 3 -- Slicer contribution per depth (GPT-2 345M, planned "
           "partitions): iteration ms on the executor\n\n");
  out.table("ablation3", {{"stages", "stages"}});
  for (int depth : {2, 4, 8, 12}) {
    const int m = 2 * depth;
    const auto costs =
        core::stage_costs(cfg, core::plan(cfg, depth, m).partition);
    const auto plain = run_1f1b(cfg, costs, m, false);
    const auto sliced = run_1f1b(cfg, costs, m, true);
    out.row({std::to_string(depth)})
        .set("no slicing", plain.iteration_ms)
        .set("sliced", sliced.iteration_ms)
        .set("sliced micro-batches",
             double(core::solve_slicing(costs, cfg.comm_ms, m)
                        .sliced_micro_batches),
             0)
        .set("startup reduction",
             100.0 * (plain.startup_ms - sliced.startup_ms) / plain.startup_ms,
             1, "%");
  }

  out.text("\nAblation 4 -- sensitivity to the communication/compute ratio "
           "(GPT-2 345M, 8 stages, 16 micro-batches). Slicing halves both the "
           "compute and the communication legs of the startup path, so its "
           "relative gain *grows* as the interconnect slows -- the doubled "
           "forward-communication count never bites because the §III-C "
           "aggregation cancels the blocked first-half transfers\n\n");
  out.table("ablation4", {{"comm_x", "Comm x"}});
  for (double factor : {0.1, 1.0, 5.0, 20.0, 80.0}) {
    auto scaled = cfg;
    scaled.comm_ms = cfg.comm_ms * factor;
    const auto costs =
        core::stage_costs(scaled, core::plan(scaled, 8, 16).partition);
    const int sliced_mbs =
        core::solve_slicing(costs, scaled.comm_ms, 16).sliced_micro_batches;
    // No launch overhead here: the schedule's effect alone.
    const double plain =
        sim::execute(core::build_1f1b(costs, 16, scaled.comm_ms)).iteration_ms;
    const double sliced = sim::execute(core::build_sliced_1f1b(
                              costs, 16, scaled.comm_ms, sliced_mbs))
                              .iteration_ms;
    out.row({util::Table::fmt(factor, 1)})
        .set("Comm (ms)", scaled.comm_ms, 2)
        .set("plain 1F1B", plain)
        .set("sliced", sliced)
        .set("slicing gain", 100.0 * (plain - sliced) / plain, 2, "%")
        .set("sliced micro-batches", double(sliced_mbs), 0);
  }

  const double gib = double(1ull << 30);
  out.text("\nAblation 5 -- peak memory of the worst stage per schedule (GPT-2 "
           "345M, 4 stages, 8 micro-batches, GiB; capacity %.1f GiB). GPipe "
           "pays for all in-flight micro-batches; the interleaved schedule for "
           "its extra warmup chunks; AutoPipe's slicing is free (§III-C)\n\n",
           costmodel::rtx3090().mem_capacity_bytes / gib);
  out.table("ablation5", {{"mbs", "micro-batch size"}});
  for (int mbs : {4, 16, 32}) {
    const auto mbs_cfg = config_for("gpt2-345m", mbs);
    const auto stages =
        footprints(mbs_cfg, planners::megatron_partition(mbs_cfg, 4));
    out.row({std::to_string(mbs)});
    for (const auto& [name, kind] :
         std::vector<std::pair<std::string, costmodel::ScheduleKind>>{
             {"1F1B", costmodel::ScheduleKind::OneFOneB},
             {"GPipe", costmodel::ScheduleKind::GPipe},
             {"Interleaved x2", costmodel::ScheduleKind::Interleaved},
             {"AutoPipe sliced", costmodel::ScheduleKind::AutoPipeSliced}}) {
      const int chunks = kind == costmodel::ScheduleKind::Interleaved ? 2 : 1;
      double peak = 0;
      bool oom = false;
      for (int s = 0; s < 4; ++s) {
        const auto est = costmodel::stage_memory(
            stages[s], s, 4, kind, 8, chunks, mbs_cfg.device.mem_capacity_bytes);
        peak = std::max(peak, est.total_bytes);
        oom = oom || est.oom;
      }
      out.set(name, peak / gib, 2, oom ? " (OOM)" : "")
          .set(name + " OOM", double(oom), kHidden);
    }
  }
}

using Verb = std::pair<const char*, void (*)(Report&)>;
constexpr Verb kVerbs[] = {
    {"models", models}, {"fig9", fig9},     {"fig10", fig10},
    {"fig11", fig11},   {"table3", table3}, {"table4", table4},
    {"fig13", fig13},   {"fig14", fig14},   {"comm_topology", comm_topology},
    {"ablation", ablation}};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + '"';
}

/// A row line up to its value: {"table":..,"row":..,"column":..,"value":
std::string row_key(const Record& r) {
  return "{\"table\":" + json_string(r.table) + ",\"row\":" +
         json_string(r.row) + ",\"column\":" + json_string(r.column) +
         ",\"value\":";
}

std::string json_value(const Value& v) {
  if (const auto* text = std::get_if<std::string>(&v)) return json_string(*text);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::get<double>(v));
  return buf;
}

void print_json(const Report& report) {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::printf("{\n \"bench\": \"paper_tables\",\n \"git_sha\": \"%s\",\n"
              " \"build_type\": \"%s\",\n \"compiler\": \"%s\",\n"
              " \"rows\": [\n",
              AUTOPIPE_GIT_SHA, AUTOPIPE_BUILD_TYPE, compiler);
  const auto& records = report.records;
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::printf("  %s%s}%s\n", row_key(records[i]).c_str(),
                json_value(records[i].value).c_str(),
                i + 1 < records.size() ? "," : "");
  }
  std::printf(" ]\n}\n");
}

/// Compares `report`'s rows with the document at `path`: each row's value
/// text must equal the regenerated one, and no row may be missing or extra.
int check(const Report& report, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  std::map<std::string, std::pair<std::string, int>> file;  // value, line
  const std::string tag = ",\"value\":";
  std::string line;
  for (int n = 1; std::getline(in, line); ++n) {
    const std::size_t begin = line.find("{\"table\":");
    if (begin == std::string::npos) continue;
    const std::size_t at = line.rfind(tag), end = line.rfind('}');
    const std::size_t value = at + tag.size();
    if (at == std::string::npos || end == std::string::npos || end < value ||
        !file.emplace(line.substr(begin, value - begin),
                      std::pair{line.substr(value, end - value), n})
             .second) {
      std::fprintf(stderr, "%s:%d: malformed or duplicate row: %s\n",
                   path.c_str(), n, line.c_str());
      return 1;
    }
  }
  for (const Record& r : report.records) {
    const std::string key = row_key(r), value = json_value(r.value);
    const auto it = file.find(key);
    if (it == file.end() || it->second.first != value) {
      std::fprintf(stderr, "%s:%d: row %s...} is %s in the file, regenerated %s\n",
                   path.c_str(), it == file.end() ? 0 : it->second.second,
                   key.c_str(),
                   it == file.end() ? "missing" : it->second.first.c_str(),
                   value.c_str());
      return 1;
    }
    file.erase(it);
  }
  if (!file.empty()) {
    const auto extra = std::min_element(
        file.begin(), file.end(), [](const auto& a, const auto& b) {
          return a.second.second < b.second.second;
        });
    std::fprintf(stderr, "%s:%d: row %s%s} is not regenerated\n", path.c_str(),
                 extra->second.second, extra->first.c_str(),
                 extra->second.first.c_str());
    return 1;
  }
  std::printf("paper_tables: all %zu rows match %s\n", report.records.size(),
              path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const bool json = args.size() == 1 && args[0] == "json";
  const bool checking = args.size() == 2 && args[0] == "check";
  std::vector<Verb> chosen;
  for (const std::string& arg : args) {
    const Verb* verb = std::find_if(std::begin(kVerbs), std::end(kVerbs),
                                    [&](const Verb& v) { return arg == v.first; });
    if (verb != std::end(kVerbs)) chosen.push_back(*verb);
  }
  if (!json && !checking && chosen.size() != args.size()) {
    std::fprintf(stderr, "usage: paper_tables [VERB...] | json | check FILE\n"
                         "verbs:");
    for (const Verb& verb : kVerbs) std::fprintf(stderr, " %s", verb.first);
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    if (json || checking) {
      Report report;
      for (const Verb& verb : kVerbs) verb.second(report);
      if (checking) return check(report, args[1]);
      print_json(report);
      return 0;
    }
    if (chosen.empty()) chosen.assign(std::begin(kVerbs), std::end(kVerbs));
    for (const auto& [name, fill] : chosen) {
      Report report;
      fill(report);
      emit_metadata(std::string("paper_tables/") + name);
      report.print();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
