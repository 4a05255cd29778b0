#include "service/protocol.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "costmodel/model_zoo.h"

namespace autopipe::service {

namespace {

/// %.17g: the shortest-round-trip-safe printf format for doubles -- the
/// canonical response must re-parse to the exact same value.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

bool parse_long_strict(const std::string& s, long& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

bool parse_double_strict(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(v)) {
    return false;
  }
  out = v;
  return true;
}

bool parse_counts_csv(const std::string& s, std::vector<int>& out) {
  out.clear();
  std::istringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    long v = 0;
    if (!parse_long_strict(item, v) || v < 1) return false;
    out.push_back(static_cast<int>(v));
  }
  return !out.empty();
}

/// "idx:fwd:bwd[,...]" -> perturb list.
bool parse_perturbs(const std::string& s, std::vector<BlockPerturb>& out) {
  out.clear();
  std::istringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    std::istringstream fields(item);
    std::string idx, fwd, bwd;
    if (!std::getline(fields, idx, ':') || !std::getline(fields, fwd, ':') ||
        !std::getline(fields, bwd, ':') || fields.rdbuf()->in_avail() != 0) {
      return false;
    }
    BlockPerturb p;
    long block = 0;
    if (!parse_long_strict(idx, block) || block < 0) return false;
    p.block = static_cast<int>(block);
    if (!parse_double_strict(fwd, p.fwd) || p.fwd <= 0) return false;
    if (!parse_double_strict(bwd, p.bwd) || p.bwd <= 0) return false;
    out.push_back(p);
  }
  return true;
}

std::string perturbs_canonical(const std::vector<BlockPerturb>& perturbs) {
  if (perturbs.empty()) return "-";
  std::string out;
  for (std::size_t i = 0; i < perturbs.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(perturbs[i].block) + ":" +
           fmt_double(perturbs[i].fwd) + ":" + fmt_double(perturbs[i].bwd);
  }
  return out;
}

std::string counts_csv(const std::vector<int>& counts) {
  std::string out;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(counts[i]);
  }
  return out;
}

}  // namespace

ParsedLine parse_line(const std::string& line) {
  ParsedLine out;
  std::vector<std::string> tokens = split_ws(line);
  if (tokens.empty()) {
    out.error = "empty request";
    return out;
  }
  const std::string& verb = tokens.front();
  if (verb == "ping") {
    out.verb = Verb::Ping;
    return out;
  }
  if (verb == "stats") {
    out.verb = Verb::Stats;
    return out;
  }
  if (verb == "shutdown") {
    out.verb = Verb::Shutdown;
    return out;
  }
  if (verb != "plan") {
    out.error = "unknown verb '" + verb + "'";
    return out;
  }

  out.verb = Verb::Plan;
  PlanRequest& req = out.request;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      out.error = "malformed token '" + tok + "' (want key=value)";
      return out;
    }
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    long n = 0;
    if (key == "id") {
      req.id = value;
    } else if (key == "model") {
      req.model = value;
    } else if (key == "mbs") {
      if (!parse_long_strict(value, n) || n < 1) {
        out.error = "bad mbs '" + value + "'";
        return out;
      }
      req.micro_batch = static_cast<int>(n);
    } else if (key == "seq") {
      if (!parse_long_strict(value, n) || n < 0) {
        out.error = "bad seq '" + value + "'";
        return out;
      }
      req.seq_len = static_cast<int>(n);
    } else if (key == "recompute") {
      if (!parse_long_strict(value, n) || (n != 0 && n != 1)) {
        out.error = "bad recompute '" + value + "' (want 0|1)";
        return out;
      }
      req.recompute = n == 1;
    } else if (key == "gpus") {
      if (!parse_long_strict(value, n) || n < 1) {
        out.error = "bad gpus '" + value + "'";
        return out;
      }
      req.gpus = static_cast<int>(n);
    } else if (key == "gbs") {
      if (!parse_long_strict(value, n) || n < 1) {
        out.error = "bad gbs '" + value + "'";
        return out;
      }
      req.global_batch = n;
    } else if (key == "stages") {
      if (!parse_long_strict(value, n) || n < 0) {
        out.error = "bad stages '" + value + "'";
        return out;
      }
      req.stages = static_cast<int>(n);
    } else if (key == "slicer") {
      if (!parse_long_strict(value, n) || (n != 0 && n != 1)) {
        out.error = "bad slicer '" + value + "' (want 0|1)";
        return out;
      }
      req.slicer = n == 1;
    } else if (key == "source") {
      if (value != "analytic" && value != "cache") {
        out.error = "bad source '" + value + "' (want analytic|cache)";
        return out;
      }
      req.source = value;
    } else if (key == "warm") {
      std::vector<int> counts;
      if (value == "auto" || value == "off") {
        req.warm = value;
      } else if (parse_counts_csv(value, counts)) {
        req.warm = counts_csv(counts);
      } else {
        out.error = "bad warm '" + value + "' (want auto|off|c0,c1,...)";
        return out;
      }
    } else if (key == "perturb") {
      if (value != "-" && !parse_perturbs(value, req.perturbs)) {
        out.error = "bad perturb '" + value + "' (want idx:fwd:bwd,...)";
        return out;
      }
    } else {
      out.error = "unknown key '" + key + "'";
      return out;
    }
  }
  if (req.model.empty()) {
    out.error = "plan needs model=<name>";
    return out;
  }
  return out;
}

std::string family_key(const PlanRequest& req) {
  std::ostringstream out;
  out << "model=" << req.model << " mbs=" << req.micro_batch
      << " seq=" << req.seq_len << " recompute=" << (req.recompute ? 1 : 0)
      << " gpus=" << req.gpus << " gbs=" << req.global_batch
      << " stages=" << req.stages << " slicer=" << (req.slicer ? 1 : 0)
      << " source=" << req.source;
  return out.str();
}

std::string canonical_request(const PlanRequest& req) {
  return family_key(req) + " perturb=" + perturbs_canonical(req.perturbs) +
         " warm=" + req.warm;
}

void apply_perturbs(costmodel::ModelConfig& config,
                    const std::vector<BlockPerturb>& perturbs) {
  for (const BlockPerturb& p : perturbs) {
    if (p.block < 0 || p.block >= config.num_blocks()) {
      throw std::invalid_argument("perturb block " + std::to_string(p.block) +
                                  " out of range (config has " +
                                  std::to_string(config.num_blocks()) +
                                  " blocks)");
    }
    costmodel::Block& b = config.blocks[static_cast<std::size_t>(p.block)];
    b.fwd_ms *= p.fwd;
    b.bwd_ms *= p.bwd;
    // Keep the B/W split consistent, as the analytic model builds it.
    b.bwd_weight_ms *= p.bwd;
    b.bwd_input_ms = b.bwd_ms - b.bwd_weight_ms;
  }
}

costmodel::ModelSpec request_spec(const PlanRequest& req) {
  if (req.model == "tiny") {
    // The same CPU-friendly spec as `autopipe_profile --model tiny`: small
    // enough that a source=cache miss measures in milliseconds, so the
    // daemon's profile path stays demoable and smokeable end to end.
    costmodel::ModelSpec spec;
    spec.name = "tiny";
    spec.num_layers = 2;
    spec.hidden = 32;
    spec.heads = 4;
    spec.vocab = 128;
    spec.default_seq = 16;
    spec.causal = true;
    return spec;
  }
  return costmodel::model_by_name(req.model);
}

costmodel::ModelConfig request_config(const PlanRequest& req) {
  costmodel::ModelConfig config = costmodel::build_model_config(
      request_spec(req), {req.micro_batch, req.seq_len, req.recompute});
  apply_perturbs(config, req.perturbs);
  return config;
}

Solved solve_plan(const PlanRequest& req, const costmodel::ModelConfig& config,
                  const std::vector<int>& warm_hint, const SolveHooks& hooks) {
  core::AutoPipeOptions options;
  options.num_gpus = req.gpus;
  options.global_batch = req.global_batch;
  options.forced_stages = req.stages;
  options.enable_slicer = req.slicer;
  options.warm_start = warm_hint;
  options.memo_provider = hooks.memo_provider;

  Solved out;
  out.result = core::auto_plan(config, options);

  std::ostringstream canonical;
  canonical << family_key(req) << " perturb="
            << perturbs_canonical(req.perturbs) << " warm="
            << (warm_hint.empty() ? "-" : counts_csv(warm_hint)) << " stages="
            << out.result.plan.num_stages() << " dp="
            << out.result.plan.data_parallel << " counts="
            << counts_csv(out.result.plan.partition.counts) << " sliced="
            << out.result.slicing.sliced_micro_batches << " iter_ms="
            << fmt_double(out.result.evaluation.iteration_ms);
  out.canonical = canonical.str();
  return out;
}

std::string offline_response(const PlanRequest& req,
                             const std::vector<int>& warm_hint) {
  const costmodel::ModelConfig config = request_config(req);
  const Solved solved = solve_plan(req, config, warm_hint);
  return "ok id=" + req.id + " " + solved.canonical;
}

std::string canonical_part(const std::string& response_line) {
  const std::size_t pos = response_line.find(" # ");
  return pos == std::string::npos ? response_line
                                  : response_line.substr(0, pos);
}

std::vector<int> parse_warm_hint(const std::string& response_line) {
  std::vector<int> out;
  for (const std::string& tok : split_ws(canonical_part(response_line))) {
    if (tok.rfind("warm=", 0) != 0) continue;
    const std::string value = tok.substr(5);
    if (value == "-" || value == "auto" || value == "off") return {};
    if (!parse_counts_csv(value, out)) out.clear();
    return out;
  }
  return out;
}

}  // namespace autopipe::service
