// Wire protocol of the plan daemon (plan_serve / plan_client).
//
// Requests and responses are single lines of space-separated `key=value`
// tokens -- the same self-describing text convention as config_io, so a
// request is greppable, diffable and composable with shell tools. Verbs:
//
//   plan [id=<tok>] model=<zoo-name> [mbs=<B>] [seq=<S>] [recompute=0|1]
//        [gpus=<G>] [gbs=<N>] [stages=<0|D>] [slicer=0|1]
//        [source=analytic|cache] [warm=auto|off|<c0,c1,...>]
//        [perturb=<idx>:<fwd>:<bwd>[,...]]
//   ping | stats | shutdown
//
// A `plan` response is one line: a canonical part that is a *pure function
// of the request plus the echoed warm hint*, then optional ` # ...`
// diagnostics that may depend on daemon state (memo hits, history, queue):
//
//   ok id=<id> model=... seq=<effective> ... warm=<hint|-> stages=<D>
//      dp=<N> counts=<c0,c1,...> sliced=<m'> iter_ms=<%.17g>
//      # src=planned sims=3 hits=41 ...
//
// The determinism contract the CI byte-diffs: the canonical part a warm,
// long-lived daemon serves is byte-identical to what offline_response()
// computes in a fresh process from the same request and hint. Everything
// state-dependent (shared memo, plan history, admission queue) is either
// behaviour-neutral by construction (simulations are pure; the warm seed
// joins the wave behind the balanced seed) or quarantined after the `#`.
//
// Failure replies are single lines too: `error id=<id> <message>` for
// malformed/unsatisfiable requests, `busy id=<id> queue=<n>` when admission
// control sheds the request.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/autopipe.h"
#include "costmodel/analytic.h"

namespace autopipe::service {

/// Multiplicative drift applied to one config block's measured timings --
/// how a client describes "the same model, but block 7 now measures 5%
/// slower" without shipping a whole profile.
struct BlockPerturb {
  int block = 0;
  double fwd = 1.0;
  double bwd = 1.0;
};

struct PlanRequest {
  std::string id = "0";
  std::string model;          ///< zoo name (model_by_name) or "tiny"
  int micro_batch = 4;
  int seq_len = 0;            ///< 0 -> the model's default sequence length
  bool recompute = true;
  int gpus = 4;
  long global_batch = 512;
  int stages = 0;             ///< 0 -> sweep divisors of gpus
  bool slicer = true;
  std::string source = "analytic";  ///< "analytic" | "cache"
  /// "auto": the daemon picks a warm seed from its plan history; "off":
  /// always cold; "c0,c1,...": explicit prior partition counts.
  std::string warm = "auto";
  std::vector<BlockPerturb> perturbs;
};

enum class Verb { Plan, Ping, Stats, Shutdown };

struct ParsedLine {
  Verb verb = Verb::Ping;
  PlanRequest request;  ///< valid when verb == Plan
  std::string error;    ///< non-empty -> the line was rejected
};

/// Parses one request line. Unknown verbs, unknown keys, malformed numbers
/// and out-of-range values all land in `error` (with the offending token),
/// never in a throw -- a daemon must survive arbitrary input.
ParsedLine parse_line(const std::string& line);

/// Canonical token string of a request, excluding `id`: the plan history
/// fingerprint. Two requests with equal canonical strings are served the
/// identical canonical response.
std::string canonical_request(const PlanRequest& req);

/// The request minus its block-timing content (no perturb, no warm): the
/// key under which the daemon remembers "the last plan for this shape" as
/// a warm-start candidate for drifted re-requests.
std::string family_key(const PlanRequest& req);

/// Model spec for a request: the zoo by name, plus "tiny" (the
/// CPU-friendly spec of `autopipe_profile --model tiny`, so the
/// source=cache measuring path stays fast enough to smoke-test). Throws
/// std::invalid_argument for unknown models.
costmodel::ModelSpec request_spec(const PlanRequest& req);

/// Analytic config for a request: request_spec + train knobs + perturbs.
/// Throws std::invalid_argument for unknown models or out-of-range perturb
/// indices.
costmodel::ModelConfig request_config(const PlanRequest& req);

/// Applies `perturbs` to an already-obtained config (the cache-sourced
/// path). Throws std::invalid_argument on out-of-range block indices.
void apply_perturbs(costmodel::ModelConfig& config,
                    const std::vector<BlockPerturb>& perturbs);

/// Performance-only knobs threaded into the solver: they never change the
/// canonical bytes (simulations are pure, so a shared memo only skips
/// repeated work).
struct SolveHooks {
  std::function<core::SimMemo*(const costmodel::ModelConfig& config,
                               int micro_batches,
                               const costmodel::CommModel& comm)>
      memo_provider;
};

struct Solved {
  /// Canonical response tokens *after* "ok id=<id> " -- the id is rendered
  /// by the caller so a history hit can be re-served under a new id.
  std::string canonical;
  core::AutoPipeResult result;
};

/// THE single solver both the daemon and the offline replay call: plans
/// `config` for `req`, seeding the search from `warm_hint` when non-empty.
/// `canonical` depends only on (req, config, warm_hint).
Solved solve_plan(const PlanRequest& req, const costmodel::ModelConfig& config,
                  const std::vector<int>& warm_hint,
                  const SolveHooks& hooks = {});

/// Offline replay: analytic config, cold state, no daemon. Returns the full
/// response line ("ok id=..."), byte-identical in its canonical part to
/// what a daemon serves for the same request + hint. Throws like
/// request_config on bad requests.
std::string offline_response(const PlanRequest& req,
                             const std::vector<int>& warm_hint = {});

/// Strips the ` # ...` diagnostics suffix (returns the line unchanged when
/// there is none).
std::string canonical_part(const std::string& response_line);

/// Extracts the echoed warm hint from a response's `warm=` token; empty for
/// `warm=-` (cold) or when the token is absent.
std::vector<int> parse_warm_hint(const std::string& response_line);

}  // namespace autopipe::service
