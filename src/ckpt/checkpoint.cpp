#include "ckpt/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "core/partition.h"
#include "guard/guard.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace autopipe::ckpt {

namespace {

constexpr char kRecordMagic[4] = {'A', 'P', 'C', 'R'};
constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestHeader = "# autopipe-checkpoint v1";
constexpr const char* kVerifiedName = "VERIFIED";
constexpr const char* kVerifiedHeader = "# autopipe-verified v1";

// ------------------------------------------------- binary (de)serialization

/// Appends the record format's raw little-endian fields to `out`; with no
/// `out` it only counts them, which sizes a buffer exactly.
struct ByteWriter {
  std::string* out = nullptr;
  std::size_t bytes = 0;

  void raw(const void* data, std::size_t size) {
    if (out != nullptr) out->append(static_cast<const char*>(data), size);
    bytes += size;
  }
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void floats(std::span<const float> v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(float));
  }
};

/// Throws CkptError(Corrupt) on any overrun -- a record whose CRC passes
/// but whose structure is inconsistent is still corruption, never UB.
struct ByteReader {
  std::string_view in;
  std::size_t pos = 0;

  void raw(void* data, std::size_t size) {
    if (pos + size > in.size()) {
      throw CkptError(CkptErrorKind::Corrupt,
                      "record payload truncated mid-field");
    }
    std::memcpy(data, in.data() + pos, size);
    pos += size;
  }
  std::uint8_t u8() {
    std::uint8_t v;
    raw(&v, 1);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, 8);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (pos + n > in.size()) {
      throw CkptError(CkptErrorKind::Corrupt, "record string truncated");
    }
    std::string s(in.substr(pos, n));
    pos += n;
    return s;
  }
  std::vector<float> floats() {
    const std::uint64_t n = u64();
    if (pos + n * sizeof(float) > in.size()) {
      throw CkptError(CkptErrorKind::Corrupt, "record float array truncated");
    }
    std::vector<float> v(n);
    raw(v.data(), n * sizeof(float));
    return v;
  }
  void done() const {
    if (pos != in.size()) {
      throw CkptError(CkptErrorKind::Corrupt,
                      "record payload has trailing bytes");
    }
  }
};

/// The one record serializer: every checkpoint byte is read from a view,
/// whether it points into a TrainState or into the live tensors.
void serialize_stage(ByteWriter& w, const StateView& state, int first_block,
                     int num_blocks) {
  w.u32(static_cast<std::uint32_t>(first_block));
  w.u32(static_cast<std::uint32_t>(num_blocks));
  for (int b = first_block; b < first_block + num_blocks; ++b) {
    const BlockView& block = state.blocks[static_cast<std::size_t>(b)];
    w.str(block.kind);
    w.u32(static_cast<std::uint32_t>(block.params.size()));
    for (const ParamView& p : block.params) {
      w.str(p.name);
      w.floats(p.value);
      const bool has_adam = !p.adam_m.empty();
      w.u8(has_adam ? 1 : 0);
      if (has_adam) {
        w.floats(p.adam_m);
        w.floats(p.adam_v);
      }
    }
  }
}

/// Parses one stage payload into state.blocks[first..first+n). Expects the
/// destination slots to exist already (sized from the manifest's counts).
void deserialize_stage(std::string_view payload, TrainState& state,
                       int expect_first, int expect_blocks) {
  ByteReader r{payload};
  const int first = static_cast<int>(r.u32());
  const int blocks = static_cast<int>(r.u32());
  if (first != expect_first || blocks != expect_blocks) {
    throw CkptError(CkptErrorKind::Corrupt,
                    "record block range disagrees with manifest counts");
  }
  for (int b = first; b < first + blocks; ++b) {
    BlockState& block = state.blocks[static_cast<std::size_t>(b)];
    block.kind = r.str();
    const std::uint32_t nparams = r.u32();
    block.params.resize(nparams);
    for (ParamState& p : block.params) {
      p.name = r.str();
      p.value = r.floats();
      if (r.u8() != 0) {
        p.adam_m = r.floats();
        p.adam_v = r.floats();
        if (p.adam_m.size() != p.value.size() ||
            p.adam_v.size() != p.value.size()) {
          throw CkptError(CkptErrorKind::Corrupt,
                          "optimizer moments disagree with parameter shape");
        }
      }
    }
  }
  r.done();
}

// ----------------------------------------------------------- record frames

/// Magic, format version and payload length precede the payload; its
/// CRC32 follows it.
constexpr std::size_t kFrameHeader = 4 + 4 + 8;

/// One stage's framed record, serialized once into an exactly reserved
/// buffer that the writer then moves into storage; the payload's CRC32
/// (which the manifest lists too) is computed in place and returned
/// through `crc`.
std::string frame_stage(const StateView& state, int first_block,
                        int num_blocks, std::uint32_t* crc) {
  ByteWriter sizer;
  serialize_stage(sizer, state, first_block, num_blocks);
  std::string framed;
  framed.reserve(kFrameHeader + sizer.bytes + 4);
  ByteWriter w{&framed};
  w.raw(kRecordMagic, 4);
  w.u32(static_cast<std::uint32_t>(kCheckpointVersion));
  w.u64(sizer.bytes);
  serialize_stage(w, state, first_block, num_blocks);
  *crc = util::crc32(std::string_view(framed).substr(kFrameHeader));
  w.u32(*crc);
  return framed;
}

/// Validates the frame and returns the payload view. Throws CkptError with
/// the precise defect (torn tail, flipped bit, wrong version...).
std::string_view unframe_record(std::string_view bytes) {
  if (bytes.size() < kFrameHeader + 4) {
    throw CkptError(CkptErrorKind::Corrupt, "record shorter than its frame");
  }
  if (std::memcmp(bytes.data(), kRecordMagic, 4) != 0) {
    throw CkptError(CkptErrorKind::Corrupt, "record magic mismatch");
  }
  std::uint32_t version;
  std::uint64_t payload_size;
  std::memcpy(&version, bytes.data() + 4, 4);
  std::memcpy(&payload_size, bytes.data() + 8, 8);
  if (version != static_cast<std::uint32_t>(kCheckpointVersion)) {
    throw CkptError(CkptErrorKind::Version,
                    "record format v" + std::to_string(version) +
                        " (expected v" + std::to_string(kCheckpointVersion) +
                        ")");
  }
  if (bytes.size() != kFrameHeader + payload_size + 4) {
    throw CkptError(CkptErrorKind::Corrupt, "record length mismatch (torn?)");
  }
  const std::string_view payload = bytes.substr(kFrameHeader, payload_size);
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + kFrameHeader + payload_size, 4);
  if (stored_crc != util::crc32(payload)) {
    throw CkptError(CkptErrorKind::Corrupt, "record CRC mismatch");
  }
  return payload;
}

std::string record_name(int stage) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "stage-%03d.rec", stage);
  return buf;
}

std::uint64_t parse_u64_hex(const std::string& s) {
  std::uint64_t v = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else throw CkptError(CkptErrorKind::Corrupt, "bad hex field '" + s + "'");
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  return v;
}

std::string u64_hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xFu];
    v >>= 4;
  }
  return out;
}

}  // namespace

const char* to_string(CkptErrorKind kind) {
  switch (kind) {
    case CkptErrorKind::NotFound: return "NotFound";
    case CkptErrorKind::Corrupt:  return "Corrupt";
    case CkptErrorKind::Version:  return "Version";
    case CkptErrorKind::Mismatch: return "Mismatch";
  }
  return "?";
}

std::string step_dir_name(int step) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "step-%08d", step);
  return buf;
}

// ------------------------------------------------------------ capture/apply

namespace {

/// live_view's body over the optimizer's step count and moments, wherever
/// they live.
StateView view_live(const model::TransformerModel& model, long adam_t,
                    const std::vector<std::vector<float>>& adam_m,
                    const std::vector<std::vector<float>>& adam_v,
                    const util::Rng::State& data_rng, int step,
                    const std::vector<int>& counts, int schedule_kind) {
  StateView view;
  view.step = step;
  view.adam_t = adam_t;
  view.data_rng = data_rng;
  view.counts = counts;
  view.schedule_kind = schedule_kind;
  view.scheme_fingerprint = core::scheme_hash(counts);

  const bool has_adam = adam_t > 0;
  std::size_t slot = 0;
  view.blocks.reserve(static_cast<std::size_t>(model.num_blocks()));
  for (int b = 0; b < model.num_blocks(); ++b) {
    BlockView block;
    block.kind = model.block(b).kind();
    for (const model::ParamTensor& p : model.block(b).params()) {
      ParamView pv;
      pv.name = p.name;
      pv.value = {p.value.data(), p.value.numel()};
      if (has_adam) {
        if (slot >= adam_m.size() || slot >= adam_v.size() ||
            adam_m[slot].size() != pv.value.size() ||
            adam_v[slot].size() != pv.value.size()) {
          throw CkptError(CkptErrorKind::Mismatch,
                          "optimizer state does not cover parameter '" +
                              p.name + "'");
        }
        pv.adam_m = adam_m[slot];
        pv.adam_v = adam_v[slot];
      }
      ++slot;
      block.params.push_back(pv);
    }
    view.blocks.push_back(std::move(block));
  }
  return view;
}

/// The view's floats, copied into a TrainState that owns them.
TrainState materialize(const StateView& view) {
  TrainState state;
  state.step = view.step;
  state.adam_t = view.adam_t;
  state.data_rng = view.data_rng;
  state.counts.assign(view.counts.begin(), view.counts.end());
  state.schedule_kind = view.schedule_kind;
  state.scheme_fingerprint = view.scheme_fingerprint;
  state.blocks.reserve(view.blocks.size());
  for (const BlockView& bv : view.blocks) {
    BlockState block;
    block.kind = bv.kind;
    for (const ParamView& pv : bv.params) {
      ParamState ps;
      ps.name = pv.name;
      ps.value.assign(pv.value.begin(), pv.value.end());
      ps.adam_m.assign(pv.adam_m.begin(), pv.adam_m.end());
      ps.adam_v.assign(pv.adam_v.begin(), pv.adam_v.end());
      block.params.push_back(std::move(ps));
    }
    state.blocks.push_back(std::move(block));
  }
  return state;
}

}  // namespace

StateView view_of(const TrainState& state) {
  StateView view;
  view.step = state.step;
  view.adam_t = state.adam_t;
  view.data_rng = state.data_rng;
  view.counts = state.counts;
  view.schedule_kind = state.schedule_kind;
  view.scheme_fingerprint = state.scheme_fingerprint;
  view.blocks.reserve(state.blocks.size());
  for (const BlockState& block : state.blocks) {
    BlockView bv;
    bv.kind = block.kind;
    for (const ParamState& p : block.params) {
      bv.params.push_back({p.name, p.value, p.adam_m, p.adam_v});
    }
    view.blocks.push_back(std::move(bv));
  }
  return view;
}

StateView live_view(const model::TransformerModel& model,
                    const runtime::Adam& adam,
                    const util::Rng::State& data_rng, int step,
                    const std::vector<int>& counts, int schedule_kind) {
  return view_live(model, adam.t(), adam.m(), adam.v(), data_rng, step,
                   counts, schedule_kind);
}

TrainState capture_train_state(const model::TransformerModel& model,
                               const runtime::AdamState& adam,
                               const util::Rng::State& data_rng, int step,
                               const std::vector<int>& counts,
                               int schedule_kind) {
  return materialize(view_live(model, adam.t, adam.m, adam.v, data_rng, step,
                               counts, schedule_kind));
}

TrainState capture_train_state(const model::TransformerModel& model,
                               const runtime::Adam& adam,
                               const util::Rng::State& data_rng, int step,
                               const std::vector<int>& counts,
                               int schedule_kind) {
  return materialize(
      live_view(model, adam, data_rng, step, counts, schedule_kind));
}

runtime::AdamState apply_train_state(const TrainState& state,
                                     model::TransformerModel& model) {
  if (static_cast<int>(state.blocks.size()) != model.num_blocks()) {
    throw CkptError(CkptErrorKind::Mismatch,
                    "checkpoint holds " + std::to_string(state.blocks.size()) +
                        " block(s), model has " +
                        std::to_string(model.num_blocks()));
  }
  runtime::AdamState adam;
  adam.t = state.adam_t;
  for (int b = 0; b < model.num_blocks(); ++b) {
    const BlockState& cs = state.blocks[static_cast<std::size_t>(b)];
    model::Block& block = model.block(b);
    if (cs.kind != block.kind()) {
      throw CkptError(CkptErrorKind::Mismatch,
                      "block " + std::to_string(b) + " is " + block.kind() +
                          ", checkpoint says " + cs.kind);
    }
    if (cs.params.size() != block.params().size()) {
      throw CkptError(CkptErrorKind::Mismatch,
                      "block " + std::to_string(b) + " parameter count");
    }
    for (std::size_t i = 0; i < cs.params.size(); ++i) {
      const ParamState& ps = cs.params[i];
      model::ParamTensor& p = block.params()[i];
      if (ps.name != p.name || ps.value.size() != p.value.numel()) {
        throw CkptError(CkptErrorKind::Mismatch,
                        "parameter '" + p.name + "' shape/name mismatch");
      }
      std::copy(ps.value.begin(), ps.value.end(), p.value.data());
      p.grad.fill_(0.0f);
      if (adam.t > 0) {
        if (ps.adam_m.size() != ps.value.size()) {
          throw CkptError(CkptErrorKind::Mismatch,
                          "parameter '" + p.name + "' missing Adam moments");
        }
        adam.m.push_back(ps.adam_m);
        adam.v.push_back(ps.adam_v);
      }
    }
  }
  return adam;
}

// ------------------------------------------------------------------ writer

CheckpointWriter::CheckpointWriter(Storage& storage, std::string dir,
                                   WriterOptions options)
    : storage_(storage), dir_(std::move(dir)), options_(options) {
  if (options_.keep_last < 1) {
    throw std::invalid_argument("CheckpointWriter: keep_last must be >= 1");
  }
}

std::string CheckpointWriter::write(const TrainState& state,
                                    const std::uint32_t* verified_weights) {
  return write(view_of(state), verified_weights);
}

std::string CheckpointWriter::write(const StateView& state,
                                    const std::uint32_t* verified_weights) {
  const int stages = static_cast<int>(state.counts.size());
  int total = 0;
  for (int c : state.counts) total += c;
  if (stages < 1 || total != static_cast<int>(state.blocks.size())) {
    throw std::invalid_argument(
        "CheckpointWriter: counts do not cover the block array");
  }

  const std::string step_dir = dir_ + "/" + step_dir_name(state.step);
  storage_.create_dirs(step_dir);

  // Phase 1: per-stage records to their final names. Durable but not yet
  // visible -- nothing consults a step directory without a manifest.
  std::ostringstream manifest;
  manifest << kManifestHeader << "\n";
  manifest << "step " << state.step << "\n";
  manifest << "schedule_kind " << state.schedule_kind << "\n";
  manifest << "adam_t " << state.adam_t << "\n";
  manifest << "rng";
  for (std::uint64_t w : state.data_rng) manifest << " " << w;
  manifest << "\n";
  manifest << "counts";
  for (int c : state.counts) manifest << " " << c;
  manifest << "\n";
  manifest << "scheme " << u64_hex(state.scheme_fingerprint) << "\n";

  int first = 0;
  for (int s = 0; s < stages; ++s) {
    std::uint32_t crc = 0;
    std::string framed = frame_stage(state, first, state.counts[s], &crc);
    const std::size_t bytes = framed.size();
    storage_.write_file(step_dir + "/" + record_name(s), std::move(framed));
    manifest << "record " << record_name(s) << " bytes=" << bytes
             << " crc32=" << util::crc32_hex(crc) << "\n";
    first += state.counts[s];
  }

  // Phase 2: the manifest commits last, atomically. Its own CRC covers
  // every preceding manifest byte, so a torn or flipped manifest can never
  // validate.
  std::string body = manifest.str();
  body += "crc " + util::crc32_hex(util::crc32(body)) + "\n";
  atomic_write(storage_, step_dir + "/" + kManifestName, std::move(body));

  // Phase 3 (optional): the verified-clean stamp, after the commit point so
  // a stamp can never outlive or predate the checkpoint it vouches for. The
  // stamp records the guard's weight-state checksum and is cross-checked
  // against the restored state, so a stamp cannot be transplanted onto a
  // different (e.g. silently corrupted) checkpoint.
  if (verified_weights != nullptr) {
    std::string stamp = std::string(kVerifiedHeader) + "\n";
    stamp += "weights " + util::crc32_hex(*verified_weights) + "\n";
    stamp += "crc " + util::crc32_hex(util::crc32(stamp)) + "\n";
    atomic_write(storage_, step_dir + "/" + kVerifiedName, std::move(stamp));
  }

  prune();
  return step_dir;
}

void CheckpointWriter::prune() {
  // Best-effort retention: never let pruning failures poison a commit that
  // already succeeded.
  try {
    CheckpointReader reader(storage_, dir_);
    std::vector<int> steps = reader.committed_steps();  // descending
    for (std::size_t i = static_cast<std::size_t>(options_.keep_last);
         i < steps.size(); ++i) {
      const std::string victim = dir_ + "/" + step_dir_name(steps[i]);
      // Manifest first: the checkpoint stops being a restore candidate
      // before its records disappear.
      storage_.remove_file(victim + "/" + kManifestName);
      for (const std::string& name : storage_.list_dir(victim)) {
        storage_.remove_file(victim + "/" + name);
      }
      storage_.remove_dir(victim);
    }
  } catch (const StorageError& e) {
    AP_LOG(warn) << "checkpoint retention: " << e.what();
  }
}

// ------------------------------------------------------------------ reader

CheckpointReader::CheckpointReader(Storage& storage, std::string dir)
    : storage_(storage), dir_(std::move(dir)) {}

namespace {

/// step-XXXXXXXX -> step number, or -1 when the name does not match.
int parse_step_dir(const std::string& name) {
  if (name.rfind("step-", 0) != 0 || name.size() != 13) return -1;
  int step = 0;
  for (std::size_t i = 5; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    step = step * 10 + (name[i] - '0');
  }
  return step;
}

struct ManifestEntry {
  std::string name;
  std::size_t bytes = 0;
  std::uint32_t crc = 0;
};

struct Manifest {
  TrainState meta;  ///< blocks left empty; sized by the caller
  std::vector<ManifestEntry> records;
};

Manifest parse_manifest(const std::string& text) {
  // Verify the whole-file CRC first: the trailer must be EXACTLY the last
  // 13 bytes, "crc " + 8 hex digits + newline. An exact-suffix match keeps
  // every byte of the file inside detection coverage -- the trailer's own
  // bytes are pinned by the fixed shape, everything before it by the CRC.
  constexpr std::size_t kTrailer = 4 + 8 + 1;
  if (text.size() < kTrailer) {
    throw CkptError(CkptErrorKind::Corrupt, "manifest missing crc trailer");
  }
  const std::size_t crc_pos = text.size() - kTrailer;
  if (text.compare(crc_pos, 4, "crc ") != 0 || text.back() != '\n' ||
      (crc_pos != 0 && text[crc_pos - 1] != '\n')) {
    throw CkptError(CkptErrorKind::Corrupt, "manifest missing crc trailer");
  }
  const std::string crc_hex = text.substr(crc_pos + 4, 8);
  if (static_cast<std::uint32_t>(parse_u64_hex(crc_hex)) !=
      util::crc32(std::string_view(text).substr(0, crc_pos))) {
    throw CkptError(CkptErrorKind::Corrupt, "manifest CRC mismatch");
  }

  Manifest m;
  std::istringstream in(text.substr(0, crc_pos));
  std::string line;
  bool saw_header = false, saw_step = false, saw_counts = false,
       saw_scheme = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line == kManifestHeader) saw_header = true;
      continue;
    }
    std::istringstream tokens(line);
    std::string directive;
    tokens >> directive;
    if (directive == "step") {
      tokens >> m.meta.step;
      saw_step = true;
    } else if (directive == "schedule_kind") {
      tokens >> m.meta.schedule_kind;
    } else if (directive == "adam_t") {
      tokens >> m.meta.adam_t;
    } else if (directive == "rng") {
      for (auto& w : m.meta.data_rng) tokens >> w;
    } else if (directive == "counts") {
      int c;
      while (tokens >> c) m.meta.counts.push_back(c);
      saw_counts = true;
    } else if (directive == "scheme") {
      std::string hex;
      tokens >> hex;
      m.meta.scheme_fingerprint = parse_u64_hex(hex);
      saw_scheme = true;
    } else if (directive == "record") {
      ManifestEntry e;
      std::string bytes_kv, crc_kv;
      tokens >> e.name >> bytes_kv >> crc_kv;
      if (bytes_kv.rfind("bytes=", 0) != 0 || crc_kv.rfind("crc32=", 0) != 0) {
        throw CkptError(CkptErrorKind::Corrupt, "malformed record line");
      }
      const std::string digits = bytes_kv.substr(6);
      if (digits.empty()) {
        throw CkptError(CkptErrorKind::Corrupt, "malformed record line");
      }
      for (char c : digits) {
        if (c < '0' || c > '9') {
          throw CkptError(CkptErrorKind::Corrupt, "malformed record line");
        }
        e.bytes = e.bytes * 10 + static_cast<std::size_t>(c - '0');
      }
      e.crc = static_cast<std::uint32_t>(parse_u64_hex(crc_kv.substr(6)));
      m.records.push_back(std::move(e));
    } else {
      throw CkptError(CkptErrorKind::Corrupt,
                      "unknown manifest directive '" + directive + "'");
    }
    if (tokens.fail() && directive != "counts") {
      throw CkptError(CkptErrorKind::Corrupt,
                      "malformed manifest line '" + line + "'");
    }
  }
  if (!saw_header) {
    throw CkptError(CkptErrorKind::Version, "manifest header missing");
  }
  if (!saw_step || !saw_counts || !saw_scheme ||
      m.records.size() != m.meta.counts.size()) {
    throw CkptError(CkptErrorKind::Corrupt, "manifest incomplete");
  }
  return m;
}

TrainState validate_candidate(Storage& storage, const std::string& step_dir,
                              int expected_step) {
  std::string manifest_text;
  try {
    manifest_text = storage.read_file(step_dir + "/" + kManifestName);
  } catch (const StorageError& e) {
    throw CkptError(CkptErrorKind::Corrupt,
                    std::string("manifest unreadable: ") + e.what());
  }
  Manifest manifest = parse_manifest(manifest_text);
  TrainState state = std::move(manifest.meta);
  if (state.step != expected_step) {
    throw CkptError(CkptErrorKind::Corrupt,
                    "manifest step disagrees with directory name");
  }
  // The counts line is covered by the manifest CRC; the scheme fingerprint
  // cross-checks it against what the writer saw.
  if (state.scheme_fingerprint != core::scheme_hash(state.counts)) {
    throw CkptError(CkptErrorKind::Corrupt,
                    "partition fingerprint does not match counts");
  }
  int total = 0;
  for (int c : state.counts) {
    if (c < 1) {
      throw CkptError(CkptErrorKind::Corrupt, "non-positive stage count");
    }
    total += c;
  }
  state.blocks.assign(static_cast<std::size_t>(total), BlockState{});

  int first = 0;
  for (std::size_t s = 0; s < manifest.records.size(); ++s) {
    const ManifestEntry& entry = manifest.records[s];
    std::string bytes;
    try {
      bytes = storage.read_file(step_dir + "/" + entry.name);
    } catch (const StorageError& e) {
      throw CkptError(CkptErrorKind::Corrupt,
                      entry.name + " unreadable: " + e.what());
    }
    if (bytes.size() != entry.bytes) {
      throw CkptError(CkptErrorKind::Corrupt,
                      entry.name + " length disagrees with manifest (torn?)");
    }
    const std::string_view payload = unframe_record(bytes);
    if (util::crc32(payload) != entry.crc) {
      throw CkptError(CkptErrorKind::Corrupt,
                      entry.name + " CRC disagrees with manifest");
    }
    deserialize_stage(payload, state, first,
                      state.counts[s]);
    first += state.counts[s];
  }
  return state;
}

/// True when `step_dir` carries a well-formed VERIFIED stamp whose recorded
/// weight checksum matches the state actually restored from the records.
/// Any defect (missing, unreadable, torn, flipped, transplanted) simply
/// reads as "not verified" -- the stamp is an attestation, never a gate on
/// ordinary restores.
bool verified_stamp_ok(Storage& storage, const std::string& step_dir,
                       const TrainState& state) {
  const std::string path = step_dir + "/" + kVerifiedName;
  std::string text;
  try {
    if (!storage.exists(path)) return false;
    text = storage.read_file(path);
  } catch (const StorageError&) {
    return false;
  }
  // Same exact-suffix trailer rule as the manifest: "crc <8 hex>\n" must
  // be the literal last 13 bytes, so no stamp byte escapes detection.
  constexpr std::size_t kTrailer = 4 + 8 + 1;
  if (text.size() < kTrailer) return false;
  const std::size_t crc_pos = text.size() - kTrailer;
  if (text.compare(crc_pos, 4, "crc ") != 0 || text.back() != '\n' ||
      (crc_pos != 0 && text[crc_pos - 1] != '\n')) {
    return false;
  }
  const std::string crc_hex = text.substr(crc_pos + 4, 8);
  try {
    if (static_cast<std::uint32_t>(parse_u64_hex(crc_hex)) !=
        util::crc32(std::string_view(text).substr(0, crc_pos))) {
      return false;
    }
    std::istringstream in(text.substr(0, crc_pos));
    std::string line;
    bool saw_header = false;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (line[0] == '#') {
        if (line == kVerifiedHeader) saw_header = true;
        continue;
      }
      std::istringstream tokens(line);
      std::string directive, hex;
      tokens >> directive >> hex;
      if (directive != "weights" || hex.size() != 8) return false;
      return saw_header &&
             static_cast<std::uint32_t>(parse_u64_hex(hex)) ==
                 guard::weight_state_crc(state);
    }
  } catch (const CkptError&) {
    return false;  // bad hex in a flipped stamp
  }
  return false;
}

}  // namespace

std::vector<int> CheckpointReader::committed_steps() {
  std::vector<int> steps;
  for (const std::string& name : storage_.list_dir(dir_)) {
    const int step = parse_step_dir(name);
    if (step < 0) continue;
    if (storage_.exists(dir_ + "/" + name + "/" + kManifestName)) {
      steps.push_back(step);
    }
  }
  std::sort(steps.rbegin(), steps.rend());
  return steps;
}

RestoreResult CheckpointReader::restore(const RestoreOptions& options) {
  RestoreResult result;
  const std::vector<int> steps = committed_steps();
  if (steps.empty()) {
    throw CkptError(CkptErrorKind::NotFound,
                    "no committed checkpoint under " + dir_);
  }
  bool all_version = true;
  for (int step : steps) {
    CandidateReport report;
    report.step = step;
    report.dir = dir_ + "/" + step_dir_name(step);
    try {
      result.state = validate_candidate(storage_, report.dir, step);
      report.verified = verified_stamp_ok(storage_, report.dir, result.state);
      if (options.require_verified && !report.verified) {
        // Structurally valid, but nothing attests the *content* is clean --
        // exactly the candidate the corruption rung must not trust.
        report.reason =
            "not stamped verified-clean (VERIFIED missing or mismatched)";
        all_version = false;
        result.candidates.push_back(std::move(report));
        continue;
      }
      report.valid = true;
      result.candidates.push_back(report);
      result.dir = report.dir;
      return result;
    } catch (const CkptError& e) {
      report.reason = std::string(to_string(e.kind())) + ": " + e.what();
      if (e.kind() != CkptErrorKind::Version) all_version = false;
      result.candidates.push_back(std::move(report));
      AP_LOG(warn) << "checkpoint " << step_dir_name(step)
                   << " rejected: " << e.what();
    }
  }
  std::string summary =
      std::string(options.require_verified ? "no verified-clean checkpoint under "
                                           : "no valid checkpoint under ") +
      dir_ + " (";
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    if (i) summary += "; ";
    summary += step_dir_name(result.candidates[i].step) + ": " +
               result.candidates[i].reason;
  }
  summary += ")";
  throw CkptError(all_version ? CkptErrorKind::Version
                              : CkptErrorKind::Corrupt,
                  summary);
}

}  // namespace autopipe::ckpt
