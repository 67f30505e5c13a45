#include "core/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/campaign_scheduler.h"
#include "core/policy.h"
#include "util/checksum.h"
#include "util/fault_injection.h"

namespace drcell::core {

namespace {

constexpr char kMagic[4] = {'D', 'R', 'C', 'K'};
constexpr std::uint32_t kVersion = 2;

using nn::SerializationError;

template <typename T>
void write_pod(std::ostream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw CheckpointCorruptionError("truncated checkpoint stream");
  return v;
}

void write_string(std::ostream& out, const std::string& s) {
  write_pod<std::uint64_t>(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& in, std::uint64_t max_len,
                        const char* what) {
  const auto len = read_pod<std::uint64_t>(in);
  if (len > max_len)
    throw CheckpointCorruptionError(std::string("implausible ") + what +
                                    " length in checkpoint");
  std::string s(len, '\0');
  in.read(s.data(), static_cast<std::streamsize>(len));
  if (!in) throw CheckpointCorruptionError("truncated checkpoint stream");
  return s;
}

/// Agent table in discovery order (ascending slot, first occurrence) plus
/// each slot's index into it (-1 = weightless selector). Shared between
/// save and load so the table order is reproducible from the registry
/// alone. Identity comes from core::trainable_agent_of — the one
/// definition of "selector that carries weights".
std::vector<DrCellAgent*> collect_agents(
    const std::vector<std::shared_ptr<baselines::CellSelector>>& selectors,
    std::vector<std::int64_t>& refs) {
  std::vector<DrCellAgent*> agents;
  refs.assign(selectors.size(), -1);
  for (std::size_t i = 0; i < selectors.size(); ++i) {
    DrCellAgent* agent = trainable_agent_of(selectors[i].get());
    if (agent == nullptr) continue;
    std::size_t idx = 0;
    while (idx < agents.size() && agents[idx] != agent) ++idx;
    if (idx == agents.size()) agents.push_back(agent);
    refs[i] = static_cast<std::int64_t>(idx);
  }
  return agents;
}

}  // namespace

/// Private-state accessor: the one friend of CampaignScheduler the
/// checkpoint layer goes through. The body is the payload inside the
/// envelope (see checkpoint.h).
struct CheckpointAccess {
  static void write_body(const CampaignScheduler& scheduler,
                         std::ostream& out) {
    std::vector<std::shared_ptr<baselines::CellSelector>> selectors;
    selectors.reserve(scheduler.slots_.size());
    for (const auto& slot : scheduler.slots_)
      selectors.push_back(slot.selector);
    std::vector<std::int64_t> refs;
    const std::vector<DrCellAgent*> agents = collect_agents(selectors, refs);

    write_pod<std::uint64_t>(out, scheduler.waves_);
    write_pod<std::uint64_t>(out, scheduler.slots_.size());
    write_pod<std::uint64_t>(out, agents.size());

    for (DrCellAgent* agent : agents) {
      write_pod<std::uint64_t>(out, agent->trainer().env_steps());
      write_pod<std::uint64_t>(out, agent->trainer().train_steps());
      std::ostringstream blob(std::ios::binary);
      agent->save_weights(blob);
      write_string(out, blob.str());
    }

    for (std::size_t i = 0; i < scheduler.slots_.size(); ++i) {
      const auto& slot = scheduler.slots_[i];
      write_string(out, slot.id);
      write_pod<std::int64_t>(out, refs[i]);
      write_pod<std::uint64_t>(out, slot.env->current_cycle());
      write_pod<std::uint64_t>(out, slot.action_log.size());
      out.write(reinterpret_cast<const char*>(slot.action_log.data()),
                static_cast<std::streamsize>(slot.action_log.size() *
                                             sizeof(std::uint32_t)));
      const std::vector<std::uint64_t> words =
          slot.selector->checkpoint_state_words();
      write_pod<std::uint64_t>(out, words.size());
      out.write(reinterpret_cast<const char*>(words.data()),
                static_cast<std::streamsize>(words.size() *
                                             sizeof(std::uint64_t)));
      write_pod<std::uint8_t>(
          out, slot.state == CampaignState::kQuarantined ? 1 : 0);
      write_string(out, slot.quarantine_reason);
    }
  }

  /// Parses and validates the whole body and replays every campaign into a
  /// local environment before touching the scheduler; a throw from any of
  /// that leaves the scheduler exactly as it was. The commit then loads
  /// weights, counters and selector words — undone from snapshots if one of
  /// them throws — and finally swaps in the replayed state, which cannot.
  static void read_body(CampaignScheduler& scheduler, std::istream& in) {
    auto& slots = scheduler.slots_;
    const auto waves = read_pod<std::uint64_t>(in);
    const auto campaign_count = read_pod<std::uint64_t>(in);
    if (campaign_count != slots.size())
      throw CheckpointMismatchError(
          "checkpoint holds " + std::to_string(campaign_count) +
          " campaigns, scheduler has " + std::to_string(slots.size()));

    // The agent table must line up with the one this registry would
    // produce — same discovery order, same sharing structure.
    std::vector<std::shared_ptr<baselines::CellSelector>> selectors;
    selectors.reserve(slots.size());
    for (const auto& slot : slots) selectors.push_back(slot.selector);
    std::vector<std::int64_t> expected_refs;
    const std::vector<DrCellAgent*> agents =
        collect_agents(selectors, expected_refs);

    const auto agent_count = read_pod<std::uint64_t>(in);
    if (agent_count != agents.size())
      throw CheckpointMismatchError(
          "checkpoint holds " + std::to_string(agent_count) +
          " agents, scheduler registry implies " +
          std::to_string(agents.size()));
    std::vector<std::uint64_t> env_steps(agents.size());
    std::vector<std::uint64_t> train_steps(agents.size());
    std::vector<std::string> blobs(agents.size());
    for (std::size_t a = 0; a < agents.size(); ++a) {
      env_steps[a] = read_pod<std::uint64_t>(in);
      train_steps[a] = read_pod<std::uint64_t>(in);
      blobs[a] = read_string(in, std::uint64_t{1} << 33, "weight blob");
    }

    std::vector<std::vector<std::uint32_t>> logs(slots.size());
    std::vector<std::uint64_t> cycles(slots.size());
    std::vector<std::vector<std::uint64_t>> words(slots.size());
    std::vector<std::uint8_t> states(slots.size());
    std::vector<std::string> reasons(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const std::string id = read_string(in, 4096, "campaign id");
      if (id != slots[i].id)
        throw CheckpointMismatchError(
            "checkpoint campaign " + std::to_string(i) + " is '" + id +
            "', scheduler has '" + slots[i].id + "'");
      const auto ref = read_pod<std::int64_t>(in);
      if (ref != expected_refs[i])
        throw CheckpointMismatchError("checkpoint agent wiring of campaign '" +
                                      id +
                                      "' does not match the scheduler "
                                      "registry");
      cycles[i] = read_pod<std::uint64_t>(in);
      const auto action_count = read_pod<std::uint64_t>(in);
      if (action_count > std::uint64_t{1} << 32)
        throw CheckpointCorruptionError(
            "implausible action count in checkpoint");
      logs[i].resize(action_count);
      in.read(reinterpret_cast<char*>(logs[i].data()),
              static_cast<std::streamsize>(action_count *
                                           sizeof(std::uint32_t)));
      if (!in) throw CheckpointCorruptionError("truncated checkpoint stream");
      const auto word_count = read_pod<std::uint64_t>(in);
      if (word_count > 1'000'000)
        throw CheckpointCorruptionError(
            "implausible selector state in checkpoint");
      words[i].resize(word_count);
      in.read(reinterpret_cast<char*>(words[i].data()),
              static_cast<std::streamsize>(word_count *
                                           sizeof(std::uint64_t)));
      if (!in) throw CheckpointCorruptionError("truncated checkpoint stream");
      states[i] = read_pod<std::uint8_t>(in);
      if (states[i] > 1)
        throw CheckpointCorruptionError(
            "invalid campaign state byte in checkpoint");
      reasons[i] = read_string(in, 4096, "quarantine reason");
    }

    // Replay: fresh engine, logged actions, in order (see header), into
    // local environments. The fan-out is index-exclusive per slot —
    // bit-identical for any worker count; errors are collected and
    // rethrown on the caller's thread.
    util::ThreadPool& pool = scheduler.options_.pool != nullptr
                                 ? *scheduler.options_.pool
                                 : util::ThreadPool::global();
    std::vector<std::unique_ptr<mcs::SparseMcsEnvironment>> envs(slots.size());
    std::vector<std::string> errors(slots.size());
    pool.parallel_for(slots.size(), [&](std::size_t i) {
      const auto& slot = slots[i];
      auto env = make_campaign_environment(slot.task, slot.engine_factory(),
                                           slot.config);
      for (const std::uint32_t a : logs[i]) {
        if (env->episode_done() || a >= env->num_cells() ||
            !env->can_select(a)) {
          errors[i] =
              "invalid action in checkpoint replay of '" + slot.id + "'";
          return;
        }
        env->step(a);
      }
      if (env->current_cycle() != cycles[i]) {
        errors[i] = "replay of campaign '" + slot.id + "' reached cycle " +
                    std::to_string(env->current_cycle()) +
                    ", checkpoint recorded " + std::to_string(cycles[i]);
        return;
      }
      envs[i] = std::move(env);
    });
    for (const std::string& e : errors)
      if (!e.empty()) throw CheckpointMismatchError(e);

    commit_agents_and_selectors(scheduler, agents, env_steps, train_steps,
                                blobs, words);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      auto& slot = slots[i];
      slot.env = std::move(envs[i]);
      slot.action_log = std::move(logs[i]);
      slot.state = states[i] == 1 ? CampaignState::kQuarantined
                                  : CampaignState::kActive;
      slot.quarantine_reason = std::move(reasons[i]);
      slot.consecutive_faults = 0;
    }
    scheduler.waves_ = waves;
  }

  /// Loads every agent's weights and counters and every selector's state
  /// words. The DRCW layer checks weight shapes and a selector checks its
  /// own words, so either may throw part-way; the online and target
  /// weights, counters and words are then restored from snapshots before
  /// the error propagates.
  static void commit_agents_and_selectors(
      CampaignScheduler& scheduler, const std::vector<DrCellAgent*>& agents,
      const std::vector<std::uint64_t>& env_steps,
      const std::vector<std::uint64_t>& train_steps,
      const std::vector<std::string>& blobs,
      const std::vector<std::vector<std::uint64_t>>& words) {
    auto& slots = scheduler.slots_;
    struct AgentSnapshot {
      std::vector<Matrix> online, target;
      std::size_t env_steps, train_steps;
    };
    const auto values_of = [](rl::QNetwork& net) {
      std::vector<Matrix> values;
      for (const nn::Parameter* p : net.parameters())
        values.push_back(p->value());
      return values;
    };
    const auto assign = [](rl::QNetwork& net, const std::vector<Matrix>& v) {
      const auto params = net.parameters();
      for (std::size_t j = 0; j < params.size(); ++j)
        params[j]->mutable_value() = v[j];
    };
    std::vector<AgentSnapshot> agent_snapshots;
    for (DrCellAgent* agent : agents) {
      rl::DqnTrainer& trainer = agent->trainer();
      agent_snapshots.push_back({values_of(trainer.online()),
                                 values_of(trainer.target()),
                                 trainer.env_steps(), trainer.train_steps()});
    }
    std::vector<std::vector<std::uint64_t>> word_snapshots;
    for (const auto& slot : slots)
      word_snapshots.push_back(slot.selector->checkpoint_state_words());

    try {
      for (std::size_t a = 0; a < agents.size(); ++a) {
        std::istringstream blob_in(blobs[a], std::ios::binary);
        agents[a]->load_weights(blob_in);
        agents[a]->trainer().restore_counters(env_steps[a], train_steps[a]);
      }
      for (std::size_t i = 0; i < slots.size(); ++i)
        slots[i].selector->restore_state_words(words[i]);
    } catch (...) {
      for (std::size_t a = 0; a < agents.size(); ++a) {
        rl::DqnTrainer& trainer = agents[a]->trainer();
        assign(trainer.online(), agent_snapshots[a].online);
        assign(trainer.target(), agent_snapshots[a].target);
        trainer.restore_counters(agent_snapshots[a].env_steps,
                                 agent_snapshots[a].train_steps);
      }
      for (std::size_t i = 0; i < slots.size(); ++i)
        slots[i].selector->restore_state_words(word_snapshots[i]);
      throw;
    }
  }
};

void save_checkpoint(const CampaignScheduler& scheduler, std::ostream& out) {
  DRCELL_FAULT_SITE("ckpt.save", "");
  // Serialise the body first so the envelope can carry its exact size and
  // CRC; a reader can then tell truncation/bit-rot from registry mismatch.
  std::ostringstream body(std::ios::binary);
  CheckpointAccess::write_body(scheduler, body);
  const std::string payload = std::move(body).str();

  out.write(kMagic, sizeof(kMagic));
  write_pod<std::uint32_t>(out, kVersion);
  write_pod<std::uint64_t>(out, payload.size());
  write_pod<std::uint32_t>(out, util::crc32(payload.data(), payload.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) throw SerializationError("failed to write checkpoint stream");
}

void load_checkpoint(CampaignScheduler& scheduler, std::istream& in) {
  DRCELL_FAULT_SITE("ckpt.load", "");
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw CheckpointCorruptionError(
        "bad magic: not a DR-Cell checkpoint stream");
  // Until the CRC check passes the envelope is all this reader can vouch
  // for, so a version it does not write is damage, not a fleet mismatch.
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kVersion)
    throw CheckpointCorruptionError("unsupported checkpoint version " +
                                    std::to_string(version));

  const auto payload_size = read_pod<std::uint64_t>(in);
  if (payload_size > std::uint64_t{1} << 33)
    throw CheckpointCorruptionError("implausible payload size in checkpoint");
  const auto stored_crc = read_pod<std::uint32_t>(in);
  // Read in bounded chunks: a damaged size field then costs only the bytes
  // the stream really holds, not a zero-filled buffer of the claimed size.
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
  std::string payload;
  while (payload.size() < payload_size) {
    const std::size_t offset = payload.size();
    const auto n = static_cast<std::size_t>(
        std::min(kChunk, payload_size - offset));
    payload.resize(offset + n);
    in.read(payload.data() + offset, static_cast<std::streamsize>(n));
    if (!in)
      throw CheckpointCorruptionError(
          "truncated checkpoint stream (payload shorter than header claims)");
  }
  if (util::crc32(payload.data(), payload.size()) != stored_crc)
    throw CheckpointCorruptionError(
        "checkpoint CRC mismatch (bit-rot or torn write)");
  std::istringstream body(payload, std::ios::binary);
  CheckpointAccess::read_body(scheduler, body);
}

}  // namespace drcell::core
