// Scheduler checkpoint/resume — the stop/restart contract of the
// multi-campaign serving engine (core/campaign_scheduler.h).
//
// Format (v2): magic "DRCK", u32 version = 2, u64 payload size,
// u32 CRC-32 of the payload (util/checksum.h), then the payload:
//   u64 waves_completed, u64 campaign count, u64 agent count;
//   per agent: u64 env_steps, u64 train_steps (the trainer counters that
//     drive the epsilon schedule and target-sync cadence), u64 blob size,
//     then that many bytes of DRCW weight stream (nn/serialize.h — the
//     online network's parameters, exactly what DrCellAgent::save_weights
//     emits);
//   per campaign: u64 id length + bytes, i64 agent index (-1 = no agent),
//     u64 cycle index at checkpoint, u64 action count + u32 actions (the
//     ordered action log), u64 word count + u64 selector state words
//     (CellSelector::checkpoint_state_words — RNG streams), u8 campaign
//     state (0 = active, 1 = quarantined) + quarantine reason string.
//
// Version rule: the reader accepts exactly the version it writes. Any other
// version — including the retired v1 layout, which had no size/CRC header —
// throws CheckpointCorruptionError: before the CRC check the envelope is
// all the reader can vouch for.
//
// Error taxonomy — the load path distinguishes DAMAGED BYTES from a VALID
// STREAM THAT DOESN'T FIT this scheduler:
//   CheckpointCorruptionError — bad magic, unsupported version, truncated
//     stream, payload-size / CRC mismatch, implausible lengths. The file
//     is damaged; retrying with another replica (e.g. an older
//     checkpoint-ring entry) is appropriate.
//   CheckpointMismatchError — counts, campaign ids, agent wiring or the
//     replayed trajectory disagree with the populated scheduler registry.
//     The bytes are fine; the registry is wrong (or the checkpoint is from
//     a different fleet), and no amount of re-reading will fix it.
// Both derive from nn::SerializationError, so existing catch sites keep
// working. Weight-shape mismatches surface as the DRCW layer's own
// nn::SerializationError.
//
// Agents are deduplicated by object identity: N campaigns serving one
// shared DrCellAgent write its weights ONCE and all reference the same
// table entry.
//
// Resume is replay: load_checkpoint requires a scheduler already populated
// with the same campaigns (matched by id, in order, same configs/tasks/
// factories/selector types — the checkpoint stores state, not
// configuration). It rebuilds each environment with a fresh engine from
// its factory and replays the logged actions through env->step, then
// restores agent weights and counters and selector RNG words. The
// environment is deterministic given the action sequence and the replayed
// engine sees the identical inference-call sequence (including the
// order-sensitive ALS warm-start fingerprints — why the log keeps order,
// not just the selection set), so the resumed scheduler's subsequent waves
// are bit-identical to an uninterrupted run's. A quarantined campaign's
// log holds only its successful steps, so replay lands it on its last
// consistent state. Caveat: replay buffers are out of scope, so campaigns
// that TRAIN during serving (OnlineAdaptive) resume with restored weights
// but an empty pool — see core/policy.h.
//
// A load that throws leaves the scheduler unchanged: the body is parsed,
// validated and replayed into local environments before anything is
// mutated, and a weight or selector-word load that fails part-way is
// undone from snapshots (so rollback_from_ring can try an older entry on
// an intact fleet).
//
// Fault-injection sites (util/fault_injection.h): "ckpt.save" at the top
// of save_checkpoint, "ckpt.load" at the top of load_checkpoint.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/serialize.h"

namespace drcell::core {

class CampaignScheduler;

/// The checkpoint bytes are damaged (bad magic, unsupported version,
/// truncation, CRC mismatch).
class CheckpointCorruptionError : public nn::SerializationError {
 public:
  using nn::SerializationError::SerializationError;
};

/// The checkpoint is intact but does not match the populated scheduler
/// registry (different fleet, ids, or agent wiring).
class CheckpointMismatchError : public nn::SerializationError {
 public:
  using nn::SerializationError::SerializationError;
};

void save_checkpoint(const CampaignScheduler& scheduler, std::ostream& out);
void load_checkpoint(CampaignScheduler& scheduler, std::istream& in);

}  // namespace drcell::core
