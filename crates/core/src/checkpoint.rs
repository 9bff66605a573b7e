//! Round-boundary checkpoint/restore: the full engine image, serialized.
//!
//! [`Engine::checkpoint`] writes a versioned, length-prefixed binary
//! image ([`cedr_durable::image`]) of everything the engine holds at a
//! quiescent round boundary:
//!
//! * the **`engine` section** — round counter, event-ID allocator, seal
//!   state, the routing table (serialized in sorted order so the image is
//!   a pure function of the state; restore only checks it against the
//!   table the restoring engine's registrations built), the ingress
//!   counters and the channel accounting;
//! * the **`channel` section** (when a channel ingress exists) — the
//!   pump's [`Resequencer`](cedr_streams::Resequencer): every buffered
//!   emission and every per-producer lane cursor, plus the producer-key
//!   allocator and the backpressure counter;
//! * one **`query:<i>:<name>` section per registered query** — the
//!   dataflow image: every operator shell's consistency-monitor state
//!   (watermarks, alignment buffers, reorder-guard registries, chain
//!   generations), every operator module's state across the stateful
//!   families (group-aggregate tables, join indexes, sequence slots,
//!   negation state; stateless modules hold none), and the sink
//!   collector's output delta log — each output event once; the
//!   collector's statistics, output guarantee and CEDR clock are
//!   re-derived from the log on restore.
//!
//! The manifest carries the format version, the round number, a
//! **configuration hash** (engine config minus the drain worker count,
//! catalog and query registrations, so an image can never be restored
//! into a differently shaped engine, but restores at any worker count)
//! and a seed-free FNV-1a **content checksum** over the section region.
//!
//! [`Engine::restore`] is **validate-everything-first**: framing,
//! checksums, format version, configuration hash and the section
//! inventory are all checked before a single field of the engine is
//! touched, so a corrupt, truncated or mismatched image fails with a
//! typed [`EngineError::CheckpointCorrupt`] naming the offending section
//! and leaves the engine exactly as it was. Because every map is
//! serialized in sorted order and every value through the deterministic
//! [`Persist`] codec, `checkpoint → restore → checkpoint` is
//! **byte-equal** — the property `tests/recovery.rs` pins alongside
//! tape-level bit-identity of recovered runs.

use crate::engine::{Engine, EngineError};
use crate::ingest::{ChannelIngress, IngressBatch, IngressStats};
use cedr_durable::{fnv1a, read_image, write_image, CodecError, Persist, Reader, Section};
use cedr_streams::{LaneParts, MessageBatch, Resequencer, ResequencerParts};
use std::sync::Arc;

/// A buffered channel emission as it appears in the image: the routing
/// snapshot (`subs`) is dropped on write and re-resolved against the
/// restored engine's routing table on read, so the image never embeds
/// engine pointers.
struct BatchRecord {
    key: u64,
    seq: u64,
    event_type: String,
    batch: MessageBatch,
}

impl Persist for BatchRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        self.seq.encode(out);
        self.event_type.encode(out);
        self.batch.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BatchRecord {
            key: u64::decode(r)?,
            seq: u64::decode(r)?,
            event_type: String::decode(r)?,
            batch: MessageBatch::decode(r)?,
        })
    }
}

fn corrupt(e: CodecError) -> EngineError {
    EngineError::CheckpointCorrupt {
        section: if e.section.is_empty() {
            "image".to_string()
        } else {
            e.section
        },
        detail: e.detail,
    }
}

fn corrupt_in(section: &str, detail: impl Into<String>) -> EngineError {
    EngineError::CheckpointCorrupt {
        section: section.to_string(),
        detail: detail.into(),
    }
}

/// The serialized routing image: type name → subscriber list (in
/// registration order), sorted by type name.
fn routing_image(engine: &Engine) -> Vec<(String, Vec<(u64, u64)>)> {
    let mut routing: Vec<(String, Vec<(u64, u64)>)> = engine
        .routing
        .iter()
        .map(|(ty, subs)| {
            (
                ty.clone(),
                subs.iter().map(|&(q, p)| (q as u64, p as u64)).collect(),
            )
        })
        .collect();
    routing.sort_by(|a, b| a.0.cmp(&b.0));
    routing
}

fn encode_ingress_stats(s: &IngressStats, out: &mut Vec<u8>) {
    s.staged_batches.encode(out);
    s.staged_messages.encode(out);
    s.admitted_batches.encode(out);
    s.admitted_messages.encode(out);
    s.backpressure_events.encode(out);
}

fn decode_ingress_stats(r: &mut Reader<'_>) -> Result<IngressStats, CodecError> {
    Ok(IngressStats {
        staged_batches: u64::decode(r)?,
        staged_messages: u64::decode(r)?,
        admitted_batches: u64::decode(r)?,
        admitted_messages: u64::decode(r)?,
        backpressure_events: u64::decode(r)?,
    })
}

impl Engine {
    /// Hash of everything that must match between the checkpointing and
    /// the restoring engine: the execution configuration (except the
    /// drain worker count, which no image depends on), the registered
    /// event types (name + arity) and the registered queries (name,
    /// consistency spec, optimized plan rendering) in
    /// registration order. Two engines built by the same registration
    /// sequence under the same config agree; anything else does not.
    fn config_hash(&self) -> u64 {
        let mut buf = Vec::new();
        self.config.ingress_capacity.encode(&mut buf);
        self.config.channel_depth.encode(&mut buf);
        self.config.resequencer_capacity.encode(&mut buf);
        let mut types: Vec<&str> = self.catalog.type_names();
        types.sort_unstable();
        (types.len() as u64).encode(&mut buf);
        for ty in types {
            ty.to_string().encode(&mut buf);
            let arity = self.catalog.lookup(ty).map(|d| d.fields.len()).unwrap_or(0);
            (arity as u64).encode(&mut buf);
        }
        (self.queries.len() as u64).encode(&mut buf);
        for rq in &self.queries {
            rq.name.encode(&mut buf);
            format!("{:?}", rq.spec).encode(&mut buf);
            rq.explain.encode(&mut buf);
        }
        fnv1a(&buf)
    }

    fn query_section_name(i: usize, name: &str) -> String {
        format!("query:{i}:{name}")
    }

    /// Serialize the complete engine image to `w` at a quiescent round
    /// boundary. See the module docs for the image layout.
    ///
    /// Requires quiescence: no staged ingress — otherwise
    /// [`EngineError::NotQuiescent`] (drain with
    /// [`Engine::run_to_quiescence`] / [`Engine::pump`] first). A dataflow
    /// cannot hold queued input or pending shell work between calls —
    /// every round runs to quiescence — so its checks are guards. Emissions
    /// still buffered in the channel or its resequencer are *not* a
    /// quiescence violation: they are folded into the image's `channel`
    /// section and resume where they left off after a restore.
    ///
    /// Checkpointing does not disturb execution: the same engine can keep
    /// running afterwards, and checkpointing the restored engine again
    /// yields a byte-equal image.
    pub fn checkpoint<W: std::io::Write>(&mut self, w: &mut W) -> Result<(), EngineError> {
        let image = self.checkpoint_to_vec()?;
        w.write_all(&image).map_err(EngineError::CheckpointIo)
    }

    /// [`Engine::checkpoint`] into a fresh byte vector.
    pub fn checkpoint_to_vec(&mut self) -> Result<Vec<u8>, EngineError> {
        let t0 = self.obs.now();
        if !self.ingress.is_empty() {
            return Err(EngineError::NotQuiescent {
                detail: format!(
                    "the engine holds {} staged ingress messages",
                    self.staged_msgs
                ),
            });
        }
        // Fold the channel's side-band state into the resequencer so the
        // image is self-contained: pending disconnects close their lanes,
        // and everything sitting in the mpsc channel moves into the skew
        // buffer (bounded by the channel depth, so this cannot run away).
        if let Some(ch) = self.channel.as_mut() {
            for (key, emitted) in ch.board.drain() {
                ch.reseq.close(key, emitted);
            }
            while let Ok(item) = ch.rx.try_recv() {
                let (key, seq) = (item.key, item.seq);
                ch.reseq.accept(key, seq, item);
            }
        }

        let mut sections = Vec::new();

        let mut engine = Vec::new();
        self.rounds_completed.encode(&mut engine);
        self.next_event_id.encode(&mut engine);
        self.sealed.encode(&mut engine);
        routing_image(self).encode(&mut engine);
        encode_ingress_stats(&self.stats, &mut engine);
        // Channel accounting outliving the channel itself (pump totals,
        // backpressure retired at seal) — semantic counters, so they must
        // survive a failover.
        self.channel_acct.rounds.encode(&mut engine);
        self.channel_acct.batches.encode(&mut engine);
        self.channel_acct.messages.encode(&mut engine);
        self.channel_acct.retired_backpressure.encode(&mut engine);
        self.channel_acct.retired_by_producer.encode(&mut engine);
        self.channel_acct.seen.encode(&mut engine);
        sections.push(Section {
            name: "engine".to_string(),
            payload: engine,
        });

        if let Some(ch) = self.channel.as_ref() {
            let mut payload = Vec::new();
            ch.next_key.encode(&mut payload);
            ch.board
                .backpressure
                .load(std::sync::atomic::Ordering::Relaxed)
                .encode(&mut payload);
            ch.board.backpressure_by_producer().encode(&mut payload);
            let parts = ch.reseq.to_parts();
            let parts = ResequencerParts {
                frontier: parts.frontier,
                lanes: parts
                    .lanes
                    .into_iter()
                    .map(|lane| LaneParts {
                        key: lane.key,
                        base: lane.base,
                        next_seq: lane.next_seq,
                        final_seq: lane.final_seq,
                        buffered: lane
                            .buffered
                            .into_iter()
                            .map(|(seq, item)| {
                                (
                                    seq,
                                    BatchRecord {
                                        key: item.key,
                                        seq: item.seq,
                                        event_type: item.event_type.to_string(),
                                        batch: item.batch,
                                    },
                                )
                            })
                            .collect(),
                    })
                    .collect(),
            };
            parts.encode(&mut payload);
            sections.push(Section {
                name: "channel".to_string(),
                payload,
            });
        }

        for (i, rq) in self.queries.iter().enumerate() {
            let mut payload = Vec::new();
            rq.plan.dataflow.state_snapshot(&mut payload).map_err(|e| {
                EngineError::NotQuiescent {
                    detail: format!("query '{}': {}", rq.name, e.detail),
                }
            })?;
            sections.push(Section {
                name: Engine::query_section_name(i, &rq.name),
                payload,
            });
        }

        let image = write_image(self.rounds_completed, self.config_hash(), &sections);
        let nanos = self.obs.now().saturating_sub(t0);
        self.ckpt.checkpoints += 1;
        self.ckpt.checkpoint_bytes += image.len() as u64;
        self.obs.with_timings(|t| t.checkpoint_write.record(nanos));
        let bytes = image.len() as u64;
        self.obs
            .trace(|| cedr_obs::TraceEvent::Checkpoint { bytes, nanos });
        Ok(image)
    }

    /// Restore a checkpoint image written by [`Engine::checkpoint`] into
    /// this engine, which must have been prepared by the **same
    /// registration sequence** under the **same configuration** (same
    /// event types, same queries in the same order — checked via the
    /// manifest's configuration hash). The drain worker count
    /// ([`EngineConfig::threads`](crate::EngineConfig::threads)) is free:
    /// an image restores at any worker count.
    ///
    /// Validation is strictly before mutation: framing, checksums, the
    /// format version, the configuration hash and the full section
    /// inventory are verified first, so any [`EngineError::CheckpointCorrupt`]
    /// leaves the engine untouched. After a successful restore the engine
    /// is indistinguishable from the checkpointed one: replaying the
    /// remaining input produces bit-identical tapes, deltas and CTIs, and
    /// [`Engine::seal`] behaves exactly as it would have.
    ///
    /// Channel producers reattach by calling [`Engine::channel_source`]
    /// in the original open order: restored open lanes are handed back
    /// first (emission cursors intact), then fresh keys are minted.
    pub fn restore<R: std::io::Read>(&mut self, r: &mut R) -> Result<(), EngineError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)
            .map_err(EngineError::CheckpointIo)?;
        self.restore_from_slice(&bytes)
    }

    /// [`Engine::restore`] from an in-memory image.
    pub fn restore_from_slice(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        let t0 = self.obs.now();
        // Phase 1 — validate everything. `read_image` verifies magic,
        // format version, framing and every checksum before returning.
        let (manifest, sections) = read_image(bytes).map_err(corrupt)?;
        if manifest.config_hash != self.config_hash() {
            return Err(corrupt_in(
                "manifest",
                format!(
                    "configuration hash mismatch: image {:#018x}, engine {:#018x} \
                     (different config, event types or query registrations)",
                    manifest.config_hash,
                    self.config_hash()
                ),
            ));
        }
        let mut expected: Vec<String> = vec!["engine".to_string()];
        expected.extend(
            self.queries
                .iter()
                .enumerate()
                .map(|(i, rq)| Engine::query_section_name(i, &rq.name)),
        );
        for name in &expected {
            if !sections.iter().any(|s| &s.name == name) {
                return Err(corrupt_in("manifest", format!("missing section '{name}'")));
            }
        }
        for s in &sections {
            if !expected.contains(&s.name) && s.name != "channel" {
                return Err(corrupt_in(&s.name, "unexpected section"));
            }
        }
        let section = |name: &str| sections.iter().find(|s| s.name == name).map(|s| &s.payload);

        // Decode the engine section fully before touching any field.
        let engine_payload = section("engine").expect("presence checked");
        let mut er = Reader::new(engine_payload);
        let decoded = (|| -> Result<_, CodecError> {
            let rounds = u64::decode(&mut er)?;
            let next_event_id = u64::decode(&mut er)?;
            let sealed = bool::decode(&mut er)?;
            let routing = Vec::<(String, Vec<(u64, u64)>)>::decode(&mut er)?;
            let stats = decode_ingress_stats(&mut er)?;
            let channel_acct = crate::engine::ChannelAccounting {
                rounds: u64::decode(&mut er)?,
                batches: u64::decode(&mut er)?,
                messages: u64::decode(&mut er)?,
                retired_backpressure: u64::decode(&mut er)?,
                retired_by_producer: Vec::<(u64, u64)>::decode(&mut er)?,
                seen: bool::decode(&mut er)?,
            };
            er.expect_exhausted()?;
            Ok((rounds, next_event_id, sealed, routing, stats, channel_acct))
        })()
        .map_err(|e| corrupt(e.in_section("engine")))?;
        let (rounds, next_event_id, sealed, routing, stats, channel_acct) = decoded;

        // The routing table is derived from registration; the image copy
        // exists to prove both engines route identically.
        if routing_image(self) != routing {
            return Err(corrupt_in("engine", "routing table differs from the image"));
        }

        // Decode the channel section (if present) before mutating.
        let channel_state = match section("channel") {
            None => None,
            Some(payload) => {
                let mut cr = Reader::new(payload);
                let decoded = (|| -> Result<_, CodecError> {
                    let next_key = u64::decode(&mut cr)?;
                    let backpressure = u64::decode(&mut cr)?;
                    let by_producer = Vec::<(u64, u64)>::decode(&mut cr)?;
                    let parts = ResequencerParts::<BatchRecord>::decode(&mut cr)?;
                    cr.expect_exhausted()?;
                    Ok((next_key, backpressure, by_producer, parts))
                })()
                .map_err(|e| corrupt(e.in_section("channel")))?;
                Some(decoded)
            }
        };

        // Phase 2 — apply. Dataflow restores are per-query and validated
        // against the (hash-checked) plan shape as they decode.
        for (i, rq) in self.queries.iter_mut().enumerate() {
            let name = Engine::query_section_name(i, &rq.name);
            let payload = section(&name).expect("presence checked");
            let mut qr = Reader::new(payload);
            rq.plan
                .dataflow
                .state_restore(&mut qr)
                .and_then(|()| qr.expect_exhausted())
                .map_err(|e| corrupt(e.in_section(&name)))?;
        }
        self.rounds_completed = rounds;
        self.next_event_id = next_event_id;
        self.sealed = sealed;
        self.stats = stats;
        self.ingress.clear();
        self.staged_msgs = 0;
        self.channel_acct = channel_acct;
        self.channel = match channel_state {
            None => None,
            Some((next_key, backpressure, by_producer, parts)) => {
                self.channel_acct.seen = true;
                let mut ch = ChannelIngress::new(self.config.channel_depth);
                ch.next_key = next_key;
                ch.board.set_backpressure(backpressure, by_producer);
                // Open lanes (ascending key order, as serialized) wait for
                // their producers to reattach via `channel_source`; the
                // emission cursor resumes at next_seq + buffered (buffered
                // seqs are contiguous — per-producer emission is FIFO).
                let parts = ResequencerParts {
                    frontier: parts.frontier,
                    lanes: parts
                        .lanes
                        .into_iter()
                        .map(|lane| {
                            if lane.final_seq.is_none() {
                                ch.resume_keys.push_back((
                                    lane.key,
                                    lane.next_seq + lane.buffered.len() as u64,
                                ));
                            }
                            LaneParts {
                                key: lane.key,
                                base: lane.base,
                                next_seq: lane.next_seq,
                                final_seq: lane.final_seq,
                                buffered: lane
                                    .buffered
                                    .into_iter()
                                    .map(|(seq, rec)| {
                                        (
                                            seq,
                                            IngressBatch {
                                                key: rec.key,
                                                seq: rec.seq,
                                                event_type: Arc::from(rec.event_type.as_str()),
                                                subs: self.resolve_subs(&rec.event_type),
                                                batch: rec.batch,
                                            },
                                        )
                                    })
                                    .collect(),
                            }
                        })
                        .collect(),
                };
                ch.reseq = Resequencer::from_parts(parts);
                Some(ch)
            }
        };
        let nanos = self.obs.now().saturating_sub(t0);
        self.ckpt.restores += 1;
        self.ckpt.restore_bytes += bytes.len() as u64;
        self.obs
            .with_timings(|t| t.checkpoint_restore.record(nanos));
        let image_bytes = bytes.len() as u64;
        self.obs.trace(|| cedr_obs::TraceEvent::Restore {
            bytes: image_bytes,
            nanos,
        });
        Ok(())
    }
}
