//! The distributed-training message set.
//!
//! Messages are encoded with the checkpoint crate's little-endian codec
//! ([`crossbow_checkpoint::codec`]) — the same serialization that makes
//! checkpoints durable makes them shippable, and the `Welcome` message
//! carries a full encoded `TrainingState` so a rejoining worker recovers
//! through exactly the checkpoint path a restarted coordinator would.

use crate::wire;
use crossbow_checkpoint::codec::{DecodeError, Reader, Writer};

/// One protocol message. Tags are stable; unknown tags decode to an
/// error rather than a guess.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Worker → coordinator: join (or rejoin) the cluster. `ring_addr` is
    /// where this worker accepts ring-predecessor connections.
    Hello {
        /// True when this process replaces a previously evicted worker.
        rejoin: bool,
        /// The worker's ring listener address (unused in PS topology).
        ring_addr: String,
    },
    /// Coordinator → worker: admission. `state` is an encoded
    /// `TrainingState` — the latest durable checkpoint when one exists,
    /// otherwise a synthesized snapshot of the live run — which the
    /// worker validates before serving gradients.
    Welcome {
        /// The learner slot this worker now owns.
        slot: u32,
        /// Current cluster size.
        k: u32,
        /// 0 = parameter server, 1 = ring.
        topology: u8,
        /// Weight decay every gradient must include.
        weight_decay: f32,
        /// Heartbeat interval the worker must ping at, in milliseconds
        /// (0 = keep the worker's own default). Handing the interval out
        /// at admission keeps it coordinator-driven, so the validated
        /// `interval < eviction timeout` relation holds cluster-wide.
        heartbeat_ms: u64,
        /// Start of the global sample range assigned to this slot when
        /// the run is shard-partitioned (`data_lo == data_hi` = no
        /// assignment: batches arrive by payload, not by index). Ranges
        /// follow the slot, so eviction/rejoin rebalances data exactly
        /// like replicas.
        data_lo: u64,
        /// One past the end of the assigned sample range.
        data_hi: u64,
        /// Encoded `crossbow_checkpoint::TrainingState`.
        state: Vec<u8>,
    },
    /// Coordinator → worker: compute one gradient.
    Work {
        /// Round id; echoed back so stale replies are discardable.
        iter: u64,
        /// The slot this work is for.
        slot: u32,
        /// The slot's replica parameters.
        params: Vec<f32>,
        /// Batch tensor dimensions.
        dims: Vec<u64>,
        /// Batch tensor data.
        images: Vec<f32>,
        /// Batch labels.
        labels: Vec<u64>,
    },
    /// Coordinator → worker: compute one gradient from *locally held*
    /// data. The index-shipping twin of [`Msg::Work`]: the worker opened
    /// its own copy of the sharded dataset, so the coordinator sends the
    /// drawn sample indices instead of the gathered payload — same
    /// round, a fraction of the bytes on the wire.
    WorkIdx {
        /// Round id; echoed back so stale replies are discardable.
        iter: u64,
        /// The slot this work is for.
        slot: u32,
        /// The slot's replica parameters.
        params: Vec<f32>,
        /// Global dataset indices of the batch samples.
        indices: Vec<u64>,
    },
    /// Worker → coordinator (PS): one finished gradient.
    Grad {
        /// Echo of [`Msg::Work`]'s round id.
        iter: u64,
        /// Echo of the slot.
        slot: u32,
        /// Mean training loss over the batch.
        loss: f32,
        /// The gradient, weight decay included.
        grad: Vec<f32>,
    },
    /// Worker → coordinator (ring): the full gathered round, uploaded by
    /// slot 0 after the all-gather completes.
    GradSet {
        /// Echo of the round id.
        iter: u64,
        /// Per-slot losses, slot order.
        losses: Vec<f32>,
        /// Per-slot gradients, slot order.
        grads: Vec<Vec<f32>>,
    },
    /// Worker → coordinator: heartbeat.
    Ping {
        /// The sender's slot.
        slot: u32,
    },
    /// Coordinator → worker: (re)configure ring links after membership
    /// changes. Stale generations are ignored.
    Ring {
        /// Monotonic ring-membership generation.
        generation: u64,
        /// The worker's (possibly reassigned) slot.
        slot: u32,
        /// New cluster size.
        k: u32,
        /// Address of the worker's ring successor.
        next: String,
    },
    /// Worker → worker: ring-link handshake, validating the generation
    /// so a stale predecessor cannot feed an old ring.
    RingHello {
        /// The sender's membership generation.
        generation: u64,
        /// The sender's slot.
        origin: u32,
    },
    /// Worker → worker: one all-gather block travelling around the ring.
    Block {
        /// Round id; blocks from other rounds are discarded.
        iter: u64,
        /// The slot whose gradient this is.
        origin: u32,
        /// That slot's batch loss.
        loss: f32,
        /// That slot's gradient.
        grad: Vec<f32>,
    },
    /// Coordinator → worker: the run is over; exit cleanly.
    Shutdown,
    /// Primary ⇄ standby lease traffic. Standby → primary: register as a
    /// warm standby (sent as the first message on the connection, in
    /// place of `Hello`; `priority` is the standby's takeover rank, lower
    /// first). Primary → standby: periodic lease renewal carrying the
    /// primary's term. Terms are failover generations: a standby only
    /// ever takes over at `term + 1`, so a deposed primary's stale
    /// messages are recognisably old — the same generation-stamping the
    /// ring reconfiguration uses.
    Lease {
        /// The sender's failover term (standbys echo the last one seen).
        term: u64,
        /// Takeover priority of the registering standby (0 from primary).
        priority: u32,
    },
    /// Primary → standby: one replicated state update. `state` is an
    /// encoded `TrainingState` — the same bytes a durable checkpoint
    /// would hold — captured post-step, so resuming from the latest one
    /// replays the rest of the run bit-identically.
    State {
        /// The primary's term.
        term: u64,
        /// Monotonic update sequence within the term.
        seq: u64,
        /// Encoded `crossbow_checkpoint::TrainingState`.
        state: Vec<u8>,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_WORK: u8 = 3;
const TAG_GRAD: u8 = 4;
const TAG_GRADSET: u8 = 5;
const TAG_PING: u8 = 6;
const TAG_RING: u8 = 7;
const TAG_RINGHELLO: u8 = 8;
const TAG_BLOCK: u8 = 9;
const TAG_SHUTDOWN: u8 = 10;
const TAG_LEASE: u8 = 11;
const TAG_STATE: u8 = 12;
const TAG_WORKIDX: u8 = 13;

// Borrowed encoders for the bulk messages. `Msg::encode` goes through
// them too, so a hot path that frames straight from its own buffers puts
// exactly the owned message's bytes on the wire, without first copying a
// model-sized vector into a `Msg`. The work messages, whose model-sized
// field is not the last, reserve their exact size first: growing past
// it would copy the replica again.

/// Writes a [`Msg::Work`] from borrowed parts.
pub(crate) fn write_work(
    w: &mut Writer,
    iter: u64,
    slot: u32,
    params: &[f32],
    dims: &[u64],
    images: &[f32],
    labels: &[u64],
) {
    // Tag, iter, slot and four length prefixes, then the elements.
    w.reserve(45 + 4 * (params.len() + images.len()) + 8 * (dims.len() + labels.len()));
    w.u8(TAG_WORK);
    w.u64(iter);
    w.u32(slot);
    w.f32_slice(params);
    w.u64_slice(dims);
    w.f32_slice(images);
    w.u64_slice(labels);
}

/// Writes a [`Msg::WorkIdx`] from borrowed parts.
pub(crate) fn write_work_idx(
    w: &mut Writer,
    iter: u64,
    slot: u32,
    params: &[f32],
    indices: &[u64],
) {
    w.reserve(29 + 4 * params.len() + 8 * indices.len());
    w.u8(TAG_WORKIDX);
    w.u64(iter);
    w.u32(slot);
    w.f32_slice(params);
    w.u64_slice(indices);
}

/// Writes a [`Msg::Grad`] from borrowed parts.
pub(crate) fn write_grad(w: &mut Writer, iter: u64, slot: u32, loss: f32, grad: &[f32]) {
    w.u8(TAG_GRAD);
    w.u64(iter);
    w.u32(slot);
    w.f32(loss);
    w.f32_slice(grad);
}

/// Writes a [`Msg::State`] from borrowed parts.
pub(crate) fn write_state(w: &mut Writer, term: u64, seq: u64, state: &[u8]) {
    w.u8(TAG_STATE);
    w.u64(term);
    w.u64(seq);
    w.bytes(state);
}

impl Msg {
    /// A short name for logs and spans.
    pub fn name(&self) -> &'static str {
        match self {
            Msg::Hello { .. } => "hello",
            Msg::Welcome { .. } => "welcome",
            Msg::Work { .. } => "work",
            Msg::WorkIdx { .. } => "work-idx",
            Msg::Grad { .. } => "grad",
            Msg::GradSet { .. } => "grad-set",
            Msg::Ping { .. } => "ping",
            Msg::Ring { .. } => "ring",
            Msg::RingHello { .. } => "ring-hello",
            Msg::Block { .. } => "block",
            Msg::Shutdown => "shutdown",
            Msg::Lease { .. } => "lease",
            Msg::State { .. } => "state",
        }
    }

    /// Encodes the message as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write(&mut w);
        w.into_bytes()
    }

    /// The message as one wire frame, encoded straight behind the header
    /// (the bytes of `wire::frame(&self.encode())`, without the copy).
    pub(crate) fn framed(&self) -> Vec<u8> {
        wire::frame_with(|w| self.write(w))
    }

    fn write(&self, w: &mut Writer) {
        match self {
            Msg::Hello { rejoin, ring_addr } => {
                w.u8(TAG_HELLO);
                w.u8(u8::from(*rejoin));
                w.str(ring_addr);
            }
            Msg::Welcome {
                slot,
                k,
                topology,
                weight_decay,
                heartbeat_ms,
                data_lo,
                data_hi,
                state,
            } => {
                w.u8(TAG_WELCOME);
                w.u32(*slot);
                w.u32(*k);
                w.u8(*topology);
                w.f32(*weight_decay);
                w.u64(*heartbeat_ms);
                w.u64(*data_lo);
                w.u64(*data_hi);
                w.bytes(state);
            }
            Msg::Work {
                iter,
                slot,
                params,
                dims,
                images,
                labels,
            } => write_work(w, *iter, *slot, params, dims, images, labels),
            Msg::WorkIdx {
                iter,
                slot,
                params,
                indices,
            } => write_work_idx(w, *iter, *slot, params, indices),
            Msg::Grad {
                iter,
                slot,
                loss,
                grad,
            } => write_grad(w, *iter, *slot, *loss, grad),
            Msg::GradSet {
                iter,
                losses,
                grads,
            } => {
                w.u8(TAG_GRADSET);
                w.u64(*iter);
                w.f32_slice(losses);
                w.f32_slices(grads);
            }
            Msg::Ping { slot } => {
                w.u8(TAG_PING);
                w.u32(*slot);
            }
            Msg::Ring {
                generation,
                slot,
                k,
                next,
            } => {
                w.u8(TAG_RING);
                w.u64(*generation);
                w.u32(*slot);
                w.u32(*k);
                w.str(next);
            }
            Msg::RingHello { generation, origin } => {
                w.u8(TAG_RINGHELLO);
                w.u64(*generation);
                w.u32(*origin);
            }
            Msg::Block {
                iter,
                origin,
                loss,
                grad,
            } => {
                w.u8(TAG_BLOCK);
                w.u64(*iter);
                w.u32(*origin);
                w.f32(*loss);
                w.f32_slice(grad);
            }
            Msg::Shutdown => {
                w.u8(TAG_SHUTDOWN);
            }
            Msg::Lease { term, priority } => {
                w.u8(TAG_LEASE);
                w.u64(*term);
                w.u32(*priority);
            }
            Msg::State { term, seq, state } => write_state(w, *term, *seq, state),
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    /// [`DecodeError`] on an unknown tag, short payload, or trailing
    /// bytes — a framed-but-wrong message is corruption, not a request.
    pub fn decode(bytes: &[u8]) -> Result<Msg, DecodeError> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            TAG_HELLO => Msg::Hello {
                rejoin: r.u8()? != 0,
                ring_addr: r.str()?,
            },
            TAG_WELCOME => Msg::Welcome {
                slot: r.u32()?,
                k: r.u32()?,
                topology: r.u8()?,
                weight_decay: r.f32()?,
                heartbeat_ms: r.u64()?,
                data_lo: r.u64()?,
                data_hi: r.u64()?,
                state: r.bytes()?,
            },
            TAG_WORK => Msg::Work {
                iter: r.u64()?,
                slot: r.u32()?,
                params: r.f32_vec()?,
                dims: r.u64_vec()?,
                images: r.f32_vec()?,
                labels: r.u64_vec()?,
            },
            TAG_WORKIDX => Msg::WorkIdx {
                iter: r.u64()?,
                slot: r.u32()?,
                params: r.f32_vec()?,
                indices: r.u64_vec()?,
            },
            TAG_GRAD => Msg::Grad {
                iter: r.u64()?,
                slot: r.u32()?,
                loss: r.f32()?,
                grad: r.f32_vec()?,
            },
            TAG_GRADSET => Msg::GradSet {
                iter: r.u64()?,
                losses: r.f32_vec()?,
                grads: r.f32_vecs()?,
            },
            TAG_PING => Msg::Ping { slot: r.u32()? },
            TAG_RING => Msg::Ring {
                generation: r.u64()?,
                slot: r.u32()?,
                k: r.u32()?,
                next: r.str()?,
            },
            TAG_RINGHELLO => Msg::RingHello {
                generation: r.u64()?,
                origin: r.u32()?,
            },
            TAG_BLOCK => Msg::Block {
                iter: r.u64()?,
                origin: r.u32()?,
                loss: r.f32()?,
                grad: r.f32_vec()?,
            },
            TAG_SHUTDOWN => Msg::Shutdown,
            TAG_LEASE => Msg::Lease {
                term: r.u64()?,
                priority: r.u32()?,
            },
            TAG_STATE => Msg::State {
                term: r.u64()?,
                seq: r.u64()?,
                state: r.bytes()?,
            },
            _ => return Err(DecodeError("unknown message tag")),
        };
        if !r.is_empty() {
            return Err(DecodeError("trailing bytes in message"));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Msg) {
        let bytes = msg.encode();
        let back = Msg::decode(&bytes).expect("decodes");
        // Re-encode rather than compare values: bit-exact for any float
        // payload, NaN included.
        assert_eq!(back.encode(), bytes, "{} round-trips", msg.name());
        assert_eq!(
            msg.framed(),
            wire::frame(&bytes),
            "{} frames in place",
            msg.name()
        );
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(&Msg::Hello {
            rejoin: true,
            ring_addr: "127.0.0.1:4791".into(),
        });
        round_trip(&Msg::Welcome {
            slot: 3,
            k: 4,
            topology: 1,
            weight_decay: 1e-4,
            heartbeat_ms: 200,
            data_lo: 120,
            data_hi: 240,
            state: vec![0xCB, 0x00, 0xBF],
        });
        round_trip(&Msg::Work {
            iter: 42,
            slot: 1,
            params: vec![-0.5, f32::MIN_POSITIVE, 3.25],
            dims: vec![2, 3, 1, 5],
            images: vec![0.25; 30],
            labels: vec![0, 3, 1],
        });
        round_trip(&Msg::WorkIdx {
            iter: 43,
            slot: 2,
            params: vec![0.5, -1.25],
            indices: vec![120, 197, 133],
        });
        round_trip(&Msg::Grad {
            iter: 42,
            slot: 1,
            loss: 0.693,
            grad: vec![f32::NAN, -0.0, 1.0],
        });
        round_trip(&Msg::GradSet {
            iter: 7,
            losses: vec![0.1, 0.2],
            grads: vec![vec![1.0; 5], vec![-1.0; 5]],
        });
        round_trip(&Msg::Ping { slot: 9 });
        round_trip(&Msg::Ring {
            generation: 2,
            slot: 0,
            k: 3,
            next: "127.0.0.1:9".into(),
        });
        round_trip(&Msg::RingHello {
            generation: 2,
            origin: 1,
        });
        round_trip(&Msg::Block {
            iter: 7,
            origin: 2,
            loss: 1.5,
            grad: vec![2.0; 4],
        });
        round_trip(&Msg::Shutdown);
        round_trip(&Msg::Lease {
            term: 3,
            priority: 1,
        });
        round_trip(&Msg::State {
            term: 3,
            seq: 512,
            state: vec![0xAB; 9],
        });
    }

    #[test]
    fn truncated_payloads_error_instead_of_panicking() {
        let bytes = Msg::Work {
            iter: 1,
            slot: 0,
            params: vec![1.0; 8],
            dims: vec![2, 4],
            images: vec![0.5; 8],
            labels: vec![1, 0],
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(
                Msg::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn work_messages_encode_into_one_exact_allocation() {
        let work = Msg::Work {
            iter: 3,
            slot: 1,
            params: vec![0.5; 1000],
            dims: vec![2, 3],
            images: vec![0.25; 6],
            labels: vec![1, 0],
        };
        let idx = Msg::WorkIdx {
            iter: 3,
            slot: 1,
            params: vec![0.5; 1000],
            indices: vec![9, 4, 7],
        };
        for msg in [work, idx] {
            let bytes = msg.encode();
            assert_eq!(bytes.capacity(), bytes.len(), "{}", msg.name());
            let framed = msg.framed();
            assert_eq!(framed.capacity(), framed.len(), "{}", msg.name());
        }
    }

    #[test]
    fn an_oversized_u64_list_prefix_is_rejected() {
        // A well-framed Work whose label count claims more entries than
        // the payload holds fails at the prefix, before any allocation.
        let mut w = Writer::new();
        w.u8(TAG_WORK);
        w.u64(1);
        w.u32(0);
        w.f32_slice(&[1.0]);
        w.u64_slice(&[1, 1]);
        w.f32_slice(&[0.5]);
        w.u64(u64::MAX / 2);
        w.u64(0);
        assert_eq!(
            Msg::decode(&w.into_bytes()),
            Err(DecodeError("length prefix exceeds payload"))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Msg::Ping { slot: 1 }.encode();
        bytes.push(0);
        assert_eq!(
            Msg::decode(&bytes),
            Err(DecodeError("trailing bytes in message"))
        );
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(Msg::decode(&[0xEE]).is_err());
    }
}
