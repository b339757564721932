//! Structured, append-only event journal on the simulated clock.
//!
//! Every consequential decision in the cluster — a stream admitted or
//! rejected, a SelectMovie routed or failed over, a referral issued,
//! a rebalance step, a health snapshot — is recorded as a typed
//! [`Event`] carrying the virtual time at which it happened and a
//! tamper-evident hash chain per server: each event's `hash` covers
//! its own canonical encoding *and* the previous hash of the same
//! server's chain, so reordering, dropping, or editing any event
//! breaks verification from that point on.
//!
//! The journal is the single source of truth for operational counters:
//! components emit events instead of bumping ad-hoc fields, and views
//! such as route-decision counts or rebalance statistics are derived
//! with [`Journal::count`] / [`Journal::query`]. Because the journal
//! is stamped from the deterministic [`netsim`] clock, two runs with
//! the same seed produce byte-identical serializations
//! ([`Journal::to_jsonl`]), which is what the replay tests assert.
//!
//! # Adding an event kind
//!
//! One row in the `event_schema!` table below, plus one line in
//! `tests/golden_events.jsonl`. The [`kind`] constant, the
//! [`EventKind`] variant, its canonical encoding, its decoder and its
//! counter slot are all generated from the row; the golden file pins
//! the bytes, and its test fails until the new kind has a line.
//!
//! # Examples
//!
//! ```
//! use journal::{EventKind, Journal};
//! let j = Journal::standalone();
//! j.record("node-1", EventKind::ReferralIssued { target: "node-2".into() });
//! assert_eq!(j.count(journal::kind::REFERRAL_ISSUED), 1);
//! j.verify().expect("chain intact");
//! let copy = journal::events_from_jsonl(&j.to_jsonl()).unwrap();
//! journal::verify_events(&copy).expect("round-trip intact");
//! ```

use netsim::{SimTime, VirtualClock};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Which admission-controlled session class an admit/reject concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionClass {
    /// A playback stream.
    Stream,
    /// A live recording session.
    Recording,
    /// A bulk import reservation.
    Import,
}

impl AdmissionClass {
    /// Canonical lower-case name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            AdmissionClass::Stream => "stream",
            AdmissionClass::Recording => "recording",
            AdmissionClass::Import => "import",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "stream" => Some(AdmissionClass::Stream),
            "recording" => Some(AdmissionClass::Recording),
            "import" => Some(AdmissionClass::Import),
            _ => None,
        }
    }
}

/// The event schema. A row reads
///
/// ```text
/// /// what the event means (the variant's doc)
/// Variant =
///     /// the tag constant's doc
///     CONST "wire_tag" {
///         /// field doc
///         field: Type,
///     },
/// ```
///
/// and everything that has to agree about a kind is generated from it,
/// in row order: the [`kind`] constant and its slot in [`kind::ALL`],
/// the [`EventKind`] variant, the canonical encoding (fields in
/// declaration order, keyed by field name) and the decoder. A field
/// type is anything implementing [`Field`].
macro_rules! event_schema {
    ($(
        $(#[$vdoc:meta])*
        $Variant:ident = $(#[$cdoc:meta])* $CONST:ident $tag:literal
        $({ $( $(#[$fdoc:meta])* $field:ident: $ty:ty ),* $(,)? })?
    ),* $(,)?) => {
        /// Canonical kind tags, usable as [`Journal::count`] keys.
        pub mod kind {
            $( $(#[$cdoc])* pub const $CONST: &str = $tag; )*
            /// Every kind tag, in schema order.
            pub const ALL: &[&str] = &[$($CONST),*];
        }

        /// The typed payload of one journal event.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum EventKind {
            $( $(#[$vdoc])* $Variant $({ $( $(#[$fdoc])* $field: $ty ),* })?, )*
        }

        impl EventKind {
            /// This kind's schema row: its index in [`kind::ALL`] and
            /// in every per-actor count array.
            fn row(&self) -> usize {
                enum Row { $($Variant),* }
                match self {
                    $( EventKind::$Variant { .. } => Row::$Variant as usize, )*
                }
            }

            /// Appends `,"field":value` for each field, in row order.
            fn put_fields(&self, out: &mut String) {
                match self {
                    $( EventKind::$Variant { $($($field),*)? } => {
                        $($( Field::put($field, out, stringify!($field)); )*)?
                    } )*
                }
            }

            /// Decodes the payload object of a `tag` event; the object
            /// must hold `t` and exactly the row's fields.
            fn from_fields(tag: &str, obj: &JsonObj) -> Result<EventKind, ParseError> {
                match tag {
                    $( kind::$CONST => {
                        obj.only(&["t", $($(stringify!($field)),*)?])?;
                        Ok(EventKind::$Variant {
                            $($( $field: Field::take(obj, stringify!($field))? ),*)?
                        })
                    } )*
                    other => Err(ParseError::new(&format!("unknown event tag `{other}`"))),
                }
            }
        }
    };
}

event_schema! {
    /// Admission granted; `available_bps` is the controller's headroom
    /// immediately after the decision.
    StreamAdmit =
        /// A stream/recording/import admitted by the admission controller.
        STREAM_ADMIT "stream_admit" {
            /// Session class admitted.
            class: AdmissionClass,
            /// Session id within its class.
            stream: u32,
            /// Bandwidth the session asked for.
            demanded_bps: u64,
            /// Headroom left after admitting.
            available_bps: u64,
        },
    /// Admission refused; `available_bps` is the headroom at decision
    /// time (what the demand did not fit into).
    StreamReject =
        /// A stream/recording/import rejected by the admission controller.
        STREAM_REJECT "stream_reject" {
            /// Session class refused.
            class: AdmissionClass,
            /// Session id within its class.
            stream: u32,
            /// Bandwidth the session asked for.
            demanded_bps: u64,
            /// Headroom that was available.
            available_bps: u64,
        },
    /// SelectMovie chose a replica to open the stream on.
    RouteDecision =
        /// A SelectMovie request routed to a replica.
        ROUTE_DECISION "route_decision" {
            /// Movie title being routed.
            title: String,
            /// Replica location chosen first.
            target: String,
            /// Number of candidate replicas considered.
            candidates: u32,
        },
    /// A rejected open fell back to the next candidate replica.
    Failover =
        /// A rejected open retried on the next replica.
        FAILOVER "failover" {
            /// Movie title being routed.
            title: String,
            /// Replica that rejected the open.
            from: String,
            /// Replica tried next.
            to: String,
        },
    /// The control balancer referred a client elsewhere.
    ReferralIssued =
        /// A control-association referral handed to a client.
        REFERRAL_ISSUED "referral_issued" {
            /// Server the client was pointed at.
            target: String,
        },
    /// A client connected through a referral.
    ReferralFollowed =
        /// A client followed a referral to another server.
        REFERRAL_FOLLOWED "referral_followed" {
            /// Server the referral named.
            target: String,
        },
    /// A referral could not be followed (bad target, hop limit...).
    ReferralFailed =
        /// A referral the client could not use.
        REFERRAL_FAILED "referral_failed" {
            /// Server the referral named.
            target: String,
        },
    /// The rebalance controller completed one sampling pass.
    RebalanceSample =
        /// One load-sampling pass of the rebalance controller.
        REBALANCE_SAMPLE "rebalance_sample",
    /// A grow copy (hot title, extra replica) started.
    GrowStarted =
        /// A replica-grow copy started.
        GROW_STARTED "grow_started" {
            /// Title being replicated.
            title: String,
            /// Target server of the new replica.
            to: String,
        },
    /// A drain-motivated relocation copy started.
    DrainCopyStarted =
        /// A drain-motivated copy started.
        DRAIN_COPY_STARTED "drain_copy_started" {
            /// Title being relocated.
            title: String,
            /// Target server of the relocated replica.
            to: String,
        },
    /// A replica copy completed and entered the directory.
    CopyCompleted =
        /// A replica copy finished and was published.
        COPY_COMPLETED "copy_completed" {
            /// Title copied.
            title: String,
            /// Server now holding the replica.
            to: String,
        },
    /// A replica copy was aborted.
    CopyAborted =
        /// A replica copy aborted mid-flight.
        COPY_ABORTED "copy_aborted" {
            /// Title whose copy died.
            title: String,
            /// Server the copy targeted.
            to: String,
        },
    /// Admission on the target refused the copy's reservation.
    CopyRejected =
        /// A copy attempt refused by admission on the target.
        COPY_REJECTED "copy_rejected" {
            /// Title whose copy was refused.
            title: String,
            /// Server that refused it.
            to: String,
        },
    /// A cold surplus replica was dropped.
    Shrink =
        /// A cold replica dropped.
        SHRINK "shrink" {
            /// Title shrunk.
            title: String,
            /// Server that lost the replica.
            from: String,
        },
    /// A server began draining.
    DrainStarted =
        /// A server drain began.
        DRAIN_STARTED "drain_started" {
            /// Location being drained.
            location: String,
        },
    /// A server finished draining.
    DrainCompleted =
        /// A server drain finished.
        DRAIN_COMPLETED "drain_completed" {
            /// Location fully drained.
            location: String,
        },
    /// The replica directory entry for a title was republished.
    DirectoryUpdate =
        /// The replica directory was rewritten for a title.
        DIRECTORY_UPDATE "directory_update" {
            /// Title whose entry changed.
            title: String,
        },
    /// Queue depth of one disk at sampling time.
    DiskQueueSample =
        /// A periodic disk-queue depth sample.
        DISK_QUEUE_SAMPLE "disk_queue_sample" {
            /// Disk index within the server's stripe set.
            disk: u32,
            /// Requests waiting plus in service.
            depth: u32,
        },
    /// Cumulative buffer-cache counters at sampling time.
    CacheSummary =
        /// A periodic buffer-cache hit/miss summary.
        CACHE_SUMMARY "cache_summary" {
            /// Block reads served from the cache.
            hits: u64,
            /// Block reads that went to disk.
            misses: u64,
        },
    /// Periodic per-server health snapshot.
    HealthSnapshot =
        /// A periodic per-server health snapshot.
        HEALTH_SNAPSHOT "health_snapshot" {
            /// Open playback streams.
            streams: u32,
            /// Control associations currently connected.
            control_assocs: u32,
            /// Uncommitted disk bandwidth.
            available_bps: u64,
            /// Cache service hit ratio, in permille.
            cache_hit_permille: u32,
            /// Deepest disk queue at snapshot time.
            queue_depth_max: u32,
        },
    /// A viewer joined a sharing group as a merged follower: it rides
    /// the leader's disk stream from cache and charges no admission.
    MergeJoined =
        /// A viewer merged into a sharing group as a cache-fed follower.
        MERGE_JOINED "merge_joined" {
            /// Movie id of the shared title on this server.
            movie: u32,
            /// The group's leader stream.
            leader: u32,
            /// The follower stream that joined.
            follower: u32,
            /// Follower-to-leader gap at join time, in blocks.
            gap_blocks: u64,
        },
    /// A follower outside the merge window began fast-feeding at the
    /// catch-up rate, charging only the delta bandwidth.
    FastFeedStarted =
        /// A follower began fast-feeding to catch up with its leader.
        FAST_FEED_STARTED "fast_feed_started" {
            /// Movie id of the shared title on this server.
            movie: u32,
            /// The group's leader stream.
            leader: u32,
            /// The fast-feeding follower stream.
            follower: u32,
            /// Follower-to-leader gap at start, in blocks.
            gap_blocks: u64,
            /// Extra bandwidth reserved for the catch-up, bits/second.
            delta_bps: u64,
        },
    /// A fast-fed follower closed its gap, released the delta
    /// reservation, and merged into the group.
    FastFeedConverged =
        /// A fast-fed follower converged onto its leader and merged.
        FAST_FEED_CONVERGED "fast_feed_converged" {
            /// Movie id of the shared title on this server.
            movie: u32,
            /// The follower stream that converged.
            follower: u32,
        },
    /// A group's leader left; the nearest follower was promoted and
    /// re-charged one full disk stream.
    LeaderPromoted =
        /// A sharing group's leader left and a follower took over its
        /// disk stream.
        LEADER_PROMOTED "leader_promoted" {
            /// Movie id of the shared title on this server.
            movie: u32,
            /// The departing leader stream.
            from: u32,
            /// The follower promoted to leader.
            to: u32,
            /// Followers remaining in the group after promotion.
            followers: u32,
        },
    /// A follower split out of its group (seek, pause, or speed
    /// change) and was re-admitted on its own.
    GroupSplit =
        /// A follower split out of its sharing group (seek/pause/speed).
        GROUP_SPLIT "group_split" {
            /// Movie id of the shared title on this server.
            movie: u32,
            /// The stream that left the group.
            follower: u32,
        },
    /// A spindle died; reads against it now fail until rebuilt.
    DiskFailed =
        /// A spindle died; its blocks became unreadable.
        DISK_FAILED "disk_failed" {
            /// Index of the dead disk within the server's stripe set.
            disk: u32,
            /// Blocks that were resident on the dead spindle.
            lost_blocks: u64,
        },
    /// Reconstruction of a dead spindle's blocks began, paced at an
    /// admission-charged bandwidth so it competes with viewers.
    RebuildStarted =
        /// A paced, admission-charged rebuild of a dead spindle began.
        REBUILD_STARTED "rebuild_started" {
            /// Index of the dead disk being rebuilt around.
            disk: u32,
            /// Blocks queued for reconstruction.
            blocks: u64,
            /// Bandwidth reserved from admission for the rebuild.
            reserve_bps: u64,
        },
    /// A spindle rebuild finished; the reservation was released.
    RebuildCompleted =
        /// A spindle rebuild finished; all lost blocks are durable again.
        REBUILD_COMPLETED "rebuild_completed" {
            /// Index of the dead disk that was rebuilt around.
            disk: u32,
            /// Blocks reconstructed onto surviving disks.
            blocks: u64,
        },
    /// A server crashed: every stream, recording, and control
    /// association it held died with it.
    ServerCrashed =
        /// A whole server crashed, killing its streams and associations.
        SERVER_CRASHED "server_crashed" {
            /// Location that went down.
            location: String,
        },
    /// A client rebuilt its session on a replica after its serving
    /// server crashed mid-stream.
    StreamFailedOver =
        /// A client's stream failed over to a replica after a crash.
        STREAM_FAILED_OVER "stream_failed_over" {
            /// Title the client was watching.
            title: String,
            /// Crashed location the stream left.
            from: String,
            /// Live replica the stream resumed on.
            to: String,
            /// Frame the client asked to resume from.
            resume_frame: u64,
        },
}

/// Number of event kinds (rows of the schema).
const KINDS: usize = kind::ALL.len();

/// The schema row of a kind tag, if it is one.
fn row_of(tag: &str) -> Option<usize> {
    kind::ALL.iter().position(|t| *t == tag)
}

/// A payload field type and its canonical JSON form — the only codec
/// written by hand; the schema picks the impl by the field's type.
trait Field: Sized {
    /// Appends `,"key":value`.
    fn put(&self, out: &mut String, key: &str);
    /// Reads field `key` of a parsed payload object.
    fn take(obj: &JsonObj, key: &str) -> Result<Self, ParseError>;
}

impl Field for u64 {
    fn put(&self, out: &mut String, key: &str) {
        push_u64_field(out, key, *self);
    }
    fn take(obj: &JsonObj, key: &str) -> Result<Self, ParseError> {
        obj.u64(key)
    }
}

impl Field for u32 {
    fn put(&self, out: &mut String, key: &str) {
        push_u64_field(out, key, u64::from(*self));
    }
    fn take(obj: &JsonObj, key: &str) -> Result<Self, ParseError> {
        u32::try_from(obj.u64(key)?)
            .map_err(|_| ParseError::new(&format!("field `{key}` out of u32 range")))
    }
}

impl Field for String {
    fn put(&self, out: &mut String, key: &str) {
        push_str_field(out, key, self);
    }
    fn take(obj: &JsonObj, key: &str) -> Result<Self, ParseError> {
        obj.str(key).map(str::to_string)
    }
}

impl Field for AdmissionClass {
    fn put(&self, out: &mut String, key: &str) {
        push_str_field(out, key, self.as_str());
    }
    fn take(obj: &JsonObj, key: &str) -> Result<Self, ParseError> {
        AdmissionClass::from_str(obj.str(key)?)
            .ok_or_else(|| ParseError::new("unknown admission class"))
    }
}

impl EventKind {
    /// The canonical tag of this kind (a constant from [`kind`]).
    pub fn tag(&self) -> &'static str {
        kind::ALL[self.row()]
    }

    /// Canonical JSON encoding of the payload; this exact byte string
    /// is what the hash chain covers.
    pub(crate) fn to_json(&self) -> String {
        let mut s = String::from("{\"t\":\"");
        s.push_str(self.tag());
        s.push('"');
        self.put_fields(&mut s);
        s.push('}');
        s
    }
}

/// One journal entry: a decision, its actor, its virtual time, and its
/// position in that actor's hash chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global append order (dense from 0).
    pub seq: u64,
    /// Virtual time the event was recorded at.
    pub sim_time: SimTime,
    /// Acting server (or `client-*` / controller name).
    pub server: String,
    /// Typed payload.
    pub kind: EventKind,
    /// Hash of the previous event on this server's chain (0 for the
    /// first).
    pub prev_hash: u64,
    /// FNV-1a 64 over `prev_hash ∥ seq ∥ sim_time ∥ server ∥ payload`.
    pub hash: u64,
}

impl Event {
    /// Recomputes what this event's `hash` field must be.
    pub(crate) fn compute_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.prev_hash);
        h.write_u64(self.seq);
        h.write_u64(self.sim_time.as_micros());
        h.write(self.server.as_bytes());
        h.write(&[0]);
        h.write(self.kind.to_json().as_bytes());
        h.finish()
    }

    /// Serializes the event as one deterministic JSON line (no
    /// trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = format!("{{\"seq\":{}", self.seq);
        push_u64_field(&mut s, "us", self.sim_time.as_micros());
        push_str_field(&mut s, "server", &self.server);
        let (prev, hash, kind) = (self.prev_hash, self.hash, self.kind.to_json());
        s + &format!(",\"prev\":\"{prev:016x}\",\"hash\":\"{hash:016x}\",\"kind\":{kind}}}")
    }

    /// Parses one line produced by [`Event::to_json_line`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed JSON or unknown fields.
    pub fn from_json_line(line: &str) -> Result<Event, ParseError> {
        let obj = parse_object(line)?;
        obj.only(&["seq", "us", "server", "prev", "hash", "kind"])?;
        let kind_obj = obj.obj("kind")?;
        let tag = kind_obj.str("t")?;
        Ok(Event {
            seq: obj.u64("seq")?,
            sim_time: SimTime::from_micros(obj.u64("us")?),
            server: obj.str("server")?.to_string(),
            kind: EventKind::from_fields(tag, kind_obj)?,
            prev_hash: parse_hex16(obj.str("prev")?)?,
            hash: parse_hex16(obj.str("hash")?)?,
        })
    }
}

/// Where a chain verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainError {
    /// Sequence number of the offending event.
    pub seq: u64,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "journal chain broken at seq {}: {}",
            self.seq, self.reason
        )
    }
}

impl std::error::Error for ChainError {}

/// A malformed serialized journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable reason.
    pub reason: String,
}

impl ParseError {
    fn new(reason: &str) -> Self {
        ParseError {
            reason: reason.to_string(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal parse error: {}", self.reason)
    }
}

impl std::error::Error for ParseError {}

/// First divergence between a recorded journal and a replayed one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// Zero-based line where the serializations diverge.
    pub line: usize,
    /// The recorded line (empty when the recording is shorter).
    pub recorded: String,
    /// The replayed line (empty when the replay is shorter).
    pub replayed: String,
}

impl fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay diverged at line {}: recorded `{}` vs replayed `{}`",
            self.line, self.recorded, self.replayed
        )
    }
}

impl std::error::Error for ReplayMismatch {}

/// What the journal keeps per actor: the tail of its hash chain and
/// how many events of each kind it has recorded, by schema row.
struct Actor {
    tail: u64,
    counts: [u64; KINDS],
}

#[derive(Default)]
struct JournalInner {
    events: Vec<Event>,
    actors: HashMap<String, Actor>,
}

/// The append-only event journal.
///
/// Shared (`Arc`) between every emitting component of a simulation;
/// appends are serialized under an internal lock and assigned a dense
/// global sequence. Count queries never walk the events: counters are
/// maintained per actor on append.
pub struct Journal {
    /// `record` stamps from this clock: the simulation's shared one,
    /// or a private one advanced via [`Journal::observe_time`].
    clock: Arc<VirtualClock>,
    /// True for a private clock, the only kind `observe_time` moves.
    owns_clock: bool,
    inner: Mutex<JournalInner>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Journal")
            .field("events", &inner.events.len())
            .finish()
    }
}

impl Journal {
    /// Creates a journal stamping events from `clock` (normally the
    /// simulation's `Network::clock()`).
    pub fn new(clock: Arc<VirtualClock>) -> Self {
        Journal {
            clock,
            owns_clock: false,
            inner: Mutex::new(JournalInner::default()),
        }
    }

    /// Creates a journal with a private clock, advanced through
    /// [`Journal::observe_time`]. Useful for components driven with
    /// explicit `now` arguments outside a full simulation.
    pub fn standalone() -> Self {
        Journal {
            clock: Arc::new(VirtualClock::new()),
            owns_clock: true,
            inner: Mutex::new(JournalInner::default()),
        }
    }

    /// Advances a standalone journal's private clock to `now`; no-op
    /// for journals sharing the simulation clock.
    pub fn observe_time(&self, now: SimTime) {
        if self.owns_clock {
            self.clock.advance_to(now);
        }
    }

    /// Appends an event for `server`, stamped at the clock's current
    /// instant, and returns its sequence number.
    pub fn record(&self, server: &str, kind: EventKind) -> u64 {
        let now = self.clock.now();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let seq = inner.events.len() as u64;
        if !inner.actors.contains_key(server) {
            let first = Actor {
                tail: 0,
                counts: [0; KINDS],
            };
            inner.actors.insert(server.to_string(), first);
        }
        let actor = inner.actors.get_mut(server).expect("inserted above");
        let mut ev = Event {
            seq,
            sim_time: now,
            server: server.to_string(),
            kind,
            prev_hash: actor.tail,
            hash: 0,
        };
        ev.hash = ev.compute_hash();
        actor.tail = ev.hash;
        actor.counts[ev.kind.row()] += 1;
        inner.events.push(ev);
        seq
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events of kind `tag` (a [`kind`] constant), across all
    /// actors.
    pub fn count(&self, tag: &str) -> u64 {
        let Some(row) = row_of(tag) else { return 0 };
        let inner = self.inner.lock();
        inner.actors.values().map(|a| a.counts[row]).sum()
    }

    /// Events of kind `tag` recorded by `server`.
    pub fn count_for(&self, server: &str, tag: &str) -> u64 {
        let Some(row) = row_of(tag) else { return 0 };
        let inner = self.inner.lock();
        inner.actors.get(server).map_or(0, |a| a.counts[row])
    }

    /// A snapshot of all events in append order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().events.clone()
    }

    /// Serializes the whole journal as JSON Lines (one event per
    /// line, trailing newline after each). Deterministic: equal
    /// journals serialize to equal bytes.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        for ev in &inner.events {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Verifies every per-server hash chain and the global sequence.
    ///
    /// # Errors
    ///
    /// Returns the first [`ChainError`] found.
    pub fn verify(&self) -> Result<(), ChainError> {
        verify_events(&self.inner.lock().events)
    }

    /// Takes a consistent snapshot for richer, derived views.
    pub fn query(&self) -> JournalQuery {
        JournalQuery {
            events: self.events(),
        }
    }
}

/// A point-in-time snapshot of a journal with derived views; built by
/// [`Journal::query`]. The benches use this to explain their numbers.
#[derive(Debug, Clone)]
pub struct JournalQuery {
    events: Vec<Event>,
}

impl JournalQuery {
    /// Count of every kind present, keyed by tag, sorted by tag.
    pub fn kind_totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for e in &self.events {
            *totals.entry(e.kind.tag()).or_insert(0) += 1;
        }
        totals
    }

    /// The latest [`EventKind::HealthSnapshot`] per actor, sorted by
    /// actor.
    pub fn latest_health(&self) -> Vec<(&str, &EventKind)> {
        let mut latest: BTreeMap<&str, &EventKind> = BTreeMap::new();
        for e in &self.events {
            if matches!(e.kind, EventKind::HealthSnapshot { .. }) {
                latest.insert(&e.server, &e.kind);
            }
        }
        latest.into_iter().collect()
    }
}

/// Verifies the per-server hash chains and dense global sequence of an
/// event slice (as produced by [`Journal::events`] or
/// [`events_from_jsonl`]).
///
/// # Errors
///
/// Returns the first [`ChainError`] found: a gap in `seq`, a
/// `prev_hash` that does not match the actor's chain tail, or a `hash`
/// that does not recompute.
pub fn verify_events(events: &[Event]) -> Result<(), ChainError> {
    let mut tails: HashMap<&str, u64> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        if ev.seq != i as u64 {
            return Err(ChainError {
                seq: ev.seq,
                reason: format!("sequence gap: expected {i}"),
            });
        }
        let expected_prev = tails.get(ev.server.as_str()).copied().unwrap_or(0);
        if ev.prev_hash != expected_prev {
            return Err(ChainError {
                seq: ev.seq,
                reason: format!(
                    "prev_hash {:016x} does not match chain tail {:016x} of `{}`",
                    ev.prev_hash, expected_prev, ev.server
                ),
            });
        }
        let recomputed = ev.compute_hash();
        if ev.hash != recomputed {
            return Err(ChainError {
                seq: ev.seq,
                reason: format!(
                    "hash {:016x} does not recompute ({recomputed:016x})",
                    ev.hash
                ),
            });
        }
        tails.insert(ev.server.as_str(), ev.hash);
    }
    Ok(())
}

/// Parses a JSON Lines journal back into events (blank lines are
/// skipped).
///
/// # Errors
///
/// Returns a [`ParseError`] naming the first malformed line.
pub fn events_from_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = Event::from_json_line(line)
            .map_err(|e| ParseError::new(&format!("line {}: {}", i + 1, e.reason)))?;
        events.push(ev);
    }
    Ok(events)
}

/// Compares a recorded JSONL journal against a freshly replayed
/// journal, byte for byte.
///
/// # Errors
///
/// Returns the first diverging line as a [`ReplayMismatch`].
pub fn replay_check(recorded: &str, replayed: &Journal) -> Result<(), ReplayMismatch> {
    let fresh = replayed.to_jsonl();
    let mut rec_lines = recorded.lines();
    let mut rep_lines = fresh.lines();
    let mut i = 0;
    loop {
        match (rec_lines.next(), rep_lines.next()) {
            (None, None) => return Ok(()),
            (a, b) => {
                let a = a.unwrap_or("");
                let b = b.unwrap_or("");
                if a != b {
                    return Err(ReplayMismatch {
                        line: i,
                        recorded: a.to_string(),
                        replayed: b.to_string(),
                    });
                }
            }
        }
        i += 1;
    }
}

// --- FNV-1a 64-bit -------------------------------------------------

/// Incremental FNV-1a 64-bit hasher (the chain hash; chosen because
/// the workspace is offline and vendors no cryptographic digest —
/// tamper-evident within the simulation, not cryptographically so).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// --- minimal deterministic JSON ------------------------------------

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_str_field(out: &mut String, key: &str, val: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":\"");
    push_escaped(out, val);
    out.push('"');
}

fn push_u64_field(out: &mut String, key: &str, val: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&val.to_string());
}

/// Reads exactly `digits.len()` lower-case hex digits, the only form
/// the writer emits (`from_str_radix` would also take a sign, upper
/// case and any length).
fn parse_hex(digits: &[u8]) -> Option<u64> {
    digits.iter().try_fold(0, |acc, &b| match b {
        b'0'..=b'9' => Some(acc << 4 | u64::from(b - b'0')),
        b'a'..=b'f' => Some(acc << 4 | u64::from(b - b'a' + 10)),
        _ => None,
    })
}

fn parse_hex16(s: &str) -> Result<u64, ParseError> {
    match s.len() {
        16 => parse_hex(s.as_bytes()),
        _ => None,
    }
    .ok_or_else(|| ParseError::new("bad hex hash"))
}

#[derive(Debug)]
enum JsonVal {
    Num(u64),
    Str(String),
    Obj(JsonObj),
}

#[derive(Debug)]
struct JsonObj {
    fields: Vec<(String, JsonVal)>,
}

impl JsonObj {
    /// Rejects a field not named in `known` or named twice. Stops at
    /// the first offender, so it looks back over at most `known.len()`
    /// fields however long a hostile object is.
    fn only(&self, known: &[&str]) -> Result<(), ParseError> {
        for (i, (k, _)) in self.fields.iter().enumerate() {
            if !known.contains(&k.as_str()) {
                return Err(ParseError::new(&format!("unknown field `{k}`")));
            }
            if self.fields[..i].iter().any(|(seen, _)| seen == k) {
                return Err(ParseError::new(&format!("duplicate field `{k}`")));
            }
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Result<&JsonVal, ParseError> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| ParseError::new(&format!("missing field `{key}`")))
    }

    fn u64(&self, key: &str) -> Result<u64, ParseError> {
        match self.get(key)? {
            JsonVal::Num(n) => Ok(*n),
            _ => Err(ParseError::new(&format!("field `{key}` is not a number"))),
        }
    }

    fn str(&self, key: &str) -> Result<&str, ParseError> {
        match self.get(key)? {
            JsonVal::Str(s) => Ok(s),
            _ => Err(ParseError::new(&format!("field `{key}` is not a string"))),
        }
    }

    fn obj(&self, key: &str) -> Result<&JsonObj, ParseError> {
        match self.get(key)? {
            JsonVal::Obj(o) => Ok(o),
            _ => Err(ParseError::new(&format!("field `{key}` is not an object"))),
        }
    }
}

/// Object nesting of an event line: the event, holding its `kind`.
const MAX_DEPTH: usize = 2;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos < self.bytes.len() && self.bytes[self.pos] == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError::new(&format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(ParseError::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(ParseError::new("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let code = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(parse_hex)
                                .and_then(|code| char::from_u32(code as u32))
                                .ok_or_else(|| ParseError::new("bad \\u escape"))?;
                            out.push(code);
                            self.pos += 4;
                        }
                        _ => return Err(ParseError::new("unknown escape")),
                    }
                }
                b => {
                    // Re-sync to char boundaries for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| ParseError::new("truncated UTF-8"))?;
                    let s = std::str::from_utf8(chunk).map_err(|_| ParseError::new("bad UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(ParseError::new("expected number"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ParseError::new("bad number"))
    }

    /// Parses a value `depth` objects deep. Input is untrusted and
    /// objects recurse, so nesting stops where an event line's does.
    fn parse_value(&mut self, depth: usize) -> Result<JsonVal, ParseError> {
        match self.peek() {
            Some(b'"') => Ok(JsonVal::Str(self.parse_string()?)),
            Some(b'{') if depth < MAX_DEPTH => Ok(JsonVal::Obj(self.parse_obj(depth + 1)?)),
            Some(b'{') => Err(ParseError::new("objects nested too deep")),
            Some(b) if b.is_ascii_digit() => Ok(JsonVal::Num(self.parse_number()?)),
            _ => Err(ParseError::new("unexpected value")),
        }
    }

    fn parse_obj(&mut self, depth: usize) -> Result<JsonObj, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonObj { fields });
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let val = self.parse_value(depth)?;
            fields.push((key, val));
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonObj { fields });
                }
                _ => return Err(ParseError::new("expected `,` or `}`")),
            }
        }
    }
}

fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_object(line: &str) -> Result<JsonObj, ParseError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let obj = p.parse_obj(1)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(ParseError::new("trailing garbage after object"));
    }
    Ok(obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    /// One event of every kind, as the pinned wire format has them.
    const GOLDEN: &str = include_str!("../tests/golden_events.jsonl");

    /// The golden events recorded afresh: same actors, instants and
    /// payloads through the live append path.
    fn sample_journal() -> Journal {
        let j = Journal::standalone();
        for e in events_from_jsonl(GOLDEN).unwrap() {
            j.observe_time(e.sim_time);
            j.record(&e.server, e.kind);
        }
        j
    }

    #[test]
    fn chains_and_counts() {
        let j = sample_journal();
        assert_eq!(j.len(), KINDS);
        j.verify().unwrap();
        for tag in kind::ALL {
            assert_eq!(j.count(tag), 1, "{tag}");
        }
        assert_eq!(j.count_for("node-1", kind::ROUTE_DECISION), 1);
        assert_eq!(j.count_for("rebalance", kind::ROUTE_DECISION), 0);
        assert_eq!(j.count_for("nobody", kind::STREAM_ADMIT), 0);
        assert_eq!(j.count("not_a_kind"), 0);
        let q = j.query();
        assert_eq!(q.events, j.events());
        assert_eq!(q.kind_totals()[kind::GROW_STARTED], 1);
        assert_eq!(q.latest_health().len(), 1);
    }

    #[test]
    fn jsonl_round_trips_byte_identically() {
        let j = sample_journal();
        let text = j.to_jsonl();
        assert_eq!(text, GOLDEN, "the append path chains as the golden does");
        let events = events_from_jsonl(&text).unwrap();
        assert_eq!(events, j.events());
        verify_events(&events).unwrap();
        let again: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        assert_eq!(text, again);
    }

    #[test]
    fn tampering_breaks_the_chain() {
        let j = sample_journal();
        let mut events = j.events();
        // Flip a payload field without touching the stored hash.
        if let EventKind::StreamAdmit { demanded_bps, .. } = &mut events[0].kind {
            *demanded_bps += 1;
        } else {
            panic!("expected admit first");
        }
        let err = verify_events(&events).unwrap_err();
        assert_eq!(err.seq, 0);

        // Drop an event: the dense sequence catches it.
        let mut dropped = j.events();
        dropped.remove(1);
        assert!(verify_events(&dropped).is_err());

        // Reorder two events of the same server: prev_hash catches it.
        let mut swapped = j.events();
        swapped.swap(0, 1);
        assert!(verify_events(&swapped).is_err());
    }

    #[test]
    fn replay_check_reports_divergence() {
        let j = sample_journal();
        let recorded = j.to_jsonl();
        replay_check(&recorded, &j).unwrap();
        let other = Journal::standalone();
        other.record("node-1", EventKind::RebalanceSample);
        let err = replay_check(&recorded, &other).unwrap_err();
        assert_eq!(err.line, 0);
    }

    #[test]
    fn shared_clock_stamps_records() {
        let clock = Arc::new(VirtualClock::new());
        let j = Journal::new(clock.clone());
        clock.advance_to(SimTime::from_secs(3));
        let seq = j.record("node-1", EventKind::RebalanceSample);
        assert_eq!(seq, 0);
        assert_eq!(j.events()[0].sim_time, SimTime::from_secs(3));
        // observe_time must not rewind or affect a shared clock.
        j.observe_time(SimTime::from_secs(1));
        assert_eq!(clock.now(), SimTime::from_secs(3));
    }

    #[test]
    fn a_private_clock_never_runs_backwards() {
        let j = Journal::standalone();
        j.observe_time(SimTime::from_secs(5));
        j.observe_time(SimTime::from_secs(2));
        j.record("node-1", EventKind::RebalanceSample);
        assert_eq!(j.events()[0].sim_time, SimTime::from_secs(5));
    }

    #[test]
    fn a_journal_on_the_network_clock_stamps_network_time() {
        // How `World` builds its journal: no `observe_time` needed.
        let net = netsim::Network::new(0);
        let j = Journal::new(net.clock());
        net.run_until(SimTime::from_millis(7));
        j.record("node-1", EventKind::RebalanceSample);
        assert_eq!(j.events()[0].sim_time, SimTime::from_millis(7));
    }

    #[test]
    fn escaped_strings_round_trip() {
        let j = Journal::standalone();
        j.record(
            "node \"q\"\\",
            EventKind::DirectoryUpdate {
                title: "movie\nwith\tctrl".into(),
            },
        );
        let events = events_from_jsonl(&j.to_jsonl()).unwrap();
        assert_eq!(events, j.events());
        verify_events(&events).unwrap();
    }
}
