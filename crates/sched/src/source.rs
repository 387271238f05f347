//! Delta event sources: where continuous base-view changes come from.
//!
//! A [`DeltaSource`] yields timestamped single-row change events against
//! base views. The scheduler drains arrival-tick ranges, so a source is a
//! *timeline*, not a queue: draining the same range twice returns the same
//! events, which is what lets a crashed run resume deterministically — the
//! resumed scheduler re-drains from the tick the crashed window had already
//! consumed through.
//!
//! Three implementations:
//!
//! * [`SeededSource`] — a deterministic generator. The **entire** timeline
//!   is a pure function of the seed, fixed at construction, independent of
//!   how the scheduler later windows it: the property the differential
//!   one-shot-equivalence test and the policy benchmarks rely on.
//! * [`ReplaySource`] — a line-per-event text format (CDC-style capture
//!   files), round-tripping through [`events_to_string`].
//! * [`QueueSource`] — a shared in-process queue fed by the serve `INGEST`
//!   verb (or any producer thread).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use uww_core::Warehouse;
use uww_relational::{value_from_wire, value_to_wire, Schema, Tuple, Value, ValueType};
use uww_vdag::SplitMix64;

/// One base-view change: `count` signed copies of `row` arriving at `at`.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaEvent {
    /// Arrival tick (virtual time).
    pub at: u64,
    /// The base view the change applies to.
    pub view: String,
    /// The changed row.
    pub row: Tuple,
    /// Signed multiplicity: positive inserts, negative deletes.
    pub count: i64,
}

/// A timeline of base-view change events, drained in arrival order.
pub trait DeltaSource {
    /// Events with arrival tick in `(from, to]`, in deterministic order.
    /// Draining a range must be idempotent for replayable sources (the
    /// seeded and file sources); the live queue source consumes instead.
    fn drain(&mut self, from: u64, to: u64) -> Vec<DeltaEvent>;

    /// True when no event with arrival tick `> tick` will ever appear.
    fn exhausted_after(&self, tick: u64) -> bool;
}

/// Configuration for [`SeededSource`].
#[derive(Clone, Copy, Debug)]
pub struct SeededSourceConfig {
    /// RNG seed; the whole timeline is a pure function of this.
    pub seed: u64,
    /// Mean arrival rate in milli-events per tick (1000 = one event/tick).
    pub rate_milli: u64,
    /// Probability (in 1/1000) that an event deletes a previously inserted
    /// row instead of inserting a fresh one.
    pub delete_milli: u64,
    /// Last tick events are generated for.
    pub horizon: u64,
}

impl Default for SeededSourceConfig {
    fn default() -> Self {
        SeededSourceConfig {
            seed: 0x5757_1999,
            rate_milli: 2000,
            delete_milli: 250,
            horizon: 200,
        }
    }
}

/// A deterministic, schema-conforming event generator over the base views
/// of a warehouse. Inserted rows carry a unique counter in their first
/// column (injective per view), and deletions only ever reference rows the
/// source itself inserted earlier — so any prefix of the timeline leaves
/// every base table in a state reachable from the seed alone.
pub struct SeededSource {
    events: Vec<DeltaEvent>,
}

impl SeededSource {
    /// Pre-generates the full timeline for the warehouse's base views.
    pub fn new(w: &Warehouse, cfg: SeededSourceConfig) -> SeededSource {
        let g = w.vdag();
        let mut bases: Vec<(String, Schema)> = Vec::new();
        for id in g.base_views() {
            let name = g.name(id).to_string();
            if let Ok(t) = w.table(&name) {
                bases.push((name, t.schema().clone()));
            }
        }
        bases.sort_by(|a, b| a.0.cmp(&b.0));
        let mut rng = SplitMix64::new(cfg.seed);
        let mut events = Vec::new();
        let mut live: HashMap<usize, Vec<Tuple>> = HashMap::new();
        let mut counter: u64 = 0;
        let mut acc: u64 = 0;
        for tick in 1..=cfg.horizon {
            // Deterministic bounded jitter around the mean rate.
            let jitter = rng.next_u64() % (cfg.rate_milli + 1);
            acc += cfg.rate_milli / 2 + jitter;
            let n = acc / 1000;
            acc %= 1000;
            for _ in 0..n {
                if bases.is_empty() {
                    break;
                }
                let b = (rng.next_u64() as usize) % bases.len();
                let (view, schema) = &bases[b];
                let deletable = live.get(&b).map_or(0, |v| v.len());
                let delete = deletable > 0 && rng.next_u64() % 1000 < cfg.delete_milli;
                if delete {
                    let rows = live.get_mut(&b).expect("deletable > 0");
                    let i = (rng.next_u64() as usize) % rows.len();
                    let row = rows.swap_remove(i);
                    events.push(DeltaEvent {
                        at: tick,
                        view: view.clone(),
                        row,
                        count: -1,
                    });
                } else {
                    counter += 1;
                    let row = synthesize_row(schema, counter, &mut rng);
                    live.entry(b).or_default().push(row.clone());
                    events.push(DeltaEvent {
                        at: tick,
                        view: view.clone(),
                        row,
                        count: 1,
                    });
                }
            }
        }
        SeededSource { events }
    }

    /// Total events on the timeline.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the timeline carries no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The full timeline, for serialization via [`events_to_string`].
    pub fn events(&self) -> &[DeltaEvent] {
        &self.events
    }
}

/// Builds a schema-conforming row. The first column is injective in
/// `counter` (unique per source), the rest are flavored derivations.
fn synthesize_row(schema: &Schema, counter: u64, rng: &mut SplitMix64) -> Tuple {
    // Keep synthetic keys clear of any seed data's id range.
    let key = 1_000_000_000 + counter as i64;
    let values: Vec<Value> = schema
        .columns()
        .iter()
        .enumerate()
        .map(|(i, col)| {
            if i == 0 {
                return match col.ty {
                    ValueType::Int => Value::Int(key),
                    ValueType::Decimal => Value::Decimal(key),
                    ValueType::Str => Value::str(format!("ing#{counter}")),
                    ValueType::Date => Value::Date((9000 + counter % 100_000) as i32),
                };
            }
            let r = rng.next_u64();
            match col.ty {
                ValueType::Int => Value::Int((r % 10_000) as i64),
                ValueType::Decimal => Value::Decimal(((r % 99_999) as i64) + 1),
                ValueType::Str => Value::str(format!("v{}", r % 1000)),
                ValueType::Date => Value::Date(8000 + (r % 3650) as i32),
            }
        })
        .collect();
    Tuple::new(values)
}

impl DeltaSource for SeededSource {
    fn drain(&mut self, from: u64, to: u64) -> Vec<DeltaEvent> {
        self.events
            .iter()
            .filter(|e| e.at > from && e.at <= to)
            .cloned()
            .collect()
    }

    fn exhausted_after(&self, tick: u64) -> bool {
        self.events.last().is_none_or(|e| e.at <= tick)
    }
}

/// Serializes events to the replay file format: one tab-separated line per
/// event, `at <TAB> view <TAB> count <TAB> value...`, values in the
/// snapshot wire form (`i:`/`d:`/`t:`/`s:` tagged, escapes included).
pub fn events_to_string(events: &[DeltaEvent]) -> String {
    let mut out = String::from("# uww ingest v1\n");
    for e in events {
        out.push_str(&format!("{}\t{}\t{}", e.at, e.view, e.count));
        for v in e.row.values() {
            out.push('\t');
            out.push_str(&value_to_wire(v));
        }
        out.push('\n');
    }
    out
}

/// Parses the replay file format written by [`events_to_string`].
pub fn events_from_str(s: &str) -> Result<Vec<DeltaEvent>, String> {
    let mut lines = s.lines();
    match lines.next() {
        Some("# uww ingest v1") => {}
        other => return Err(format!("bad ingest header: {other:?}")),
    }
    let mut out = Vec::new();
    let mut last_at = 0u64;
    for (n, line) in lines.enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('\t');
        let bad = |what: &str| format!("line {}: {what}: {line}", n + 2);
        let at: u64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad("bad tick"))?;
        if at < last_at {
            return Err(bad("events out of arrival order"));
        }
        last_at = at;
        let view = fields.next().ok_or_else(|| bad("missing view"))?;
        let count: i64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .filter(|c| *c != 0)
            .ok_or_else(|| bad("bad count"))?;
        let values: Vec<Value> = fields
            .map(|f| value_from_wire(f).map_err(|e| bad(&e.to_string())))
            .collect::<Result<_, _>>()?;
        out.push(DeltaEvent {
            at,
            view: view.to_string(),
            row: Tuple::new(values),
            count,
        });
    }
    Ok(out)
}

/// A replayable file/text source: a fixed event list parsed up front.
#[derive(Clone)]
pub struct ReplaySource {
    events: Vec<DeltaEvent>,
}

impl ReplaySource {
    /// Parses a capture in the [`events_to_string`] format.
    pub fn parse(s: &str) -> Result<ReplaySource, String> {
        Ok(ReplaySource {
            events: events_from_str(s)?,
        })
    }
}

impl DeltaSource for ReplaySource {
    fn drain(&mut self, from: u64, to: u64) -> Vec<DeltaEvent> {
        self.events
            .iter()
            .filter(|e| e.at > from && e.at <= to)
            .cloned()
            .collect()
    }

    fn exhausted_after(&self, tick: u64) -> bool {
        self.events.last().is_none_or(|e| e.at <= tick)
    }
}

/// Producer handle for a [`QueueSource`]: clone it into whatever thread
/// accepts changes (the serve `INGEST` handler) and push events.
///
/// The queue is **bounded**: an unbounded buffer between a fast producer
/// and the windowed consumer just converts overload into unbounded memory
/// and unbounded staleness. Once `capacity` events are waiting, [`push`]
/// rejects with an error the serve layer surfaces as a wire `ERR` — the
/// client sees backpressure immediately instead of silent queue growth.
///
/// [`push`]: IngestQueue::push
#[derive(Clone)]
pub struct IngestQueue {
    q: Arc<Mutex<Vec<DeltaEvent>>>,
    capacity: usize,
}

/// Default [`IngestQueue`] capacity: far above any window batch the
/// scheduler drains, small enough to bound a runaway producer.
pub const DEFAULT_QUEUE_CAPACITY: usize = 65_536;

impl Default for IngestQueue {
    fn default() -> Self {
        IngestQueue::with_capacity(DEFAULT_QUEUE_CAPACITY)
    }
}

impl IngestQueue {
    /// A fresh empty queue at the default capacity.
    pub fn new() -> IngestQueue {
        IngestQueue::default()
    }

    /// A fresh empty queue holding at most `capacity` events (floored at 1).
    pub fn with_capacity(capacity: usize) -> IngestQueue {
        IngestQueue {
            q: Arc::new(Mutex::new(Vec::new())),
            capacity: capacity.max(1),
        }
    }

    /// The maximum number of waiting events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues one event. `at = 0` means "stamp with the drain tick" —
    /// producers outside the scheduler's virtual clock (the wire protocol)
    /// can't know the current tick. A full queue rejects the event; the
    /// producer should retry after the scheduler drains a window.
    pub fn push(&self, event: DeltaEvent) -> Result<(), String> {
        let mut held = self.q.lock().expect("ingest queue poisoned");
        if held.len() >= self.capacity {
            return Err(format!("ingest queue full (capacity {})", self.capacity));
        }
        held.push(event);
        Ok(())
    }

    /// Events currently waiting.
    pub fn depth(&self) -> usize {
        self.q.lock().expect("ingest queue poisoned").len()
    }

    /// The draining end of this queue.
    pub fn source(&self) -> QueueSource {
        QueueSource { q: self.clone() }
    }
}

/// Live in-process source backed by an [`IngestQueue`]. Unlike the replay
/// sources this *consumes*: drained events are gone. Events with a zero or
/// stale arrival tick are stamped with the start of the drained range, so
/// staleness accounting never goes negative.
pub struct QueueSource {
    q: IngestQueue,
}

impl DeltaSource for QueueSource {
    fn drain(&mut self, from: u64, to: u64) -> Vec<DeltaEvent> {
        let mut held = self.q.q.lock().expect("ingest queue poisoned");
        let mut out = Vec::new();
        let mut keep = Vec::new();
        for mut e in held.drain(..) {
            if e.at <= to {
                e.at = e.at.clamp(from + 1, to);
                out.push(e);
            } else {
                keep.push(e);
            }
        }
        *held = keep;
        out
    }

    fn exhausted_after(&self, _tick: u64) -> bool {
        self.q.depth() == 0
    }
}

/// Two sources blended into one timeline: each drain takes from both, in
/// order (`a`'s events first). The continuous-serve harness uses this to
/// run a seeded background workload while live `INGEST` rows from the wire
/// join the same windows.
pub struct ChainSource<A, B>(pub A, pub B);

impl<A: DeltaSource, B: DeltaSource> DeltaSource for ChainSource<A, B> {
    fn drain(&mut self, from: u64, to: u64) -> Vec<DeltaEvent> {
        let mut out = self.0.drain(from, to);
        out.extend(self.1.drain(from, to));
        out
    }

    fn exhausted_after(&self, tick: u64) -> bool {
        self.0.exhausted_after(tick) && self.1.exhausted_after(tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_warehouse() -> Warehouse {
        use uww_relational::{Table, ValueType};
        let mut a = Table::new(
            "A",
            Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)]),
        );
        for i in 0..5 {
            a.insert(Tuple::new(vec![Value::Int(i), Value::Int(i * 10)]))
                .unwrap();
        }
        let b = Table::new(
            "B",
            Schema::of(&[("k", ValueType::Str), ("d", ValueType::Date)]),
        );
        Warehouse::builder()
            .base_table(a)
            .base_table(b)
            .build()
            .unwrap()
    }

    #[test]
    fn seeded_timeline_is_a_pure_function_of_the_seed() {
        let w = tiny_warehouse();
        let cfg = SeededSourceConfig {
            seed: 7,
            rate_milli: 1500,
            delete_milli: 300,
            horizon: 50,
        };
        let a = SeededSource::new(&w, cfg);
        let b = SeededSource::new(&w, cfg);
        assert_eq!(a.events(), b.events());
        assert!(!a.is_empty());
        let c = SeededSource::new(&w, SeededSourceConfig { seed: 8, ..cfg });
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn drain_is_idempotent_and_windowing_invariant() {
        let w = tiny_warehouse();
        let mut s = SeededSource::new(&w, SeededSourceConfig::default());
        let all = s.drain(0, 200);
        let again = s.drain(0, 200);
        assert_eq!(all, again);
        // Any partition of the tick range yields the same events.
        let mut pieces = Vec::new();
        for start in (0..200).step_by(7) {
            pieces.extend(s.drain(start, (start + 7).min(200)));
        }
        assert_eq!(all, pieces);
        assert!(s.exhausted_after(200));
        assert!(!s.exhausted_after(0));
    }

    #[test]
    fn deletes_only_reference_prior_inserts() {
        let w = tiny_warehouse();
        let cfg = SeededSourceConfig {
            seed: 3,
            rate_milli: 3000,
            delete_milli: 500,
            horizon: 80,
        };
        let s = SeededSource::new(&w, cfg);
        let mut live: Vec<(&str, &Tuple)> = Vec::new();
        let mut saw_delete = false;
        for e in s.events() {
            if e.count > 0 {
                live.push((&e.view, &e.row));
            } else {
                saw_delete = true;
                let pos = live
                    .iter()
                    .position(|(v, r)| *v == e.view && *r == &e.row)
                    .expect("delete of a row never inserted");
                live.remove(pos);
            }
        }
        assert!(saw_delete, "seed never exercised the delete path");
    }

    #[test]
    fn replay_format_round_trips() {
        let w = tiny_warehouse();
        let s = SeededSource::new(
            &w,
            SeededSourceConfig {
                horizon: 30,
                ..SeededSourceConfig::default()
            },
        );
        let text = events_to_string(s.events());
        let back = events_from_str(&text).unwrap();
        assert_eq!(s.events(), &back[..]);
        let mut rs = ReplaySource::parse(&text).unwrap();
        let mut ss = SeededSource::new(
            &w,
            SeededSourceConfig {
                horizon: 30,
                ..SeededSourceConfig::default()
            },
        );
        assert_eq!(rs.drain(0, 30), ss.drain(0, 30));
        assert!(events_from_str("junk").is_err());
        assert!(events_from_str("# uww ingest v1\n5\tA\t0\ti:1").is_err());
        assert!(events_from_str("# uww ingest v1\n5\tA\t1\ti:1\n3\tA\t1\ti:2").is_err());
    }

    #[test]
    fn queue_source_consumes_and_stamps_ticks() {
        let q = IngestQueue::new();
        q.push(DeltaEvent {
            at: 0,
            view: "A".into(),
            row: Tuple::new(vec![Value::Int(1), Value::Int(2)]),
            count: 1,
        })
        .unwrap();
        q.push(DeltaEvent {
            at: 99,
            view: "A".into(),
            row: Tuple::new(vec![Value::Int(2), Value::Int(3)]),
            count: -1,
        })
        .unwrap();
        assert_eq!(q.depth(), 2);
        let mut s = q.source();
        let drained = s.drain(4, 10);
        // The unstamped event lands at the start of the range; the future
        // one stays queued.
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].at, 5);
        assert_eq!(q.depth(), 1);
        assert!(!s.exhausted_after(10));
        let later = s.drain(90, 100);
        assert_eq!(later.len(), 1);
        assert_eq!(later[0].at, 99);
        assert!(s.exhausted_after(100));
        assert!(s.drain(0, 1000).is_empty());
    }

    #[test]
    fn full_queue_rejects_until_drained() {
        let event = |i: i64| DeltaEvent {
            at: 0,
            view: "A".into(),
            row: Tuple::new(vec![Value::Int(i), Value::Int(i)]),
            count: 1,
        };
        let q = IngestQueue::with_capacity(4);
        assert_eq!(q.capacity(), 4);
        for i in 0..4 {
            q.push(event(i)).unwrap();
        }
        // The flood hits the bound: rejected, not buffered.
        let err = q.push(event(4)).unwrap_err();
        assert!(err.contains("ingest queue full"), "unexpected error: {err}");
        assert_eq!(q.depth(), 4, "a rejected push must not grow the queue");
        // Draining a window frees capacity and pushes flow again.
        let mut s = q.source();
        assert_eq!(s.drain(0, 10).len(), 4);
        q.push(event(5)).unwrap();
        assert_eq!(q.depth(), 1);
        // Degenerate capacities floor at one slot.
        assert_eq!(IngestQueue::with_capacity(0).capacity(), 1);
    }
}
