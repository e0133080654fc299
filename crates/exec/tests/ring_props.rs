//! Properties that pin the ring fabric's byte layout and its traffic
//! digest.
//!
//! * `mix_matches_the_byte_widening_reference`: [`RingMeta::mix`] folds
//!   each payload byte in one step; it must equal FNV-1a over `seq`, the
//!   length and every byte widened to a u64, as written out here.
//! * `raw_ops_match_the_word_by_word_model`: random pushes (by one
//!   process) and pops (by another) at random clock values run against a
//!   mock backend whose one window is shared by address, and against a
//!   model of the documented layout kept word by word. Each outcome, each
//!   popped payload and, after every operation, every byte of the window
//!   (header words, each slot's stamp and payload) must agree; each
//!   operation must make one header load and one slot access.
//!
//! Runs on the in-repo `ufork-testkit` harness. `PROP_CASES` /
//! `PROP_SEED` override the defaults.

use ufork_abi::{Errno, ImageSpec, IsolationLevel, Pid, SysResult};
use ufork_cheri::{Capability, Perms};
use ufork_exec::ring::{self, RingPop, RingPush, RING_HDR_BYTES, RING_MAGIC, RING_SLOT_HDR};
use ufork_exec::{Ctx, MemOs, RingMeta};
use ufork_mem::MemStats;
use ufork_sim::CostModel;
use ufork_testkit::{forall, no_shrink, shrink_vec, PropConfig, Rng};

fn cfg() -> PropConfig {
    PropConfig::from_env(256)
}

// ---------------------------------------------------------------------------
// Digest.
// ---------------------------------------------------------------------------

/// FNV-1a over the eight little-endian bytes of `v`.
fn fnv_u64(digest: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// The digest as first defined: every payload byte widened to a u64.
fn reference_mix(digest: &mut u64, seq: u64, payload: &[u8]) {
    fnv_u64(digest, seq);
    fnv_u64(digest, payload.len() as u64);
    for &b in payload {
        fnv_u64(digest, u64::from(b));
    }
}

#[test]
fn mix_matches_the_byte_widening_reference() {
    forall(
        "mix_matches_the_byte_widening_reference",
        &cfg(),
        |rng: &mut Rng| {
            let len = rng.below(257) as usize;
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            (rng.next_u64(), rng.next_u64(), payload)
        },
        no_shrink,
        |(start, seq, payload)| {
            let (mut got, mut want) = (*start, *start);
            RingMeta::mix(&mut got, *seq, payload);
            reference_mix(&mut want, *seq, payload);
            if got == want {
                Ok(())
            } else {
                Err(format!("mix {got:#x}, reference {want:#x}"))
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Protocol.
// ---------------------------------------------------------------------------

/// Where the mock maps the one ring window.
const WINDOW_BASE: u64 = 0x10_0000;
const PRODUCER: Pid = Pid(1);
const CONSUMER: Pid = Pid(2);

/// A backend with one window of shared memory: every process reaches the
/// same bytes at the same addresses, and an access outside it faults.
/// Counts loads and stores.
struct SharedWindow {
    cost: CostModel,
    bytes: Vec<u8>,
    loads: u32,
    stores: u32,
}

impl SharedWindow {
    fn span(&self, cap: &Capability, len: usize) -> SysResult<std::ops::Range<usize>> {
        let off = cap.addr().checked_sub(WINDOW_BASE).ok_or(Errno::Fault)? as usize;
        let end = off.checked_add(len).ok_or(Errno::Fault)?;
        if end > self.bytes.len() {
            return Err(Errno::Fault);
        }
        Ok(off..end)
    }
}

impl MemOs for SharedWindow {
    fn cost(&self) -> &CostModel {
        &self.cost
    }
    fn spawn(&mut self, _ctx: &mut Ctx, _pid: Pid, _image: &ImageSpec) -> SysResult<()> {
        unreachable!("the ring operations spawn nothing")
    }
    fn fork(&mut self, _ctx: &mut Ctx, _parent: Pid, _child: Pid) -> SysResult<()> {
        unreachable!("the ring operations fork nothing")
    }
    fn destroy(&mut self, _ctx: &mut Ctx, _pid: Pid) {}
    fn load(&mut self, _c: &mut Ctx, _pid: Pid, cap: &Capability, buf: &mut [u8]) -> SysResult<()> {
        self.loads += 1;
        let span = self.span(cap, buf.len())?;
        buf.copy_from_slice(&self.bytes[span]);
        Ok(())
    }
    fn store(&mut self, _c: &mut Ctx, _pid: Pid, cap: &Capability, data: &[u8]) -> SysResult<()> {
        self.stores += 1;
        let span = self.span(cap, data.len())?;
        self.bytes[span].copy_from_slice(data);
        Ok(())
    }
    fn load_cap(
        &mut self,
        _c: &mut Ctx,
        _p: Pid,
        _cap: &Capability,
    ) -> SysResult<Option<Capability>> {
        unreachable!("the ring operations load no capability")
    }
    fn store_cap(
        &mut self,
        _c: &mut Ctx,
        _p: Pid,
        _cap: &Capability,
        _v: &Capability,
    ) -> SysResult<()> {
        unreachable!("the ring operations store no capability")
    }
    fn malloc(&mut self, _c: &mut Ctx, _pid: Pid, _len: u64) -> SysResult<Capability> {
        unreachable!("the ring operations allocate nothing")
    }
    fn mfree(&mut self, _c: &mut Ctx, _p: Pid, _cap: &Capability) -> SysResult<()> {
        unreachable!("the ring operations free nothing")
    }
    fn reg(&self, _pid: Pid, _idx: usize) -> SysResult<Capability> {
        Err(Errno::Inval)
    }
    fn set_reg(&mut self, _pid: Pid, _idx: usize, _cap: Capability) -> SysResult<()> {
        Err(Errno::Inval)
    }
    fn shm_open(&mut self, _c: &mut Ctx, _p: Pid, _name: &str, _len: u64) -> SysResult<Capability> {
        unreachable!("the window is mapped up front")
    }
    fn mmap_anon(&mut self, _c: &mut Ctx, _pid: Pid, _len: u64) -> SysResult<Capability> {
        unreachable!("the ring operations map nothing")
    }
    fn syscall_entry_cost(&self) -> f64 {
        0.0
    }
    fn syscall_is_trap(&self) -> bool {
        false
    }
    fn ctx_switch_cost(&self, _f: Pid, _t: Pid) -> f64 {
        0.0
    }
    fn big_kernel_lock(&self) -> bool {
        false
    }
    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::Fault
    }
    fn copyio_cost_per_byte(&self) -> f64 {
        0.0
    }
    fn mem_stats(&self, _pid: Pid) -> MemStats {
        MemStats::default()
    }
    fn allocated_frames(&self) -> u32 {
        0
    }
    fn peak_frames(&self) -> u32 {
        0
    }
    fn audit_isolation(&self, _pid: Pid) -> usize {
        0
    }
}

/// One raw operation at simulated time `now`.
#[derive(Clone, Debug)]
enum Op {
    /// The producer pushes `payload`; `stale` fills the image's stamp
    /// word, which the push must overwrite.
    Push {
        payload: Vec<u8>,
        stale: u64,
        now: f64,
    },
    /// The consumer pops into an image that holds `stale` bytes.
    Pop { stale: u8, now: f64 },
}

#[derive(Clone, Debug)]
struct Case {
    slots: u64,
    msg_bytes: u64,
    ops: Vec<Op>,
}

/// A ring of 1–4 slots and 1–24-byte messages, and a sequence of
/// operations long enough to wrap it several times. The clock mostly
/// advances; a quarter of the operations act earlier than the clock, so
/// stamps from the future are met too, and clock values repeat, so a
/// stamp equal to `now` is met as well.
fn gen_case(rng: &mut Rng) -> Case {
    let slots = rng.range(1, 5);
    let msg_bytes = rng.range(1, 25);
    let mut clock = 0u64;
    let n = 12 * slots + rng.below(16);
    let ops = (0..n)
        .map(|_| {
            clock += rng.below(3);
            let now = if rng.chance(1, 4) {
                clock.saturating_sub(rng.range(1, 4))
            } else {
                clock
            } as f64;
            if rng.chance(11, 20) {
                let payload = (0..msg_bytes).map(|_| rng.next_u64() as u8).collect();
                Op::Push {
                    payload,
                    stale: rng.next_u64(),
                    now,
                }
            } else {
                Op::Pop {
                    stale: rng.next_u64() as u8,
                    now,
                }
            }
        })
        .collect();
    Case {
        slots,
        msg_bytes,
        ops,
    }
}

/// The documented layout, word by word: header words 0–4, then per slot
/// an f64 stamp and a payload.
struct Model {
    head: u64,
    tail: u64,
    slots: u64,
    msg_bytes: u64,
    stamps: Vec<f64>,
    payloads: Vec<Vec<u8>>,
}

/// What the model expects of one operation.
#[derive(Debug, PartialEq)]
enum Outcome {
    Pushed(u64),
    Full,
    PushNotUntil(f64),
    Popped(u64, Vec<u8>),
    Empty,
    PopNotUntil(f64),
}

impl Model {
    fn new(slots: u64, msg_bytes: u64) -> Model {
        Model {
            head: 0,
            tail: 0,
            slots,
            msg_bytes,
            stamps: vec![0.0; slots as usize],
            payloads: vec![vec![0; msg_bytes as usize]; slots as usize],
        }
    }

    fn push(&mut self, payload: &[u8], now: f64) -> Outcome {
        if self.tail - self.head >= self.slots {
            return Outcome::Full;
        }
        let i = (self.tail % self.slots) as usize;
        if self.stamps[i] > now {
            return Outcome::PushNotUntil(self.stamps[i]);
        }
        self.stamps[i] = now;
        self.payloads[i] = payload.to_vec();
        self.tail += 1;
        Outcome::Pushed(self.tail - 1)
    }

    fn pop(&mut self, now: f64) -> Outcome {
        if self.head == self.tail {
            return Outcome::Empty;
        }
        let i = (self.head % self.slots) as usize;
        if self.stamps[i] > now {
            return Outcome::PopNotUntil(self.stamps[i]);
        }
        self.stamps[i] = now;
        self.head += 1;
        Outcome::Popped(self.head - 1, self.payloads[i].clone())
    }

    /// The window's bytes: the header words (reserved ones zero), then
    /// each slot's stamp bits and payload, all little-endian.
    fn window(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for w in [
            RING_MAGIC,
            self.head,
            self.tail,
            self.slots,
            self.msg_bytes,
            0,
            0,
            0,
        ] {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for (stamp, payload) in self.stamps.iter().zip(&self.payloads) {
            out.extend_from_slice(&stamp.to_bits().to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }
}

/// The accesses one outcome costs: a header load, then (past the head
/// and tail check) one access to the slot, then a store to the slot's
/// stamp (pop) and one to the advanced header word.
fn accesses(outcome: &Outcome) -> (u32, u32) {
    match outcome {
        Outcome::Full | Outcome::Empty => (1, 0),
        Outcome::PushNotUntil(_) | Outcome::PopNotUntil(_) => (2, 0),
        Outcome::Pushed(_) | Outcome::Popped(..) => (2, 2),
    }
}

/// Runs `op` through the ring module on `case`'s ring.
fn apply(os: &mut SharedWindow, window: &Capability, case: &Case, op: &Op) -> SysResult<Outcome> {
    let mut ctx = Ctx::new();
    let (slots, hdr) = (case.slots, RING_SLOT_HDR as usize);
    Ok(match op {
        Op::Push {
            payload,
            stale,
            now,
        } => {
            let mut slot = stale.to_le_bytes().to_vec();
            slot.extend_from_slice(payload);
            match ring::ring_push_raw(os, &mut ctx, PRODUCER, window, slots, &mut slot, *now)? {
                RingPush::Pushed(seq) => Outcome::Pushed(seq),
                RingPush::Full => Outcome::Full,
                RingPush::NotUntil(t) => Outcome::PushNotUntil(t),
            }
        }
        Op::Pop { stale, now } => {
            let mut slot = vec![*stale; hdr + case.msg_bytes as usize];
            match ring::ring_pop_raw(os, &mut ctx, CONSUMER, window, slots, &mut slot, *now)? {
                RingPop::Popped(seq) => Outcome::Popped(seq, slot[hdr..].to_vec()),
                RingPop::Empty => Outcome::Empty,
                RingPop::NotUntil(t) => Outcome::PopNotUntil(t),
            }
        }
    })
}

fn check_case(case: &Case) -> Result<(), String> {
    let bytes = ring::ring_bytes(case.slots, case.msg_bytes).ok_or("geometry overflows")?;
    let mut os = SharedWindow {
        cost: CostModel::morello(),
        bytes: vec![0; bytes as usize],
        loads: 0,
        stores: 0,
    };
    let window = Capability::new_root(WINDOW_BASE, bytes, Perms::data());
    let mut model = Model::new(case.slots, case.msg_bytes);
    let mut ctx = Ctx::new();
    ring::ring_init(
        &mut os,
        &mut ctx,
        PRODUCER,
        &window,
        case.slots,
        case.msg_bytes,
    )
    .map_err(|e| format!("init: {e:?}"))?;
    if os.bytes != model.window() {
        return Err("the initialized window differs from the model".into());
    }
    ring::ring_verify(
        &mut os,
        &mut ctx,
        CONSUMER,
        &window,
        case.slots,
        case.msg_bytes,
    )
    .map_err(|e| format!("verify: {e:?}"))?;
    for (i, op) in case.ops.iter().enumerate() {
        let want = match op {
            Op::Push { payload, now, .. } => model.push(payload, *now),
            Op::Pop { now, .. } => model.pop(*now),
        };
        let (loads, stores) = (os.loads, os.stores);
        let got = apply(&mut os, &window, case, op).map_err(|e| format!("op {i}: {e:?}"))?;
        if got != want {
            return Err(format!("op {i} {op:?}: ring {got:?}, model {want:?}"));
        }
        let made = (os.loads - loads, os.stores - stores);
        if made != accesses(&want) {
            return Err(format!(
                "op {i} {want:?}: (loads, stores) {made:?}, want {:?}",
                accesses(&want)
            ));
        }
        let expected = model.window();
        if let Some(at) = (0..expected.len()).find(|&b| os.bytes[b] != expected[b]) {
            let slot = at.checked_sub(RING_HDR_BYTES as usize).map(|o| {
                let len = (RING_SLOT_HDR + case.msg_bytes) as usize;
                (o / len, o % len)
            });
            return Err(format!(
                "after op {i} {op:?}: window byte {at} (slot, offset {slot:?}) is {:#x}, model {:#x}",
                os.bytes[at], expected[at]
            ));
        }
        let depth = ring::ring_depth(&mut os, &mut ctx, CONSUMER, &window)
            .map_err(|e| format!("depth: {e:?}"))?;
        if depth != model.tail - model.head {
            return Err(format!("after op {i}: depth {depth}"));
        }
    }
    Ok(())
}

#[test]
fn raw_ops_match_the_word_by_word_model() {
    forall(
        "raw_ops_match_the_word_by_word_model",
        &cfg(),
        gen_case,
        |case| {
            shrink_vec(&case.ops)
                .into_iter()
                .map(|ops| Case {
                    ops,
                    ..case.clone()
                })
                .collect()
        },
        check_case,
    );
}

/// The generator reaches every outcome and, in most cases, wraps the
/// ring at least three times.
#[test]
fn generator_reaches_every_outcome_and_wraps() {
    let mut rng = Rng::new(7);
    let mut seen = [false; 6];
    let mut wrapped = 0;
    let cases = 200;
    for _ in 0..cases {
        let case = gen_case(&mut rng);
        let mut model = Model::new(case.slots, case.msg_bytes);
        for op in &case.ops {
            let outcome = match op {
                Op::Push { payload, now, .. } => model.push(payload, *now),
                Op::Pop { now, .. } => model.pop(*now),
            };
            seen[match outcome {
                Outcome::Pushed(_) => 0,
                Outcome::Full => 1,
                Outcome::PushNotUntil(_) => 2,
                Outcome::Popped(..) => 3,
                Outcome::Empty => 4,
                Outcome::PopNotUntil(_) => 5,
            }] = true;
        }
        if model.tail >= 3 * case.slots {
            wrapped += 1;
        }
    }
    assert_eq!(seen, [true; 6], "outcomes reached");
    assert!(
        wrapped * 4 >= cases * 3,
        "{wrapped} of {cases} cases wrapped 3x"
    );
}
