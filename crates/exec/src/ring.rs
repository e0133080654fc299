//! Shared-memory SPSC descriptor rings.
//!
//! A ring lives entirely in `Shm`-backed *simulated* memory: a 64-byte
//! header of little-endian u64 words followed by fixed-size message
//! slots. Because the whole structure is ordinary shared memory, fork
//! does nothing special for it — the one fork walk refcount-shares `Shm`
//! pages the same way in all three of its modes, and the *endpoint
//! capability* the program holds (sealed with [`OType::RING_ENDPOINT`])
//! is relocated by the ordinary register walk, seal intact. That is the
//! property this fabric exists to exercise: IPC connectivity survives
//! address-space surgery purely through capability relocation (paper
//! §3.5–3.7).
//!
//! Layout (`word = u64 LE`):
//!
//! ```text
//! word 0  magic
//! word 1  head   — consumer sequence number
//! word 2  tail   — producer sequence number
//! word 3  slots
//! word 4  msg_bytes
//! words 5..8 reserved
//! slot i at 64 + (i % slots) * (8 + msg_bytes):
//!     [ stamp: f64 bits ][ payload: msg_bytes ]
//! ```
//!
//! The geometry words are written by [`ring_init`] and checked by
//! [`ring_verify`] when a ring is reopened, but push and pop never read
//! them: the window is program-writable shared memory, so they take
//! `slots` and `msg_bytes` from the caller (the kernel's ring registry)
//! and read only head and tail. Each operation moves a message once,
//! through a caller-owned *slot image* `[stamp | payload]`: a push reads
//! head and tail in one load, the slot's free stamp, and stores the
//! image in one store; a pop reads head and tail, loads the slot image
//! in one load, and stores its free stamp. Each then stores the word it
//! advances.
//!
//! The per-slot stamp carries discrete-event causality: a push stamps
//! the slot with its simulated time, so a consumer running "earlier"
//! observes [`RingPop::NotUntil`] instead of data from its future; a pop
//! overwrites the stamp with *its* time (the free time), so a producer
//! cannot reuse a slot freed in its future. All comparisons use the
//! scheduler's exact [`TimeKey`] ordering, as the pipe layer's do, so a
//! slot stamped exactly at `now` is visible in this slice.

use ufork_abi::{Errno, Pid, SysResult};
use ufork_cheri::{Capability, OType, Perms};
use ufork_sim::Phase;

use crate::ctx::Ctx;
use crate::memos::MemOs;
use crate::sched::TimeKey;

/// Header size in bytes.
pub const RING_HDR_BYTES: u64 = 64;
/// Per-slot overhead (the stamp word).
pub const RING_SLOT_HDR: u64 = 8;
/// Header magic ("uFORKrng" little-endian-ish).
pub const RING_MAGIC: u64 = 0x7546_4f52_4b72_6e67;
/// Offset of the head word.
const HEAD_OFF: u64 = 8;
/// Offset of the tail word, which follows the head word.
const TAIL_OFF: u64 = 16;
/// Bytes of the header words `ring_init` writes (magic to `msg_bytes`).
const HDR_WORDS_BYTES: usize = 40;

/// Total window size of a ring with the given geometry, or `None` if
/// it does not fit in a u64.
pub fn ring_bytes(slots: u64, msg_bytes: u64) -> Option<u64> {
    let slot = msg_bytes.checked_add(RING_SLOT_HDR)?;
    slots.checked_mul(slot)?.checked_add(RING_HDR_BYTES)
}

/// The machine-held sealing authority for ring endpoints: covers exactly
/// [`OType::RING_ENDPOINT`] in otype space, with seal + unseal rights.
/// Programs never see it — they hold only the sealed endpoint.
pub fn seal_authority() -> Capability {
    Capability::new_root(
        u64::from(OType::RING_ENDPOINT.raw()),
        1,
        Perms::SEAL | Perms::UNSEAL,
    )
}

/// Outcome of a raw push attempt.
#[derive(Clone, Debug, PartialEq)]
pub enum RingPush {
    /// Message enqueued as sequence number `seq`.
    Pushed(u64),
    /// All slots occupied: block until a pop frees one.
    Full,
    /// The next slot frees only at simulated time `t` (it was popped by
    /// a consumer running ahead of this producer): retry then.
    NotUntil(f64),
}

/// Outcome of a raw pop attempt.
#[derive(Clone, Debug, PartialEq)]
pub enum RingPop {
    /// Message `seq` dequeued; its payload is in the slot image.
    Popped(u64),
    /// No messages pending (EOF is the registry's call: the ring itself
    /// does not know how many producer ends remain).
    Empty,
    /// The head message lands only at simulated time `t`: retry then.
    NotUntil(f64),
}

fn word_cap(window: &Capability, off: u64) -> SysResult<Capability> {
    window
        .with_addr(window.base() + off)
        .map_err(|_| Errno::Fault)
}

/// Word `i` of a little-endian word image.
fn word(image: &[u8], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&image[i * 8..i * 8 + 8]);
    u64::from_le_bytes(b)
}

fn store_word<O: MemOs>(
    os: &mut O,
    ctx: &mut Ctx,
    pid: Pid,
    window: &Capability,
    off: u64,
    v: u64,
) -> SysResult<()> {
    os.store(ctx, pid, &word_cap(window, off)?, &v.to_le_bytes())
}

/// Reads `(head, tail)` in one load.
fn load_head_tail<O: MemOs>(
    os: &mut O,
    ctx: &mut Ctx,
    pid: Pid,
    window: &Capability,
) -> SysResult<(u64, u64)> {
    let mut b = [0u8; 16];
    os.load(ctx, pid, &word_cap(window, HEAD_OFF)?, &mut b)?;
    Ok((word(&b, 0), word(&b, 1)))
}

/// Offset of the slot that sequence number `seq` occupies in a ring of
/// `slots` slots of `slot_len` bytes each; `Inval` for geometry no
/// window can hold.
fn slot_off(slots: u64, slot_len: usize, seq: u64) -> SysResult<u64> {
    seq.checked_rem(slots)
        .and_then(|i| i.checked_mul(slot_len as u64))
        .and_then(|off| off.checked_add(RING_HDR_BYTES))
        .ok_or(Errno::Inval)
}

/// Initializes a fresh ring header in the (zeroed) shared window.
pub fn ring_init<O: MemOs>(
    os: &mut O,
    ctx: &mut Ctx,
    pid: Pid,
    window: &Capability,
    slots: u64,
    msg_bytes: u64,
) -> SysResult<()> {
    ctx.phase(Phase::IpcRingInit);
    // Head and tail start at 0.
    let words = [RING_MAGIC, 0, 0, slots, msg_bytes];
    let mut hdr = [0u8; HDR_WORDS_BYTES];
    for (w, v) in hdr.chunks_exact_mut(8).zip(words) {
        w.copy_from_slice(&v.to_le_bytes());
    }
    os.store(ctx, pid, &word_cap(window, 0)?, &hdr)
    // Slot stamps start as 0 bits = t=0.0, readable from the first
    // instant — no per-slot initialization needed.
}

/// Verifies the header of an existing ring against expected geometry
/// (reopen-by-name and post-fork sanity checks).
pub fn ring_verify<O: MemOs>(
    os: &mut O,
    ctx: &mut Ctx,
    pid: Pid,
    window: &Capability,
    slots: u64,
    msg_bytes: u64,
) -> SysResult<()> {
    let mut hdr = [0u8; HDR_WORDS_BYTES];
    os.load(ctx, pid, &word_cap(window, 0)?, &mut hdr)?;
    if word(&hdr, 0) != RING_MAGIC || word(&hdr, 3) != slots || word(&hdr, 4) != msg_bytes {
        return Err(Errno::Inval);
    }
    Ok(())
}

/// Attempts to push a message at simulated time `now` through the
/// **unsealed** window capability of a ring of `slots` slots.
///
/// `slot` is the image of one slot, `[stamp | payload]`, so it is
/// [`RING_SLOT_HDR`] bytes longer than the ring's messages. The caller
/// fills the payload; a successful push writes `now` into the stamp
/// word and stores the image whole.
pub fn ring_push_raw<O: MemOs>(
    os: &mut O,
    ctx: &mut Ctx,
    pid: Pid,
    window: &Capability,
    slots: u64,
    slot: &mut [u8],
    now: f64,
) -> SysResult<RingPush> {
    ctx.phase(Phase::IpcRingPush);
    let (head, tail) = load_head_tail(os, ctx, pid, window)?;
    if tail.wrapping_sub(head) >= slots {
        return Ok(RingPush::Full);
    }
    let at = word_cap(window, slot_off(slots, slot.len(), tail)?)?;
    // A reused slot carries its free time; a producer running earlier in
    // simulated time must not fill a slot freed in its future.
    let mut stamp = [0u8; RING_SLOT_HDR as usize];
    os.load(ctx, pid, &at, &mut stamp)?;
    let free_stamp = f64::from_bits(word(&stamp, 0));
    if TimeKey::from_ns(free_stamp) > TimeKey::from_ns(now) {
        return Ok(RingPush::NotUntil(free_stamp));
    }
    slot[..RING_SLOT_HDR as usize].copy_from_slice(&now.to_bits().to_le_bytes());
    os.store(ctx, pid, &at, slot)?;
    store_word(os, ctx, pid, window, TAIL_OFF, tail.wrapping_add(1))?;
    Ok(RingPush::Pushed(tail))
}

/// Attempts to pop a message at simulated time `now` through the
/// **unsealed** window capability of a ring of `slots` slots.
///
/// `slot` receives the head slot's image, `[stamp | payload]`, so it is
/// [`RING_SLOT_HDR`] bytes longer than the ring's messages; after
/// [`RingPop::Popped`] its payload is the message.
pub fn ring_pop_raw<O: MemOs>(
    os: &mut O,
    ctx: &mut Ctx,
    pid: Pid,
    window: &Capability,
    slots: u64,
    slot: &mut [u8],
    now: f64,
) -> SysResult<RingPop> {
    ctx.phase(Phase::IpcRingPop);
    let (head, tail) = load_head_tail(os, ctx, pid, window)?;
    if head == tail {
        return Ok(RingPop::Empty);
    }
    let off = slot_off(slots, slot.len(), head)?;
    os.load(ctx, pid, &word_cap(window, off)?, slot)?;
    let stamp = f64::from_bits(word(slot, 0));
    if TimeKey::from_ns(stamp) > TimeKey::from_ns(now) {
        return Ok(RingPop::NotUntil(stamp));
    }
    // Free time: the producer side checks it before reusing the slot.
    store_word(os, ctx, pid, window, off, now.to_bits())?;
    store_word(os, ctx, pid, window, HEAD_OFF, head.wrapping_add(1))?;
    Ok(RingPop::Popped(head))
}

/// Messages currently enqueued (header read only; debugging/tests).
pub fn ring_depth<O: MemOs>(
    os: &mut O,
    ctx: &mut Ctx,
    pid: Pid,
    window: &Capability,
) -> SysResult<u64> {
    let (head, tail) = load_head_tail(os, ctx, pid, window)?;
    Ok(tail.wrapping_sub(head))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        assert_eq!(ring_bytes(8, 32), Some(64 + 8 * 40));
        assert_eq!(ring_bytes(2, u64::MAX), None);
        assert_eq!(ring_bytes(u64::MAX, 1), None);
    }

    #[test]
    fn seal_authority_covers_only_ring_otype() {
        let auth = seal_authority();
        let data = Capability::new_root(0x1000, 0x100, Perms::data());
        let sealed = data.seal(OType::RING_ENDPOINT, &auth).unwrap();
        assert!(sealed.is_sealed());
        // The authority covers no other otype.
        assert!(data.seal(OType::SYSCALL_ENTRY, &auth).is_err());
        assert!(data.seal(OType::FIRST_DYNAMIC, &auth).is_err());
        // Round-trips through unseal with the same authority.
        let unsealed = sealed.unseal(&auth).unwrap();
        assert!(!unsealed.is_sealed());
        assert_eq!(unsealed.base(), data.base());
    }
}
