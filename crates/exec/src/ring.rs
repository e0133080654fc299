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
//! The per-slot stamp carries discrete-event causality: a push stamps
//! the slot with its simulated time, so a consumer running "earlier"
//! observes [`RingPop::NotUntil`] instead of data from its future; a pop
//! overwrites the stamp with *its* time (the free time), so a producer
//! cannot reuse a slot freed in its future. All comparisons use the
//! scheduler's exact [`TimeKey`] ordering, as the pipe layer's do, so a
//! slot stamped exactly at `now` is visible in this slice.

use ufork_abi::{Errno, Pid, SysResult};
use ufork_cheri::{Capability, OType, Perms};

use crate::ctx::Ctx;
use crate::memos::MemOs;
use crate::sched::TimeKey;

/// Header size in bytes.
pub const RING_HDR_BYTES: u64 = 64;
/// Per-slot overhead (the stamp word).
pub const RING_SLOT_HDR: u64 = 8;
/// Header magic ("uFORKrng" little-endian-ish).
pub const RING_MAGIC: u64 = 0x7546_4f52_4b72_6e67;

/// Total window size of a ring with the given geometry.
pub const fn ring_bytes(slots: u64, msg_bytes: u64) -> u64 {
    RING_HDR_BYTES + slots * (RING_SLOT_HDR + msg_bytes)
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
    /// Message `seq` dequeued.
    Popped {
        /// Its sequence number.
        seq: u64,
        /// Its payload (exactly `msg_bytes`).
        data: Vec<u8>,
    },
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

fn load_word<O: MemOs>(
    os: &mut O,
    ctx: &mut Ctx,
    pid: Pid,
    window: &Capability,
    off: u64,
) -> SysResult<u64> {
    let mut b = [0u8; 8];
    os.load(ctx, pid, &word_cap(window, off)?, &mut b)?;
    Ok(u64::from_le_bytes(b))
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

/// Initializes a fresh ring header in the (zeroed) shared window.
pub fn ring_init<O: MemOs>(
    os: &mut O,
    ctx: &mut Ctx,
    pid: Pid,
    window: &Capability,
    slots: u64,
    msg_bytes: u64,
) -> SysResult<()> {
    ctx.phase("ipc/ring/init");
    store_word(os, ctx, pid, window, 0, RING_MAGIC)?;
    store_word(os, ctx, pid, window, 8, 0)?; // head
    store_word(os, ctx, pid, window, 16, 0)?; // tail
    store_word(os, ctx, pid, window, 24, slots)?;
    store_word(os, ctx, pid, window, 32, msg_bytes)
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
    if load_word(os, ctx, pid, window, 0)? != RING_MAGIC
        || load_word(os, ctx, pid, window, 24)? != slots
        || load_word(os, ctx, pid, window, 32)? != msg_bytes
    {
        return Err(Errno::Inval);
    }
    Ok(())
}

/// Attempts to push `payload` (exactly `msg_bytes` long) at simulated
/// time `now` through the **unsealed** window capability.
pub fn ring_push_raw<O: MemOs>(
    os: &mut O,
    ctx: &mut Ctx,
    pid: Pid,
    window: &Capability,
    payload: &[u8],
    now: f64,
) -> SysResult<RingPush> {
    ctx.phase("ipc/ring/push");
    let head = load_word(os, ctx, pid, window, 8)?;
    let tail = load_word(os, ctx, pid, window, 16)?;
    let slots = load_word(os, ctx, pid, window, 24)?;
    let msg_bytes = load_word(os, ctx, pid, window, 32)?;
    if slots == 0 || payload.len() as u64 != msg_bytes {
        return Err(Errno::Inval);
    }
    if tail.wrapping_sub(head) >= slots {
        return Ok(RingPush::Full);
    }
    let off = RING_HDR_BYTES + (tail % slots) * (RING_SLOT_HDR + msg_bytes);
    // A reused slot carries its free time; a producer running earlier in
    // simulated time must not fill a slot freed in its future.
    let free_stamp = f64::from_bits(load_word(os, ctx, pid, window, off)?);
    if TimeKey::from_ns(free_stamp) > TimeKey::from_ns(now) {
        return Ok(RingPush::NotUntil(free_stamp));
    }
    os.store(ctx, pid, &word_cap(window, off + RING_SLOT_HDR)?, payload)?;
    store_word(os, ctx, pid, window, off, now.to_bits())?;
    store_word(os, ctx, pid, window, 16, tail.wrapping_add(1))?;
    Ok(RingPush::Pushed(tail))
}

/// Attempts to pop a message at simulated time `now` through the
/// **unsealed** window capability.
pub fn ring_pop_raw<O: MemOs>(
    os: &mut O,
    ctx: &mut Ctx,
    pid: Pid,
    window: &Capability,
    now: f64,
) -> SysResult<RingPop> {
    ctx.phase("ipc/ring/pop");
    let head = load_word(os, ctx, pid, window, 8)?;
    let tail = load_word(os, ctx, pid, window, 16)?;
    let slots = load_word(os, ctx, pid, window, 24)?;
    let msg_bytes = load_word(os, ctx, pid, window, 32)?;
    if slots == 0 {
        return Err(Errno::Inval);
    }
    if head == tail {
        return Ok(RingPop::Empty);
    }
    let off = RING_HDR_BYTES + (head % slots) * (RING_SLOT_HDR + msg_bytes);
    let stamp = f64::from_bits(load_word(os, ctx, pid, window, off)?);
    if TimeKey::from_ns(stamp) > TimeKey::from_ns(now) {
        return Ok(RingPop::NotUntil(stamp));
    }
    let mut data = vec![0u8; msg_bytes as usize];
    os.load(ctx, pid, &word_cap(window, off + RING_SLOT_HDR)?, &mut data)?;
    // Free time: the producer side checks it before reusing the slot.
    store_word(os, ctx, pid, window, off, now.to_bits())?;
    store_word(os, ctx, pid, window, 8, head.wrapping_add(1))?;
    Ok(RingPop::Popped { seq: head, data })
}

/// Messages currently enqueued (header read only; debugging/tests).
pub fn ring_depth<O: MemOs>(
    os: &mut O,
    ctx: &mut Ctx,
    pid: Pid,
    window: &Capability,
) -> SysResult<u64> {
    let head = load_word(os, ctx, pid, window, 8)?;
    let tail = load_word(os, ctx, pid, window, 16)?;
    Ok(tail.wrapping_sub(head))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        assert_eq!(ring_bytes(8, 32), 64 + 8 * 40);
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
