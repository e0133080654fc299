//! Equivalence property test for [`Capability::rebase`].
//!
//! `rebase` computes its result directly. The reference model below is
//! the derivation chain it replaced: check the root is unsealed, shift
//! base, top and cursor, clamp to the root, then narrow the root's
//! bounds, mask its permissions, move its cursor and carry the source's
//! otype over. Both must agree on every input: equal `Ok` values and
//! equal `Err` variants. Runs on the in-repo `ufork-testkit` harness
//! (offline; default-on `props` feature).
#![cfg(feature = "props")]

use ufork_cheri::{CapError, Capability, OType, Perms};
use ufork_testkit::{forall, no_shrink, PropConfig, Rng};

/// Authority to seal and unseal every otype.
fn sealer() -> Capability {
    Capability::new_root(0, u64::from(OType::MAX) + 1, Perms::SEAL | Perms::UNSEAL)
}

/// The derivation chain `rebase` used before it computed its result
/// directly.
fn reference_rebase(
    cap: &Capability,
    delta: i64,
    root: &Capability,
) -> Result<Capability, CapError> {
    // `with_addr` fails with `Sealed` exactly when the root is sealed.
    root.with_addr(root.addr())?;
    let base = cap
        .base()
        .checked_add_signed(delta)
        .ok_or(CapError::AddressOverflow)?;
    let top = cap
        .top()
        .checked_add_signed(delta)
        .ok_or(CapError::AddressOverflow)?;
    let addr = cap
        .addr()
        .checked_add_signed(delta)
        .ok_or(CapError::AddressOverflow)?;
    let nbase = base.max(root.base());
    let ntop = top.min(root.top());
    if nbase > ntop {
        return Err(CapError::BoundsWiden);
    }
    let derived = root
        .with_bounds(nbase, ntop - nbase)?
        .with_perms(cap.perms() & root.perms())?
        .with_addr(addr)?;
    match cap.otype() {
        Some(ot) => derived.seal(ot, &sealer()),
        None => Ok(derived),
    }
}

/// One rebase input: the capability, the shift and the child root.
#[derive(Clone, Copy, Debug)]
struct Case {
    cap: Capability,
    delta: i64,
    root: Capability,
}

fn maybe_sealed(rng: &mut Rng, cap: Capability, num: u64, den: u64) -> Capability {
    if !rng.chance(num, den) {
        return cap;
    }
    let ot = OType::new(rng.below(u64::from(OType::MAX) + 1) as u32).unwrap();
    cap.seal(ot, &sealer()).unwrap()
}

/// Small bounds low in memory, bounds whose top saturates near
/// `u64::MAX`, zero lengths, or anything; the cursor in bounds, anywhere,
/// or near `u64::MAX`; a quarter of them sealed.
fn gen_cap(rng: &mut Rng) -> Capability {
    let (base, len) = match rng.below(4) {
        0 => (rng.below(1 << 40), rng.below(1 << 20)),
        1 => (u64::MAX - rng.below(1 << 20), rng.below(1 << 21)),
        2 => (rng.next_u64(), 0),
        _ => (rng.next_u64(), rng.next_u64()),
    };
    let cap = Capability::new_root(base, len, Perms::from_bits(rng.next_u64() as u16));
    let addr = match rng.below(3) {
        0 => base.saturating_add(rng.below(len.saturating_add(1))),
        1 => rng.next_u64(),
        _ => u64::MAX - rng.below(1 << 20),
    };
    maybe_sealed(rng, cap.with_addr(addr).unwrap(), 1, 4)
}

/// A delta that makes `v + delta` leave `0..=u64::MAX`, if one fits in
/// an `i64`.
fn overflowing_delta(rng: &mut Rng, v: u64) -> i64 {
    let k = rng.below(16);
    let up = (u64::MAX - v)
        .checked_add(1 + k)
        .and_then(|d| i64::try_from(d).ok());
    let down = i64::try_from(v)
        .ok()
        .and_then(|v| v.checked_add(1 + k as i64))
        .map(|d| -d);
    up.or(down).unwrap_or(rng.next_u64() as i64)
}

/// Small shifts, shifts that overflow the base, the top or the cursor,
/// and arbitrary ones.
fn gen_delta(rng: &mut Rng, cap: &Capability) -> i64 {
    match rng.below(5) {
        0 => (rng.next_u64() as i64) >> 24,
        1 => overflowing_delta(rng, cap.base()),
        2 => overflowing_delta(rng, cap.top()),
        3 => overflowing_delta(rng, cap.addr()),
        _ => rng.next_u64() as i64,
    }
}

/// Roots that overlap the shifted range, sit inside it, lie disjoint
/// above or below it, touch it at either end, or fall anywhere; a sixth
/// of them sealed.
fn gen_root(rng: &mut Rng, cap: &Capability, delta: i64) -> Capability {
    let sbase = cap.base().wrapping_add_signed(delta);
    let stop = cap.top().wrapping_add_signed(delta);
    let len = rng.below(1 << 24);
    let gap = 1 + rng.below(0x1000);
    let base = match rng.below(7) {
        0 => sbase.saturating_sub(rng.below(0x1000)),
        1 => sbase.saturating_add(rng.below(0x1000)),
        2 => stop.saturating_add(gap),
        3 => sbase.saturating_sub(gap).saturating_sub(len),
        4 => stop,
        5 => sbase.saturating_sub(len),
        _ => rng.next_u64(),
    };
    let root = Capability::new_root(base, len, Perms::from_bits(rng.next_u64() as u16));
    maybe_sealed(rng, root, 1, 6)
}

fn gen_case(rng: &mut Rng) -> Case {
    let cap = gen_cap(rng);
    let delta = gen_delta(rng, &cap);
    let root = gen_root(rng, &cap, delta);
    Case { cap, delta, root }
}

#[test]
fn rebase_matches_the_derivation_chain() {
    forall(
        "rebase_matches_the_derivation_chain",
        &PropConfig::from_env(1024),
        gen_case,
        no_shrink,
        |c| {
            let got = c.cap.rebase(c.delta, &c.root);
            let want = reference_rebase(&c.cap, c.delta, &c.root);
            if got != want {
                return Err(format!("rebase = {got:?}, reference = {want:?}"));
            }
            Ok(())
        },
    );
}

/// Which check decides a rebase, in the order the checks run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    SealedRoot,
    BaseOverflow,
    TopOverflow,
    AddrOverflow,
    Disjoint,
    Empty,
    Clamped,
    SealedOk,
    Unclamped,
}

fn outcome(c: &Case) -> Outcome {
    let shift = |v: u64| v.checked_add_signed(c.delta);
    if c.root.is_sealed() {
        return Outcome::SealedRoot;
    }
    let (Some(base), Some(top)) = (shift(c.cap.base()), shift(c.cap.top())) else {
        return if shift(c.cap.base()).is_none() {
            Outcome::BaseOverflow
        } else {
            Outcome::TopOverflow
        };
    };
    if shift(c.cap.addr()).is_none() {
        return Outcome::AddrOverflow;
    }
    let (nbase, ntop) = (base.max(c.root.base()), top.min(c.root.top()));
    if nbase > ntop {
        Outcome::Disjoint
    } else if nbase == ntop {
        Outcome::Empty
    } else if c.cap.is_sealed() {
        Outcome::SealedOk
    } else if (nbase, ntop) != (base, top) {
        Outcome::Clamped
    } else {
        Outcome::Unclamped
    }
}

/// The generator reaches every branch of `rebase`: a sealed root, an
/// overflow of each of base, top and cursor in turn, a root disjoint from
/// the shifted range, and empty, clamped, unclamped and sealed results.
/// Guards the equivalence test against a generator that drifts into
/// testing one branch only.
#[test]
fn generator_reaches_every_outcome() {
    let mut rng = Rng::new(7);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..4096 {
        seen.insert(outcome(&gen_case(&mut rng)));
    }
    let all = [
        Outcome::SealedRoot,
        Outcome::BaseOverflow,
        Outcome::TopOverflow,
        Outcome::AddrOverflow,
        Outcome::Disjoint,
        Outcome::Empty,
        Outcome::Clamped,
        Outcome::SealedOk,
        Outcome::Unclamped,
    ];
    let missing: Vec<_> = all.iter().filter(|o| !seen.contains(o)).collect();
    assert!(missing.is_empty(), "generator never reached {missing:?}");
}
