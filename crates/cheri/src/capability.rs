//! The capability type and its monotonic derivation rules.

use core::fmt;

use crate::{CapError, OType, Perms};

/// Size in bytes of a capability in memory (Morello: 128-bit).
pub const CAP_SIZE: u64 = 16;

/// Required alignment of capabilities in memory.
///
/// Tag bits are kept per 16-byte granule, so capabilities must be 16-byte
/// aligned — the alignment requirement that forced the tinyalloc changes in
/// the paper's Unikraft port (§4.1).
pub const CAP_ALIGN: u64 = 16;

/// A CHERI capability: a bounded, permissioned, optionally sealed pointer.
///
/// A capability grants access to the address range `[base, base + len)`
/// with the permissions in `perms`. The *cursor* (`addr`) is the pointer
/// value arithmetic acts on; it may stray out of bounds (as on real CHERI),
/// but accesses are only permitted when the accessed range is fully in
/// bounds.
///
/// All derivation methods are **monotonic**: they can narrow bounds and
/// drop permissions but never the reverse. The only way to obtain authority
/// is to start from a broader capability — ultimately the kernel's root
/// capability minted at boot. This is the security invariant μFork's
/// cross-μprocess isolation rests on (paper §4.3).
///
/// Validity tags are *not* stored inside the capability value: they live in
/// the memory system (one bit per granule) and in register files. A
/// `Capability` value in Rust represents a *tagged* (valid) capability;
/// untagged data is represented as plain bytes by the memory model.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capability {
    base: u64,
    len: u64,
    addr: u64,
    perms: Perms,
    otype: Option<OType>,
}

impl Capability {
    /// Mints a new root capability.
    ///
    /// Only the kernel (at boot, or when carving μprocess regions out of
    /// its own root) should call this; everything a μprocess ever holds is
    /// derived from such a root. The simulator cannot enforce *who* calls
    /// `new_root` — the kernel crates confine it — but tests audit that no
    /// μprocess-reachable capability exceeds its region.
    pub const fn new_root(base: u64, len: u64, perms: Perms) -> Capability {
        Capability {
            base,
            len,
            addr: base,
            perms,
            otype: None,
        }
    }

    /// The inclusive lower bound.
    #[inline]
    pub const fn base(&self) -> u64 {
        self.base
    }

    /// The length of the addressable range in bytes.
    #[inline]
    pub const fn len(&self) -> u64 {
        self.len
    }

    /// Returns true if the capability covers no bytes.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The exclusive upper bound (`base + len`), saturating.
    #[inline]
    pub const fn top(&self) -> u64 {
        self.base.saturating_add(self.len)
    }

    /// The cursor (pointer value).
    #[inline]
    pub const fn addr(&self) -> u64 {
        self.addr
    }

    /// The permission set.
    #[inline]
    pub const fn perms(&self) -> Perms {
        self.perms
    }

    /// The otype if sealed.
    #[inline]
    pub const fn otype(&self) -> Option<OType> {
        self.otype
    }

    /// Returns true if the capability is sealed.
    #[inline]
    pub const fn is_sealed(&self) -> bool {
        self.otype.is_some()
    }

    /// Derives a capability with narrowed bounds `[base, base + len)`.
    ///
    /// Fails with [`CapError::BoundsWiden`] if the new range is not fully
    /// contained in the current range, with [`CapError::Sealed`] if sealed.
    /// The cursor is reset to the new base.
    pub fn with_bounds(&self, base: u64, len: u64) -> Result<Capability, CapError> {
        self.check_unsealed()?;
        let top = base.checked_add(len).ok_or(CapError::AddressOverflow)?;
        if base < self.base || top > self.top() {
            return Err(CapError::BoundsWiden);
        }
        Ok(Capability {
            base,
            len,
            addr: base,
            perms: self.perms,
            otype: None,
        })
    }

    /// Derives a capability with permissions `self.perms() & perms`.
    ///
    /// Mirrors the `CAndPerm` instruction: requesting permissions the
    /// parent lacks silently drops them, which is always monotonic.
    pub fn with_perms_masked(&self, perms: Perms) -> Result<Capability, CapError> {
        self.check_unsealed()?;
        Ok(Capability {
            perms: self.perms & perms,
            ..*self
        })
    }

    /// Derives a capability with exactly `perms`.
    ///
    /// Fails with [`CapError::PermsWiden`] if `perms` is not a subset of
    /// the current permissions.
    pub fn with_perms(&self, perms: Perms) -> Result<Capability, CapError> {
        self.check_unsealed()?;
        if !perms.is_subset_of(self.perms) {
            return Err(CapError::PermsWiden);
        }
        Ok(Capability { perms, ..*self })
    }

    /// Derives a capability with the cursor moved to `addr`.
    ///
    /// The cursor may leave the bounds (CHERI allows out-of-bounds
    /// pointers); only *accesses* are bounds-checked.
    pub fn with_addr(&self, addr: u64) -> Result<Capability, CapError> {
        self.check_unsealed()?;
        Ok(Capability { addr, ..*self })
    }

    /// Derives a capability with the cursor offset by `delta` bytes.
    pub fn offset(&self, delta: i64) -> Result<Capability, CapError> {
        self.check_unsealed()?;
        let addr = self
            .addr
            .checked_add_signed(delta)
            .ok_or(CapError::AddressOverflow)?;
        Ok(Capability { addr, ..*self })
    }

    /// Seals the capability with `otype` using `authority`.
    ///
    /// `authority` must be unsealed, carry [`Perms::SEAL`], and its bounds
    /// (interpreted as an otype space) must cover `otype.raw()`.
    pub fn seal(&self, otype: OType, authority: &Capability) -> Result<Capability, CapError> {
        self.check_unsealed()?;
        authority.check_unsealed()?;
        if !authority.perms.contains(Perms::SEAL) {
            return Err(CapError::PermissionDenied {
                missing: Perms::SEAL,
            });
        }
        let ot = u64::from(otype.raw());
        if ot < authority.base || ot >= authority.top() {
            return Err(CapError::BadSeal);
        }
        Ok(Capability {
            otype: Some(otype),
            ..*self
        })
    }

    /// Unseals a sealed capability using `authority`.
    ///
    /// `authority` must be unsealed, carry [`Perms::UNSEAL`], and cover the
    /// otype.
    pub fn unseal(&self, authority: &Capability) -> Result<Capability, CapError> {
        let otype = self.otype.ok_or(CapError::BadUnseal)?;
        authority.check_unsealed()?;
        if !authority.perms.contains(Perms::UNSEAL) {
            return Err(CapError::PermissionDenied {
                missing: Perms::UNSEAL,
            });
        }
        let ot = u64::from(otype.raw());
        if ot < authority.base || ot >= authority.top() {
            return Err(CapError::BadUnseal);
        }
        Ok(Capability {
            otype: None,
            ..*self
        })
    }

    /// Checks an access of `len` bytes at `addr` needing `required` perms.
    ///
    /// This is the dereference check performed (by hardware, on Morello;
    /// by the MMU model, here) on every user load/store.
    pub fn check_access(&self, addr: u64, len: u64, required: Perms) -> Result<(), CapError> {
        if let Some(ot) = self.otype {
            return Err(CapError::Sealed(ot));
        }
        if !self.perms.contains(required) {
            return Err(CapError::PermissionDenied {
                missing: required & !self.perms,
            });
        }
        let end = addr.checked_add(len).ok_or(CapError::AddressOverflow)?;
        if addr < self.base || end > self.top() {
            return Err(CapError::OutOfBounds { addr, len });
        }
        Ok(())
    }

    /// Checks an access at the cursor.
    pub fn check_cursor_access(&self, len: u64, required: Perms) -> Result<(), CapError> {
        self.check_access(self.addr, len, required)
    }

    /// Returns true if the capability's range lies fully inside
    /// `[region_base, region_base + region_len)`.
    ///
    /// μFork's relocation scan uses the negation of this predicate to
    /// identify capabilities that still point into the parent μprocess
    /// (paper §4.2): a capability found in child memory whose target or
    /// bounds escape the child's region must be relocated.
    #[inline]
    pub fn confined_to(&self, region_base: u64, region_len: u64) -> bool {
        let region_top = region_base.saturating_add(region_len);
        self.base >= region_base && self.top() <= region_top && self.len <= region_len
    }

    /// Rederives this capability shifted by `delta` bytes, with authority
    /// from `root`.
    ///
    /// This is the relocation primitive (paper §4.2): the kernel, holding a
    /// root capability for the *child* region, rebases a stale
    /// parent-region capability into the child region. The result is
    /// derived from `root` — so it can never exceed the child region — with
    /// bounds additionally clamped to the intersection with `root`.
    ///
    /// The result keeps this capability's otype and gets `self.perms() &
    /// root.perms()`. Fails, checked in this order, with
    /// [`CapError::Sealed`] if `root` is sealed, with
    /// [`CapError::AddressOverflow`] if shifting the base, the top or the
    /// cursor overflows, and with [`CapError::BoundsWiden`] if the shifted
    /// range lies wholly outside `root` (which would indicate a kernel bug
    /// and is surfaced rather than masked). A range that only touches
    /// `root` yields an empty capability at the shared edge.
    #[inline]
    pub fn rebase(&self, delta: i64, root: &Capability) -> Result<Capability, CapError> {
        root.check_unsealed()?;
        let base = self
            .base
            .checked_add_signed(delta)
            .ok_or(CapError::AddressOverflow)?;
        let top = self
            .top()
            .checked_add_signed(delta)
            .ok_or(CapError::AddressOverflow)?;
        let addr = self
            .addr
            .checked_add_signed(delta)
            .ok_or(CapError::AddressOverflow)?;
        // Clamp to the root's range (restrict-to-μprocess, paper §4.2).
        // Bounds inside `root` and permissions masked by `root`'s keep the
        // result a monotonic derivation of `root`.
        let nbase = base.max(root.base);
        let ntop = top.min(root.top());
        if nbase > ntop {
            return Err(CapError::BoundsWiden);
        }
        Ok(Capability {
            base: nbase,
            len: ntop - nbase,
            addr,
            perms: self.perms & root.perms,
            otype: self.otype,
        })
    }

    /// Encodes the in-memory *data* view of the capability.
    ///
    /// When software reads a capability location as plain bytes, it sees
    /// the 64-bit cursor in the low 8 bytes and (in this model) a digest of
    /// bounds/permissions in the high 8 bytes. The tag is *not* part of the
    /// bytes — writing these bytes somewhere else does not create a valid
    /// capability.
    #[inline]
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.addr.to_le_bytes());
        let meta: u64 = (self.len.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ u64::from(self.perms.bits())
            ^ (u64::from(self.otype.map_or(0, OType::raw)) << 32);
        out[8..].copy_from_slice(&meta.to_le_bytes());
        out
    }

    #[inline]
    fn check_unsealed(&self) -> Result<(), CapError> {
        match self.otype {
            Some(ot) => Err(CapError::Sealed(ot)),
            None => Ok(()),
        }
    }
}

impl fmt::Debug for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cap[{:#x}..{:#x}) @{:#x} {:?}",
            self.base,
            self.top(),
            self.addr,
            self.perms
        )?;
        if let Some(ot) = self.otype {
            write!(f, " sealed:{ot:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> Capability {
        Capability::new_root(0x1000, 0x1000, Perms::data())
    }

    #[test]
    fn root_construction() {
        let c = root();
        assert_eq!(c.base(), 0x1000);
        assert_eq!(c.len(), 0x1000);
        assert_eq!(c.top(), 0x2000);
        assert_eq!(c.addr(), 0x1000);
        assert!(!c.is_sealed());
    }

    #[test]
    fn narrowing_bounds_ok_widening_fails() {
        let c = root();
        let n = c.with_bounds(0x1100, 0x100).unwrap();
        assert_eq!(n.base(), 0x1100);
        assert_eq!(n.top(), 0x1200);
        assert_eq!(
            n.with_bounds(0x1000, 0x1000).unwrap_err(),
            CapError::BoundsWiden
        );
        assert_eq!(
            n.with_bounds(0x1100, 0x200).unwrap_err(),
            CapError::BoundsWiden
        );
        assert_eq!(
            n.with_bounds(0x10ff, 0x10).unwrap_err(),
            CapError::BoundsWiden
        );
    }

    #[test]
    fn bounds_overflow_detected() {
        let c = Capability::new_root(0, u64::MAX, Perms::data());
        assert_eq!(
            c.with_bounds(u64::MAX, 2).unwrap_err(),
            CapError::AddressOverflow
        );
    }

    #[test]
    fn perms_narrow_only() {
        let c = root();
        let ro = c.with_perms(Perms::LOAD | Perms::LOAD_CAP).unwrap();
        assert_eq!(
            ro.with_perms(Perms::data()).unwrap_err(),
            CapError::PermsWiden
        );
        // Masked derivation silently intersects.
        let m = ro.with_perms_masked(Perms::data()).unwrap();
        assert_eq!(m.perms(), Perms::LOAD | Perms::LOAD_CAP);
    }

    #[test]
    fn cursor_may_leave_bounds_but_access_may_not() {
        let c = root();
        let oob = c.with_addr(0x5000).unwrap();
        assert_eq!(oob.addr(), 0x5000);
        assert!(matches!(
            oob.check_cursor_access(1, Perms::LOAD),
            Err(CapError::OutOfBounds { .. })
        ));
        let inb = c.with_addr(0x1ff0).unwrap();
        assert!(inb.check_cursor_access(16, Perms::LOAD).is_ok());
        assert!(matches!(
            inb.check_cursor_access(17, Perms::LOAD),
            Err(CapError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn access_requires_permissions() {
        let c = root().with_perms(Perms::LOAD).unwrap();
        assert!(c.check_access(0x1000, 8, Perms::LOAD).is_ok());
        let err = c.check_access(0x1000, 8, Perms::STORE).unwrap_err();
        assert_eq!(
            err,
            CapError::PermissionDenied {
                missing: Perms::STORE
            }
        );
    }

    #[test]
    fn seal_unseal_round_trip() {
        let sealer = Capability::new_root(0, 64, Perms::SEAL | Perms::UNSEAL);
        let c = root();
        let sealed = c.seal(OType::SYSCALL_ENTRY, &sealer).unwrap();
        assert!(sealed.is_sealed());
        // Sealed caps are frozen.
        assert!(matches!(sealed.with_addr(0), Err(CapError::Sealed(_))));
        assert!(matches!(
            sealed.check_access(0x1000, 1, Perms::LOAD),
            Err(CapError::Sealed(_))
        ));
        let unsealed = sealed.unseal(&sealer).unwrap();
        assert_eq!(unsealed, c.with_addr(c.addr()).unwrap());
    }

    #[test]
    fn seal_requires_authority() {
        let no_perm = Capability::new_root(0, 64, Perms::empty());
        assert!(matches!(
            root().seal(OType::SYSCALL_ENTRY, &no_perm),
            Err(CapError::PermissionDenied { .. })
        ));
        // Authority bounds must cover the otype value.
        let narrow = Capability::new_root(10, 5, Perms::SEAL);
        assert_eq!(
            root().seal(OType::SYSCALL_ENTRY, &narrow).unwrap_err(),
            CapError::BadSeal
        );
    }

    #[test]
    fn unseal_wrong_otype_range_fails() {
        let sealer = Capability::new_root(0, 64, Perms::SEAL | Perms::UNSEAL);
        let sealed = root().seal(OType::new(40).unwrap(), &sealer).unwrap();
        let wrong = Capability::new_root(0, 8, Perms::UNSEAL);
        assert_eq!(sealed.unseal(&wrong).unwrap_err(), CapError::BadUnseal);
    }

    #[test]
    fn confined_to_detects_escapes() {
        let c = root(); // [0x1000, 0x2000)
        assert!(c.confined_to(0x1000, 0x1000));
        assert!(c.confined_to(0x0, 0x10000));
        assert!(!c.confined_to(0x1800, 0x1000)); // base below region
        assert!(!c.confined_to(0x0, 0x1800)); // top above region
    }

    #[test]
    fn rebase_shifts_and_confines() {
        // Parent region [0x1000,0x2000), child region [0x9000,0xa000).
        let child_root = Capability::new_root(0x9000, 0x1000, Perms::data());
        let parent_ptr = root()
            .with_bounds(0x1200, 0x100)
            .unwrap()
            .with_addr(0x1250)
            .unwrap();
        let reloc = parent_ptr.rebase(0x8000, &child_root).unwrap();
        assert_eq!(reloc.base(), 0x9200);
        assert_eq!(reloc.len(), 0x100);
        assert_eq!(reloc.addr(), 0x9250);
        assert!(reloc.confined_to(0x9000, 0x1000));
        assert_eq!(reloc.perms(), Perms::data());
    }

    #[test]
    fn rebase_clamps_to_root() {
        let child_root = Capability::new_root(0x9000, 0x1000, Perms::data());
        // Parent cap spans the WHOLE parent region plus change; after the
        // shift it must be clamped into the child root.
        let wide = Capability::new_root(0x0800, 0x2000, Perms::data());
        let reloc = wide.rebase(0x8000, &child_root).unwrap();
        assert_eq!(reloc.base(), 0x9000);
        assert_eq!(reloc.top(), 0xa000);
    }

    #[test]
    fn rebase_cannot_gain_perms() {
        let child_root = Capability::new_root(0x9000, 0x1000, Perms::rodata());
        let rw = root(); // data perms
        let reloc = rw.rebase(0x8000, &child_root).unwrap();
        assert!(!reloc.perms().contains(Perms::STORE));
    }

    #[test]
    fn to_bytes_low_half_is_cursor() {
        let c = root().with_addr(0x1234).unwrap();
        let b = c.to_bytes();
        assert_eq!(u64::from_le_bytes(b[..8].try_into().unwrap()), 0x1234);
    }
}
