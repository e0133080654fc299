//! Capability permission bits.

use core::fmt;
use core::ops::{BitAnd, BitOr, Not};

/// Permission set carried by a [`crate::Capability`].
///
/// Mirrors the architectural permissions the μFork prototype uses on
/// Morello. Like the hardware, permissions are monotonic: derivation can
/// clear bits but never set them ([`crate::Capability::with_perms`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perms(u16);

impl Perms {
    /// Load (read) data through the capability.
    pub const LOAD: Perms = Perms(1 << 0);
    /// Store (write) data through the capability.
    pub const STORE: Perms = Perms(1 << 1);
    /// Fetch instructions through the capability (PCC).
    pub const EXECUTE: Perms = Perms(1 << 2);
    /// Load *capabilities* (tagged values) through the capability.
    pub const LOAD_CAP: Perms = Perms(1 << 3);
    /// Store *capabilities* (tagged values) through the capability.
    pub const STORE_CAP: Perms = Perms(1 << 4);
    /// Seal other capabilities with an otype drawn from this capability.
    pub const SEAL: Perms = Perms(1 << 5);
    /// Unseal capabilities sealed with an otype within bounds.
    pub const UNSEAL: Perms = Perms(1 << 6);
    /// Access privileged system registers / instructions (MSR, MRS, ...).
    ///
    /// μprocess capabilities never carry this bit; the kernel's do. This is
    /// how μFork prevents user code running at EL1 from executing
    /// privileged instructions (paper §4.4, principle 2).
    pub const SYSTEM: Perms = Perms(1 << 7);
    /// Global: the capability may be stored anywhere (vs. stack-local).
    pub const GLOBAL: Perms = Perms(1 << 8);
    /// Invoke a sealed capability pair (CInvoke-style domain transition).
    pub const INVOKE: Perms = Perms(1 << 9);

    /// The empty permission set.
    pub const fn empty() -> Perms {
        Perms(0)
    }

    /// Every permission bit set (the root capability's permissions).
    pub const fn all() -> Perms {
        Perms(0x3ff)
    }

    /// Typical permissions for user data memory: load/store of both data
    /// and capabilities, global.
    pub const fn data() -> Perms {
        Perms(
            Perms::LOAD.0
                | Perms::STORE.0
                | Perms::LOAD_CAP.0
                | Perms::STORE_CAP.0
                | Perms::GLOBAL.0,
        )
    }

    /// Typical permissions for read-only data: loads only (incl. capability
    /// loads), global.
    pub const fn rodata() -> Perms {
        Perms(Perms::LOAD.0 | Perms::LOAD_CAP.0 | Perms::GLOBAL.0)
    }

    /// Typical permissions for executable code: load + execute.
    pub const fn code() -> Perms {
        Perms(Perms::LOAD.0 | Perms::EXECUTE.0 | Perms::GLOBAL.0)
    }

    /// Kernel root permissions: everything, including [`Perms::SYSTEM`].
    pub const fn kernel() -> Perms {
        Perms::all()
    }

    /// Returns true if every bit in `other` is present in `self`.
    pub const fn contains(self, other: Perms) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns true if no bits are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Returns true if `self` is a (non-strict) subset of `other`.
    ///
    /// Monotonicity checks use this: a derived permission set must satisfy
    /// `derived.is_subset_of(original)`.
    #[inline]
    pub const fn is_subset_of(self, other: Perms) -> bool {
        self.0 & !other.0 == 0
    }

    /// The raw bit representation (for storing capabilities into simulated
    /// memory).
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Rebuild from raw bits, masking out undefined bits.
    pub const fn from_bits(bits: u16) -> Perms {
        Perms(bits & Perms::all().0)
    }
}

impl BitOr for Perms {
    type Output = Perms;
    fn bitor(self, rhs: Perms) -> Perms {
        Perms(self.0 | rhs.0)
    }
}

impl BitAnd for Perms {
    type Output = Perms;
    #[inline]
    fn bitand(self, rhs: Perms) -> Perms {
        Perms(self.0 & rhs.0)
    }
}

impl Not for Perms {
    type Output = Perms;
    fn not(self) -> Perms {
        Perms(!self.0 & Perms::all().0)
    }
}

impl fmt::Debug for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let names = [
            (Perms::LOAD, "LOAD"),
            (Perms::STORE, "STORE"),
            (Perms::EXECUTE, "EXECUTE"),
            (Perms::LOAD_CAP, "LOAD_CAP"),
            (Perms::STORE_CAP, "STORE_CAP"),
            (Perms::SEAL, "SEAL"),
            (Perms::UNSEAL, "UNSEAL"),
            (Perms::SYSTEM, "SYSTEM"),
            (Perms::GLOBAL, "GLOBAL"),
            (Perms::INVOKE, "INVOKE"),
        ];
        write!(f, "Perms(")?;
        for (bit, name) in names {
            if self.contains(bit) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_perms_contain_loads_and_stores() {
        let p = Perms::data();
        assert!(p.contains(Perms::LOAD));
        assert!(p.contains(Perms::STORE));
        assert!(p.contains(Perms::LOAD_CAP));
        assert!(p.contains(Perms::STORE_CAP));
        assert!(!p.contains(Perms::SYSTEM));
        assert!(!p.contains(Perms::EXECUTE));
    }

    #[test]
    fn subset_relation() {
        assert!(Perms::rodata().is_subset_of(Perms::data()));
        assert!(!Perms::data().is_subset_of(Perms::rodata()));
        assert!(Perms::empty().is_subset_of(Perms::empty()));
        assert!(Perms::all().is_subset_of(Perms::all()));
        assert!(!Perms::all().is_subset_of(Perms::data()));
    }

    #[test]
    fn bit_ops_round_trip() {
        let p = Perms::LOAD | Perms::STORE;
        assert_eq!(Perms::from_bits(p.bits()), p);
        assert_eq!(p & Perms::LOAD, Perms::LOAD);
        assert!((!p).contains(Perms::EXECUTE));
        assert!(!(!p).contains(Perms::LOAD));
    }

    #[test]
    fn from_bits_masks_undefined() {
        assert_eq!(Perms::from_bits(0xffff), Perms::all());
    }

    #[test]
    fn kernel_has_system_user_does_not() {
        assert!(Perms::kernel().contains(Perms::SYSTEM));
        assert!(!Perms::data().contains(Perms::SYSTEM));
        assert!(!Perms::code().contains(Perms::SYSTEM));
    }

    #[test]
    fn debug_formatting_lists_bits() {
        let s = format!("{:?}", Perms::LOAD | Perms::EXECUTE);
        assert!(s.contains("LOAD"));
        assert!(s.contains("EXECUTE"));
        assert_eq!(format!("{:?}", Perms::empty()), "Perms(-)");
    }
}
