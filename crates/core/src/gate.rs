//! Trap-less system-call entry via sealed capabilities (paper §4.4).
//!
//! μFork runs μprocesses and the kernel at the same privilege level
//! (EL1). System calls must therefore be protected without a trap: the
//! kernel publishes a *sealed* code capability pointing at its syscall
//! handler. Sealed capabilities are immutable and non-dereferenceable;
//! invoking one transfers control to the predetermined, unforgeable entry
//! point — the restriction of a traditional syscall instruction, without
//! the exception cost.

use ufork_cheri::{CapError, Capability, OType, Perms};
use ufork_exec::Ctx;
use ufork_sim::Instant;

/// The kernel's system-call gate.
///
/// Holds the sealing authority (kernel-private) and the sealed entry
/// capability (handed to every μprocess). [`SyscallGate::enter`] is what a
/// μprocess "executes" to call the kernel; it verifies the invocation the
/// way hardware would.
#[derive(Clone, Debug)]
pub struct SyscallGate {
    authority: Capability,
    sealed_entry: Capability,
    handler_addr: u64,
}

impl SyscallGate {
    /// Builds the gate at kernel boot.
    ///
    /// `kernel_text` must cover the syscall handler at `handler_addr` and
    /// carry execute permission.
    pub fn new(kernel_text: &Capability, handler_addr: u64) -> Result<SyscallGate, CapError> {
        let authority = Capability::new_root(
            0,
            u64::from(OType::SYSCALL_ENTRY.raw()) + 1,
            Perms::SEAL | Perms::UNSEAL,
        );
        let entry = kernel_text
            .with_addr(handler_addr)?
            .with_perms_masked(Perms::code() | Perms::INVOKE)?;
        entry.check_access(handler_addr, 4, Perms::EXECUTE)?;
        let sealed_entry = entry.seal(OType::SYSCALL_ENTRY, &authority)?;
        Ok(SyscallGate {
            authority,
            sealed_entry,
            handler_addr,
        })
    }

    /// The sealed entry capability a μprocess receives.
    ///
    /// It is sealed, so the μprocess can neither modify it nor jump
    /// anywhere but the handler.
    pub fn user_entry(&self) -> Capability {
        self.sealed_entry
    }

    /// Performs a kernel entry through `entry` (normally
    /// [`SyscallGate::user_entry`], but tests pass forgeries).
    ///
    /// Verifies what the hardware would on `CInvoke`: the capability is
    /// sealed with the syscall otype and unseals to the exact handler
    /// address with execute permission.
    pub fn enter(&self, entry: &Capability) -> Result<(), CapError> {
        if entry.otype() != Some(OType::SYSCALL_ENTRY) {
            return Err(CapError::BadUnseal);
        }
        let unsealed = entry.unseal(&self.authority)?;
        if unsealed.addr() != self.handler_addr {
            return Err(CapError::BadUnseal);
        }
        unsealed.check_access(self.handler_addr, 4, Perms::EXECUTE)?;
        Ok(())
    }

    /// [`SyscallGate::enter`] with trace markers: an accepted invocation
    /// counts a sealed entry and records a `gate/enter` instant on `ctx`'s
    /// sink, a refused one a `gate/reject`. Identical verification either
    /// way.
    pub fn enter_traced(&self, ctx: &mut Ctx, entry: &Capability) -> Result<(), CapError> {
        let r = self.enter(entry);
        if r.is_ok() {
            ctx.counters.sealed_entries += 1;
            ctx.instant(Instant::GateEnter);
        } else {
            ctx.instant(Instant::GateReject);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_text() -> Capability {
        Capability::new_root(0xffff_0000_0000, 0x10_0000, Perms::kernel())
    }

    #[test]
    fn gate_round_trip() {
        let gate = SyscallGate::new(&kernel_text(), 0xffff_0000_1000).unwrap();
        let entry = gate.user_entry();
        assert!(entry.is_sealed());
        gate.enter(&entry).unwrap();
    }

    #[test]
    fn user_cannot_modify_sealed_entry() {
        let gate = SyscallGate::new(&kernel_text(), 0xffff_0000_1000).unwrap();
        let entry = gate.user_entry();
        // Retargeting the entry point fails: sealed caps are frozen.
        assert!(entry.with_addr(0xffff_0000_2000).is_err());
    }

    #[test]
    fn traced_entry_records_accept_and_reject_instants() {
        let gate = SyscallGate::new(&kernel_text(), 0xffff_0000_1000).unwrap();
        let mut ctx = Ctx::traced(16);
        gate.enter_traced(&mut ctx, &gate.user_entry()).unwrap();
        let forged = kernel_text().with_addr(0xffff_0000_1000).unwrap();
        assert!(gate.enter_traced(&mut ctx, &forged).is_err());
        ufork_sim::assert_counter_pairs(&ctx.trace, &ctx.counters);
        assert_eq!(ctx.counters.sealed_entries, 1);
        assert_eq!(ctx.trace.instant_count(Instant::GateReject), 1);
    }

    #[test]
    fn forged_unsealed_entry_rejected() {
        let gate = SyscallGate::new(&kernel_text(), 0xffff_0000_1000).unwrap();
        let forged = kernel_text().with_addr(0xffff_0000_1000).unwrap();
        assert!(gate.enter(&forged).is_err());
    }

    #[test]
    fn entry_sealed_with_wrong_otype_rejected() {
        let gate = SyscallGate::new(&kernel_text(), 0xffff_0000_1000).unwrap();
        let sealer = Capability::new_root(0, 64, Perms::SEAL);
        let wrong = kernel_text()
            .with_addr(0xffff_0000_1000)
            .unwrap()
            .seal(OType::KERNEL_CONTEXT, &sealer)
            .unwrap();
        assert!(gate.enter(&wrong).is_err());
    }

    #[test]
    fn handler_outside_kernel_text_rejected_at_boot() {
        assert!(SyscallGate::new(&kernel_text(), 0x1000).is_err());
    }
}
