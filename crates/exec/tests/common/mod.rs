//! The flat-memory backend the machine tests share, independent of any
//! real kernel: every process gets a flat buffer that fork copies, and
//! named shared-memory objects are genuinely shared between processes (a
//! ring pushed by one process is visible to another). No page tables,
//! no refcounts — pure machine testing.

use std::collections::BTreeMap;

use ufork_abi::{Capability, Errno, ImageSpec, IsolationLevel, Pid, SysResult};
use ufork_cheri::Perms;
use ufork_exec::{Ctx, MemOs};
use ufork_mem::MemStats;
use ufork_sim::CostModel;

/// Bytes of each process's flat buffer.
pub const MEM_LEN: u64 = 128 * 1024;
/// Shm windows live in their own address range so loads/stores route to
/// the shared object rather than the caller's private buffer.
const SHM_BASE: u64 = 1 << 32;
const SHM_STRIDE: u64 = 1 << 20;

/// The backend. The one fault it raises on its own is a load reaching
/// the page at `poisoned_page` (an offset into a process buffer): like a
/// real page-by-page load, the bytes before that page are delivered
/// first.
pub struct FlatOs {
    pub cost: CostModel,
    /// Whether the machine serializes kernel work on one big lock.
    pub big_lock: bool,
    pub poisoned_page: Option<usize>,
    pub isolation: IsolationLevel,
    /// What a user copy costs, ns per byte.
    pub copyio: f64,
    /// Each process's buffer and registers.
    pub procs: BTreeMap<Pid, (Vec<u8>, Vec<Option<Capability>>)>,
    /// Named shared objects, indexed by their place in the shm range.
    pub shm: Vec<(String, Vec<u8>)>,
}

/// No big lock, no poisoned page, `Fault` isolation, free user copies.
impl Default for FlatOs {
    fn default() -> FlatOs {
        FlatOs {
            cost: CostModel::morello(),
            big_lock: false,
            poisoned_page: None,
            isolation: IsolationLevel::Fault,
            copyio: 0.0,
            procs: BTreeMap::new(),
            shm: Vec::new(),
        }
    }
}

/// A capability over `len` bytes of `pid`'s buffer.
fn root(pid: Pid, len: u64) -> Capability {
    Capability::new_root(u64::from(pid.0) << 20, len, Perms::data())
}

/// The shared object `addr` falls in and the offset into it, if `addr`
/// lies in the shm range.
fn shm_slot(addr: u64) -> Option<(usize, usize)> {
    let rel = addr.checked_sub(SHM_BASE)?;
    Some(((rel / SHM_STRIDE) as usize, (rel % SHM_STRIDE) as usize))
}

impl MemOs for FlatOs {
    fn cost(&self) -> &CostModel {
        &self.cost
    }
    fn spawn(&mut self, _ctx: &mut Ctx, pid: Pid, _image: &ImageSpec) -> SysResult<()> {
        let mut regs = vec![None; 16];
        regs[0] = Some(root(pid, MEM_LEN));
        self.procs.insert(pid, (vec![0; MEM_LEN as usize], regs));
        Ok(())
    }
    fn fork(&mut self, ctx: &mut Ctx, parent: Pid, child: Pid) -> SysResult<()> {
        ctx.kernel(self.cost.fork_fixed_ufork);
        // Registers are copied wholesale — the stand-in for the register
        // relocation walk, so sealed ring endpoints in high registers
        // survive into the child.
        let (mem, mut regs) = self.procs.get(&parent).ok_or(Errno::Inval)?.clone();
        regs[0] = Some(root(child, MEM_LEN));
        self.procs.insert(child, (mem, regs));
        Ok(())
    }
    fn destroy(&mut self, _ctx: &mut Ctx, pid: Pid) {
        self.procs.remove(&pid);
    }
    fn load(&mut self, _c: &mut Ctx, pid: Pid, cap: &Capability, buf: &mut [u8]) -> SysResult<()> {
        if let Some((idx, off)) = shm_slot(cap.addr()) {
            let (_, obj) = self.shm.get(idx).ok_or(Errno::Fault)?;
            buf.copy_from_slice(&obj[off..off + buf.len()]);
            return Ok(());
        }
        let (mem, _) = self.procs.get(&pid).ok_or(Errno::Inval)?;
        let off = (cap.addr() & 0xf_ffff) as usize;
        let end = off + buf.len();
        if let Some(bad) = self.poisoned_page.filter(|&p| off < p + 4096 && p < end) {
            let good = bad.saturating_sub(off);
            buf[..good].copy_from_slice(&mem[off..off + good]);
            return Err(Errno::Fault);
        }
        buf.copy_from_slice(&mem[off..end]);
        Ok(())
    }
    fn store(&mut self, _c: &mut Ctx, pid: Pid, cap: &Capability, data: &[u8]) -> SysResult<()> {
        if let Some((idx, off)) = shm_slot(cap.addr()) {
            let (_, obj) = self.shm.get_mut(idx).ok_or(Errno::Fault)?;
            obj[off..off + data.len()].copy_from_slice(data);
            return Ok(());
        }
        let (mem, _) = self.procs.get_mut(&pid).ok_or(Errno::Inval)?;
        let off = (cap.addr() & 0xf_ffff) as usize;
        mem[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }
    fn load_cap(
        &mut self,
        _c: &mut Ctx,
        _p: Pid,
        _cap: &Capability,
    ) -> SysResult<Option<Capability>> {
        Ok(None)
    }
    fn store_cap(
        &mut self,
        _c: &mut Ctx,
        _p: Pid,
        _cap: &Capability,
        _v: &Capability,
    ) -> SysResult<()> {
        Ok(())
    }
    fn malloc(&mut self, _c: &mut Ctx, pid: Pid, _len: u64) -> SysResult<Capability> {
        Ok(root(pid, 4096))
    }
    fn mfree(&mut self, _c: &mut Ctx, _p: Pid, _cap: &Capability) -> SysResult<()> {
        Ok(())
    }
    fn reg(&self, pid: Pid, idx: usize) -> SysResult<Capability> {
        self.procs
            .get(&pid)
            .and_then(|(_, r)| r.get(idx).copied().flatten())
            .ok_or(Errno::Inval)
    }
    fn set_reg(&mut self, pid: Pid, idx: usize, cap: Capability) -> SysResult<()> {
        let (_, regs) = self.procs.get_mut(&pid).ok_or(Errno::Inval)?;
        *regs.get_mut(idx).ok_or(Errno::Inval)? = Some(cap);
        Ok(())
    }
    fn shm_open(&mut self, _c: &mut Ctx, _pid: Pid, name: &str, len: u64) -> SysResult<Capability> {
        let idx = match self.shm.iter().position(|(n, _)| n == name) {
            Some(i) => i,
            None => {
                self.shm.push((name.to_string(), vec![0; len as usize]));
                self.shm.len() - 1
            }
        };
        Ok(Capability::new_root(
            SHM_BASE + idx as u64 * SHM_STRIDE,
            len,
            Perms::data(),
        ))
    }
    fn mmap_anon(&mut self, _c: &mut Ctx, pid: Pid, len: u64) -> SysResult<Capability> {
        Ok(root(pid, len))
    }
    fn syscall_entry_cost(&self) -> f64 {
        100.0
    }
    fn syscall_is_trap(&self) -> bool {
        false
    }
    fn ctx_switch_cost(&self, _f: Pid, _t: Pid) -> f64 {
        1000.0
    }
    fn big_kernel_lock(&self) -> bool {
        self.big_lock
    }
    fn isolation(&self) -> IsolationLevel {
        self.isolation
    }
    fn copyio_cost_per_byte(&self) -> f64 {
        self.copyio
    }
    fn mem_stats(&self, _pid: Pid) -> MemStats {
        MemStats::default()
    }
    fn allocated_frames(&self) -> u32 {
        self.procs.len() as u32 * 16
    }
    fn peak_frames(&self) -> u32 {
        self.allocated_frames()
    }
    fn audit_isolation(&self, _pid: Pid) -> usize {
        0
    }
}
