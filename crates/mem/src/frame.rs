//! Physical frames with per-granule capability tags.

use std::fmt;

use ufork_cheri::Capability;

/// Page / frame size in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Capability granule size in bytes (one tag bit covers this much memory).
pub const GRANULE_SIZE: u64 = 16;

/// Number of tag granules per page.
pub const GRANULES_PER_PAGE: u64 = PAGE_SIZE / GRANULE_SIZE;

/// Number of granules covered by one tag-summary word (a `CLoadTags`-style
/// bulk tag read returns this many tags at once).
pub const GRANULES_PER_TAG_WORD: u64 = 64;

/// Number of `u64` words in a frame's tag-occupancy bitmap.
pub const TAG_WORDS_PER_PAGE: usize = (GRANULES_PER_PAGE / GRANULES_PER_TAG_WORD) as usize;

/// A physical frame number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pfn(pub u32);

impl Pfn {
    /// The physical byte address of the start of this frame.
    pub const fn phys_addr(self) -> u64 {
        self.0 as u64 * PAGE_SIZE
    }
}

impl fmt::Debug for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pfn({:#x})", self.0)
    }
}

/// A 4 KiB physical frame: data bytes plus out-of-band capability granules.
///
/// A 256-bit **tag bitmap** (`tags`, one bit per 16-byte granule) is the
/// hardware tag storage: bit `g % 64` of word `g / 64` set ⇔ granule `g`
/// holds a valid capability; clear ⇒ the 16 bytes are plain data. It is
/// also the tag summary a Morello `CLoadTags` instruction exposes — 64
/// granule tags per bulk read — which lets the relocation scan skip
/// untagged pages in O(1) and jump straight to the set bits.
///
/// The capabilities the tags protect live in `caps`, a dense array in
/// granule order: tagged granule `g`'s capability is at index `rank(g)`,
/// the number of tag bits set below `g`. The bitmap alone decides which
/// granules are tagged, so `caps.len()` always equals its popcount.
///
/// A fresh frame holds no host buffer: its bytes read as zeros until the
/// first write allocates the page. Many mapped frames are never written,
/// so only written frames cost host memory.
pub struct Frame {
    /// The data bytes; `None` while the frame is all zero and has never
    /// been written. A detached placeholder holds an empty buffer.
    data: Option<Box<[u8]>>,
    caps: Vec<Capability>,
    tags: [u64; TAG_WORDS_PER_PAGE],
}

/// What an unwritten frame's bytes read as.
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

/// Indices of the set bits of a tag bitmap, ascending.
fn set_bits(tags: [u64; TAG_WORDS_PER_PAGE]) -> impl Iterator<Item = u64> {
    tags.into_iter().enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                w as u64 * GRANULES_PER_TAG_WORD + u64::from(b)
            })
        })
    })
}

impl Frame {
    /// A zeroed frame with all tags clear. Its page buffer is allocated
    /// by the first write.
    pub fn zeroed() -> Frame {
        Frame {
            data: None,
            caps: Vec::new(),
            tags: [0; TAG_WORDS_PER_PAGE],
        }
    }

    /// A zero-size placeholder frame holding no backing storage.
    ///
    /// Used by the parallel fork walk to *detach* a frame from the
    /// physical memory array (handing the real frame to a worker thread)
    /// without leaving a hole: the placeholder is swapped in, and the real
    /// frame is swapped back on reattach. Reading or writing a detached
    /// placeholder panics — by construction no mapping points at a frame
    /// while it is detached.
    pub fn detached() -> Frame {
        Frame {
            data: Some(Box::default()),
            caps: Vec::new(),
            tags: [0; TAG_WORDS_PER_PAGE],
        }
    }

    /// True if this is a [`Frame::detached`] placeholder.
    #[inline]
    pub fn is_detached(&self) -> bool {
        self.data.as_ref().is_some_and(|d| d.is_empty())
    }

    /// Resets the frame to the all-zero, no-tags state in place (the
    /// allocation-time scrub of a recycled frame). A written frame keeps
    /// its buffer for the next owner to write into.
    pub fn zero(&mut self) {
        if let Some(d) = &mut self.data {
            d.fill(0);
        }
        self.drop_caps();
    }

    /// The page buffer, allocated zeroed on first use.
    #[inline]
    fn bytes_mut(&mut self) -> &mut [u8] {
        self.data
            .get_or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice())
    }

    /// Clears every tag and releases the capability storage, leaving the
    /// data bytes as they are (the scrub of a recycled frame the caller
    /// overwrites whole). A recycled frame should not pin the capacity
    /// its previous owner's capabilities needed.
    pub fn drop_caps(&mut self) {
        self.caps = Vec::new();
        self.tags = [0; TAG_WORDS_PER_PAGE];
    }

    /// True once a write has given the frame its page buffer.
    #[cfg(test)]
    pub(crate) fn has_buffer(&self) -> bool {
        self.data.is_some()
    }

    /// Capacity of the capability storage.
    #[cfg(test)]
    pub(crate) fn caps_capacity(&self) -> usize {
        self.caps.capacity()
    }

    #[inline]
    fn is_tagged(&self, granule: usize) -> bool {
        self.tags[granule / 64] >> (granule % 64) & 1 == 1
    }

    /// Index in `caps` of granule `granule`'s capability: the number of
    /// tagged granules below it.
    #[inline]
    fn rank(&self, granule: usize) -> usize {
        let w = granule / 64;
        let below: u32 = self.tags[..w].iter().map(|t| t.count_ones()).sum();
        let mask = (1u64 << (granule % 64)) - 1;
        (below + (self.tags[w] & mask).count_ones()) as usize
    }

    /// Read-only view of the frame's data bytes.
    #[inline]
    pub fn data(&self) -> &[u8] {
        self.data.as_deref().unwrap_or(&ZERO_PAGE)
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page; callers (the physical memory
    /// layer) validate ranges first.
    #[inline]
    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        let o = offset as usize;
        buf.copy_from_slice(&self.data()[o..o + buf.len()]);
    }

    /// Writes `buf` at `offset`, clearing the tags of every granule the
    /// write overlaps.
    ///
    /// The tag clear works word-at-a-time on the bitmap. The overlapped
    /// granules are contiguous, so their capabilities are one contiguous
    /// run of `caps`, drained in one go; writing plain data to an untagged
    /// range never touches the array.
    pub fn write(&mut self, offset: u64, buf: &[u8]) {
        if buf.is_empty() {
            return;
        }
        let o = offset as usize;
        self.bytes_mut()[o..o + buf.len()].copy_from_slice(buf);
        let first = offset / GRANULE_SIZE;
        let last = (offset + buf.len() as u64 - 1) / GRANULE_SIZE;
        let mut removed = 0;
        for w in (first / 64) as usize..=(last / 64) as usize {
            let lo = if w as u64 == first / 64 {
                first % 64
            } else {
                0
            };
            let hi = if w as u64 == last / 64 { last % 64 } else { 63 };
            let mask = (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
            removed += (self.tags[w] & mask).count_ones() as usize;
            self.tags[w] &= !mask;
        }
        if removed > 0 {
            let at = self.rank(first as usize);
            self.caps.drain(at..at + removed);
        }
    }

    /// Stores a capability at a granule-aligned `offset`, setting its tag
    /// (or overwriting the capability already there).
    ///
    /// The granule's data bytes are set to the capability's data view so
    /// that subsequent untagged reads see the cursor value.
    pub fn store_cap(&mut self, offset: u64, cap: &Capability) {
        debug_assert_eq!(offset % GRANULE_SIZE, 0);
        self.write_cap_bytes(offset, cap);
        let g = (offset / GRANULE_SIZE) as usize;
        let at = self.rank(g);
        if self.is_tagged(g) {
            self.caps[at] = *cap;
        } else {
            self.caps.insert(at, *cap);
            self.tags[g / 64] |= 1u64 << (g % 64);
        }
    }

    #[inline]
    fn write_cap_bytes(&mut self, offset: u64, cap: &Capability) {
        let o = offset as usize;
        self.bytes_mut()[o..o + GRANULE_SIZE as usize].copy_from_slice(&cap.to_bytes());
    }

    /// Loads the capability at granule-aligned `offset`.
    ///
    /// Returns `None` when the granule's tag is clear — the 16 bytes are
    /// then plain data and must be read with [`Frame::read`].
    #[inline]
    pub fn load_cap(&self, offset: u64) -> Option<Capability> {
        debug_assert_eq!(offset % GRANULE_SIZE, 0);
        let g = (offset / GRANULE_SIZE) as usize;
        self.is_tagged(g).then(|| self.caps[self.rank(g)])
    }

    /// True if the granule at `offset` holds a valid capability: a tag
    /// read that copies nothing out.
    #[inline]
    pub fn is_tagged_at(&self, offset: u64) -> bool {
        self.is_tagged((offset / GRANULE_SIZE) as usize)
    }

    /// Clears the tag (if any) of the granule at `offset`.
    pub fn clear_tag(&mut self, offset: u64) {
        let g = (offset / GRANULE_SIZE) as usize;
        if self.is_tagged(g) {
            self.caps.remove(self.rank(g));
            self.tags[g / 64] &= !(1u64 << (g % 64));
        }
    }

    /// Returns true if any granule in the frame holds a valid capability.
    #[inline]
    pub fn has_caps(&self) -> bool {
        self.tags.iter().any(|&w| w != 0)
    }

    /// Number of tagged granules in the frame (bitmap popcount).
    #[inline]
    pub fn cap_count(&self) -> usize {
        self.tags.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The tag-occupancy bitmap: one bit per granule, 64 granules per
    /// word — the view a `CLoadTags` bulk tag read exposes. Bit `g % 64`
    /// of word `g / 64` is set iff granule `g` holds a valid capability.
    #[inline]
    pub fn tag_words(&self) -> [u64; TAG_WORDS_PER_PAGE] {
        self.tags
    }

    /// Iterates `(byte_offset, capability)` over every tagged granule.
    ///
    /// μFork's relocation pass uses this as its "scan in 16-byte
    /// increments" (paper §4.2); the iteration visits granules in address
    /// order, exactly like the sequential hardware scan.
    pub fn tagged_granules(&self) -> impl Iterator<Item = (u64, Capability)> + '_ {
        set_bits(self.tags)
            .zip(&self.caps)
            .map(|(g, c)| (g * GRANULE_SIZE, *c))
    }

    /// Rewrites every tagged granule in address order, in place.
    ///
    /// `f` gets each granule's byte offset and capability and returns what
    /// the granule holds afterwards: `Some(cap)` keeps it tagged (its data
    /// bytes are rewritten only if `cap` differs from the old value),
    /// `None` clears its tag and leaves its bytes as plain data. Kept
    /// capabilities are compacted over cleared ones in the same pass, so
    /// the whole rewrite allocates nothing. This is relocation's fix-up
    /// loop (paper §4.2).
    pub fn rewrite_caps(&mut self, mut f: impl FnMut(u64, &Capability) -> Option<Capability>) {
        // `i` walks the old ranks, `kept` the new ones. `bits` is a copy of
        // the tag word, so clearing a tag mid-walk does not disturb it.
        let (mut i, mut kept) = (0, 0);
        for w in 0..TAG_WORDS_PER_PAGE {
            let mut bits = self.tags[w];
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let offset = (w as u64 * GRANULES_PER_TAG_WORD + u64::from(b)) * GRANULE_SIZE;
                let old = self.caps[i];
                i += 1;
                match f(offset, &old) {
                    Some(cap) => {
                        if cap != old {
                            self.write_cap_bytes(offset, &cap);
                        }
                        self.caps[kept] = cap;
                        kept += 1;
                    }
                    None => self.tags[w] &= !(1u64 << b),
                }
            }
        }
        self.caps.truncate(kept);
    }

    /// Deep-copies another frame's data and tags into this one, reusing
    /// this frame's buffer and capability storage. A copy of an unwritten
    /// frame allocates no buffer.
    pub fn copy_from(&mut self, other: &Frame) {
        match (&other.data, &mut self.data) {
            (Some(src), _) => self.bytes_mut().copy_from_slice(src),
            (None, Some(d)) => d.fill(0),
            (None, None) => {}
        }
        self.caps.clone_from(&other.caps);
        self.tags = other.tags;
    }

    /// Test/audit invariant: the capability array holds exactly one entry
    /// per tag bit.
    pub fn check_tag_invariant(&self) -> bool {
        self.caps.len() == self.cap_count()
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Frame({} tagged granules)", self.cap_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufork_cheri::Perms;

    fn cap(addr: u64) -> Capability {
        Capability::new_root(addr, 64, Perms::data())
    }

    #[test]
    fn zeroed_frame_has_no_tags() {
        let f = Frame::zeroed();
        assert!(!f.has_caps());
        assert_eq!(f.load_cap(0), None);
        assert!(f.data().iter().all(|&b| b == 0));
        assert_eq!(f.tag_words(), [0; TAG_WORDS_PER_PAGE]);
    }

    #[test]
    fn unwritten_frame_allocates_its_buffer_on_first_write() {
        let mut f = Frame::zeroed();
        let mut out = [0xffu8; 8];
        f.read(4088, &mut out);
        assert_eq!(out, [0; 8]);
        assert_eq!(f.data().len(), PAGE_SIZE as usize);
        f.zero();
        f.write(0, &[]);
        assert!(!f.has_buffer());
        f.write(4095, &[7]);
        assert!(f.has_buffer());
        assert_eq!(f.data()[4095], 7);

        // A copy of an unwritten frame zeroes a written destination in
        // place and leaves an unwritten one without a buffer.
        let blank = Frame::zeroed();
        f.copy_from(&blank);
        assert!(f.has_buffer() && f.data().iter().all(|&b| b == 0));
        let mut g = Frame::zeroed();
        g.copy_from(&blank);
        assert!(!g.has_buffer());
        g.store_cap(16, &cap(0x9000));
        assert!(g.has_buffer());
        assert_eq!(g.load_cap(16), Some(cap(0x9000)));
    }

    #[test]
    fn data_write_read_round_trip() {
        let mut f = Frame::zeroed();
        f.write(100, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        f.read(100, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn cap_store_load_round_trip() {
        let mut f = Frame::zeroed();
        let c = cap(0x9000);
        f.store_cap(32, &c);
        assert_eq!(f.load_cap(32), Some(c));
        assert_eq!(f.cap_count(), 1);
        // Granule 2 → bit 2 of word 0.
        assert_eq!(f.tag_words()[0], 1 << 2);
    }

    #[test]
    fn data_write_clears_overlapping_tags() {
        let mut f = Frame::zeroed();
        f.store_cap(16, &cap(0x9000));
        f.store_cap(48, &cap(0x9100));
        // Write spans the tail of granule 1 and head of granule 2 (offsets
        // 30..34): clears granule 1's tag, granule 3 (offset 48) untouched.
        f.write(30, &[0xaa; 4]);
        assert_eq!(f.load_cap(16), None);
        assert_eq!(f.load_cap(48), Some(cap(0x9100)));
        assert_eq!(f.tag_words()[0], 1 << 3);
        assert!(f.check_tag_invariant());
    }

    #[test]
    fn zero_length_write_clears_nothing() {
        let mut f = Frame::zeroed();
        f.store_cap(0, &cap(0x9000));
        f.write(0, &[]);
        assert_eq!(f.load_cap(0), Some(cap(0x9000)));
        assert_eq!(f.cap_count(), 1);
    }

    #[test]
    fn cap_bytes_visible_as_data() {
        let mut f = Frame::zeroed();
        f.store_cap(0, &cap(0x1234_5678));
        let mut out = [0u8; 8];
        f.read(0, &mut out);
        assert_eq!(u64::from_le_bytes(out), 0x1234_5678);
    }

    #[test]
    fn tagged_granules_in_order() {
        let mut f = Frame::zeroed();
        f.store_cap(64, &cap(0xa000));
        f.store_cap(16, &cap(0xb000));
        let offs: Vec<u64> = f.tagged_granules().map(|(o, _)| o).collect();
        assert_eq!(offs, vec![16, 64]);
    }

    #[test]
    fn copy_from_carries_tags() {
        let mut a = Frame::zeroed();
        a.write(0, &[7; 16]);
        a.store_cap(16, &cap(0xc000));
        let mut b = Frame::zeroed();
        // Pre-existing tags in the destination must be fully replaced.
        b.store_cap(128, &cap(0xdddd));
        b.copy_from(&a);
        assert_eq!(b.load_cap(16), Some(cap(0xc000)));
        assert_eq!(b.load_cap(128), None);
        assert_eq!(b.data()[..16], [7; 16]);
        assert_eq!(b.tag_words(), a.tag_words());
        assert!(b.check_tag_invariant());
    }

    #[test]
    fn clear_tag_updates_bitmap() {
        let mut f = Frame::zeroed();
        f.store_cap(1024, &cap(0xe000)); // granule 64 → word 1 bit 0
        assert_eq!(f.tag_words()[1], 1);
        f.clear_tag(1024);
        assert_eq!(f.tag_words(), [0; TAG_WORDS_PER_PAGE]);
        assert!(!f.has_caps());
        assert!(f.check_tag_invariant());
    }

    #[test]
    fn bitmap_spans_all_four_words() {
        let mut f = Frame::zeroed();
        for word in 0..TAG_WORDS_PER_PAGE as u64 {
            let g = word * GRANULES_PER_TAG_WORD + word; // bit `word` of each word
            f.store_cap(g * GRANULE_SIZE, &cap(0xf000 + g));
        }
        for (i, w) in f.tag_words().iter().enumerate() {
            assert_eq!(*w, 1 << i, "word {i}");
        }
        assert_eq!(f.cap_count(), TAG_WORDS_PER_PAGE);
    }

    #[test]
    fn zero_resets_data_and_tags() {
        let mut f = Frame::zeroed();
        f.write(0, &[0xff; 64]);
        f.store_cap(128, &cap(0xa000));
        f.zero();
        assert!(f.data().iter().all(|&b| b == 0));
        assert!(!f.has_caps());
        assert_eq!(f.tag_words(), [0; TAG_WORDS_PER_PAGE]);
        assert!(f.check_tag_invariant());
    }

    #[test]
    fn detached_placeholder_holds_nothing() {
        let f = Frame::detached();
        assert!(f.is_detached());
        assert!(!Frame::zeroed().is_detached());
        assert!(!f.has_caps());
        assert_eq!(f.data().len(), 0);
    }

    #[test]
    fn write_spanning_tag_words_clears_all_overlapped() {
        let mut f = Frame::zeroed();
        // Granule 63 (word 0, bit 63) and granule 64 (word 1, bit 0).
        f.store_cap(63 * GRANULE_SIZE, &cap(0xa000));
        f.store_cap(64 * GRANULE_SIZE, &cap(0xb000));
        f.store_cap(200 * GRANULE_SIZE, &cap(0xc000)); // word 3: untouched
        f.write(63 * GRANULE_SIZE - 8, &[0u8; 40]); // spans granules 62..=65
        assert_eq!(f.load_cap(63 * GRANULE_SIZE), None);
        assert_eq!(f.load_cap(64 * GRANULE_SIZE), None);
        assert_eq!(f.load_cap(200 * GRANULE_SIZE), Some(cap(0xc000)));
        assert!(f.check_tag_invariant());
    }

    #[test]
    fn store_over_tagged_granule_overwrites_in_place() {
        let mut f = Frame::zeroed();
        f.store_cap(0, &cap(0xa000));
        f.store_cap(32, &cap(0xb000));
        f.store_cap(64, &cap(0xc000));
        f.store_cap(32, &cap(0xbbbb));
        assert_eq!(f.cap_count(), 3);
        assert!(f.check_tag_invariant());
        let caps: Vec<_> = f.tagged_granules().collect();
        assert_eq!(
            caps,
            vec![(0, cap(0xa000)), (32, cap(0xbbbb)), (64, cap(0xc000))]
        );
    }

    #[test]
    fn rewrite_caps_replaces_and_compacts_in_address_order() {
        let mut f = Frame::zeroed();
        // One granule in each tag word, plus a neighbour in word 0.
        for g in [1u64, 2, 70, 140, 255] {
            f.store_cap(g * GRANULE_SIZE, &cap(0x1000 * g));
        }
        let mut seen = Vec::new();
        f.rewrite_caps(|off, c| {
            seen.push(off);
            match off / GRANULE_SIZE {
                2 | 140 => None,
                70 => Some(cap(0x7777)),
                _ => Some(*c),
            }
        });
        assert_eq!(seen, [1, 2, 70, 140, 255].map(|g| g * GRANULE_SIZE));
        assert!(f.check_tag_invariant());
        let caps: Vec<_> = f.tagged_granules().collect();
        assert_eq!(
            caps,
            vec![
                (GRANULE_SIZE, cap(0x1000)),
                (70 * GRANULE_SIZE, cap(0x7777)),
                (255 * GRANULE_SIZE, cap(0xff000)),
            ]
        );
        // The replaced granule's bytes show the new cursor; the cleared
        // one keeps its old bytes as plain data.
        let mut out = [0u8; 8];
        f.read(70 * GRANULE_SIZE, &mut out);
        assert_eq!(u64::from_le_bytes(out), 0x7777);
        f.read(2 * GRANULE_SIZE, &mut out);
        assert_eq!(u64::from_le_bytes(out), 0x2000);
        assert_eq!(f.load_cap(2 * GRANULE_SIZE), None);
    }

    #[test]
    fn pfn_phys_addr() {
        assert_eq!(Pfn(0).phys_addr(), 0);
        assert_eq!(Pfn(2).phys_addr(), 2 * PAGE_SIZE);
    }
}
