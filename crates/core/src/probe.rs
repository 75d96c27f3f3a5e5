//! An open-addressed table with linear probing, and the mixer its
//! callers hash with. The serving engine's `BD_ADDR` index and the
//! registry's name index are both a [`ProbeTable`]; each brings its own
//! slot type, which says when a slot is empty and where its home is.

/// The smallest [`ProbeTable`], in slots.
const MIN_TABLE_SLOTS: usize = 8;

/// The splitmix64 finalizer: a bijection on `u64` in which every output
/// bit depends on every input bit.
#[inline]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`ProbeTable`] slot: empty, or one binding, whose home slot comes
/// from a hash the slot stores or computes from its own fields.
pub(crate) trait ProbeSlot: Copy {
    /// The slot that binds nothing.
    const EMPTY: Self;
    /// Whether this slot binds nothing.
    fn is_empty(&self) -> bool;
    /// The hash whose low bits name this binding's home slot. Computed
    /// from the slot alone, so growth and deletion never read a key
    /// kept elsewhere.
    fn home(&self) -> u64;
}

/// An open-addressed table with linear probing.
///
/// - The length is a power of two. A binding that would fill more than
///   half the table doubles it first, so the load stays at or below 1/2
///   and every probe ends at an empty slot.
/// - Doubling re-places each binding by [`ProbeSlot::home`].
/// - [`remove`](ProbeTable::remove) shifts the rest of the cluster back
///   into the hole, so no tombstones build up.
/// - Every probe loop is bounded by the table length.
#[derive(Debug, Clone)]
pub(crate) struct ProbeTable<S> {
    /// A power-of-two count of slots.
    slots: Box<[S]>,
    /// Bindings: at most half of `slots.len()`.
    len: usize,
}

impl<S: ProbeSlot> Default for ProbeTable<S> {
    fn default() -> Self {
        ProbeTable::with_slots(MIN_TABLE_SLOTS)
    }
}

impl<S: ProbeSlot> ProbeTable<S> {
    /// An empty table of at least `slots` slots.
    pub(crate) fn with_slots(slots: usize) -> Self {
        ProbeTable {
            slots: vec![S::EMPTY; slots.max(MIN_TABLE_SLOTS).next_power_of_two()]
                .into_boxed_slice(),
            len: 0,
        }
    }

    /// The table's length in slots, bound or not.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Walks the probe sequence from hash `h`'s home slot: `Ok` with the
    /// first slot `is_key` accepts, `Err` with the first empty slot, or
    /// `None` if neither turns up in one lap of the table.
    #[inline]
    pub(crate) fn probe(
        &self,
        h: u64,
        mut is_key: impl FnMut(&S) -> bool,
    ) -> Option<Result<usize, usize>> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut i = h as usize & mask;
        for _ in 0..self.slots.len() {
            let slot = self.slots.get(i)?;
            if slot.is_empty() {
                return Some(Err(i));
            }
            if is_key(slot) {
                return Some(Ok(i));
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// The binding in slot `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&S> {
        self.slots.get(i)
    }

    /// Binds `slot` in `vacant`, the empty slot where its
    /// [`probe`](ProbeTable::probe) ended. If the binding would fill more
    /// than half the table, the table doubles first and the binding goes
    /// to the first empty slot from its home.
    pub(crate) fn insert(&mut self, vacant: usize, slot: S) {
        let mut at = vacant;
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
            let Some(Err(i)) = self.probe(slot.home(), |_| false) else {
                return;
            };
            at = i;
        }
        if let Some(s) = self.slots.get_mut(at) {
            *s = slot;
            self.len += 1;
        }
    }

    /// Doubles the table and re-places every binding by its home.
    fn grow(&mut self) {
        let doubled = ProbeTable::with_slots(self.slots.len() * 2);
        let old = std::mem::replace(self, doubled);
        for &s in old.slots.iter().filter(|s| !s.is_empty()) {
            if let Some(Err(i)) = self.probe(s.home(), |_| false) {
                if let Some(slot) = self.slots.get_mut(i) {
                    *slot = s;
                }
            }
        }
        self.len = old.len;
    }

    /// Empties slot `hole`. Each later member of its cluster whose probe
    /// sequence passes the hole moves back into it, and the last hole
    /// is emptied (backward-shift deletion).
    pub(crate) fn remove(&mut self, mut hole: usize) {
        let mask = self.slots.len().wrapping_sub(1);
        let mut j = hole;
        for _ in 0..self.slots.len() {
            j = (j + 1) & mask;
            let Some(&s) = self.slots.get(j) else {
                break;
            };
            if s.is_empty() {
                break;
            }
            // The binding at `j` may fill the hole only if the hole lies
            // on its probe sequence, between its home slot and `j`.
            let home = s.home() as usize & mask;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                if let Some(slot) = self.slots.get_mut(hole) {
                    *slot = s;
                }
                hole = j;
            }
        }
        if let Some(slot) = self.slots.get_mut(hole) {
            *slot = S::EMPTY;
        }
        self.len -= 1;
    }
}
