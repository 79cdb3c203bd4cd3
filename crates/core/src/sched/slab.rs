//! A free-list slab arena.
//!
//! Running-op state lives here: insertion hands out a stable `u32` key,
//! removal recycles the slot via a free list, and lookups are a bounds
//! check plus an `Option` discriminant — no hashing, no tree walks, no
//! per-step allocation once the arena has warmed up to the working-set
//! size.

/// Free-list slab; see the module docs.
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab { entries: Vec::new(), free: Vec::new() }
    }

    /// Number of occupied slots.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.iter().count()
    }

    /// Total slots ever allocated (occupied + free-listed).
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Store `value`, reusing a free slot when one exists; returns the
    /// slot key.
    pub fn insert(&mut self, value: T) -> u32 {
        if let Some(k) = self.free.pop() {
            debug_assert!(self.entries[k as usize].is_none());
            self.entries[k as usize] = Some(value);
            k
        } else {
            let k = self.entries.len() as u32;
            self.entries.push(Some(value));
            k
        }
    }

    /// Remove and return the value at `key`.
    ///
    /// # Panics
    /// Panics if the slot is vacant.
    pub fn remove(&mut self, key: u32) -> T {
        let v = self.entries[key as usize].take().expect("slab: remove of vacant slot");
        self.free.push(key);
        v
    }

    /// Borrow the value at `key`, if occupied.
    pub fn get(&self, key: u32) -> Option<&T> {
        self.entries.get(key as usize).and_then(|e| e.as_ref())
    }

    /// Mutably borrow the value at `key`, if occupied.
    pub fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        self.entries.get_mut(key as usize).and_then(|e| e.as_mut())
    }

    /// Iterate occupied slots as `(key, &value)`.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.entries.iter().enumerate().filter_map(|(i, e)| e.as_ref().map(|v| (i as u32, v)))
    }
}

impl<T> std::ops::Index<u32> for Slab<T> {
    type Output = T;
    fn index(&self, key: u32) -> &T {
        self.entries[key as usize].as_ref().expect("slab: index of vacant slot")
    }
}

impl<T> std::ops::IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, key: u32) -> &mut T {
        self.entries[key as usize].as_mut().expect("slab: index of vacant slot")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_slots_recycle() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        let c = s.insert("c");
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(s.remove(b), "b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(b), None);
        assert_eq!(s[a], "a");
        assert_eq!(s[c], "c");
        // The freed slot is reused; no new capacity.
        let d = s.insert("d");
        assert_eq!(d, b);
        assert_eq!(s.capacity(), 3);
        let keys: Vec<u32> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "vacant")]
    fn removing_a_vacant_slot_panics() {
        let mut s = Slab::new();
        let k = s.insert(1u8);
        s.remove(k);
        s.remove(k);
    }
}
