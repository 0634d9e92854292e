//! Per-core tile cache: a small LRU over tile ids.
//!
//! This is what makes locality *emergent* in the simulator: a core that
//! keeps operating on the same tiles (static scheduling) hits its cache
//! and pays nothing for data; a core that executes whatever the global
//! queue hands it (dynamic scheduling) misses constantly and pays the
//! local/remote byte costs — "dynamic scheduling provides no guarantee
//! for threads to reuse data resident in their local cache" (§1).

/// LRU set of tile keys with fixed capacity.
#[derive(Debug, Clone)]
pub struct TileCache {
    /// Most-recent at the back.
    entries: Vec<u64>,
    capacity: usize,
}

impl TileCache {
    /// Create a cache holding at most `capacity` tiles.
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Touch a tile: returns `true` on hit. On miss the tile is inserted,
    /// evicting the least recently used entry if full.
    pub fn touch(&mut self, key: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(pos) = self.entries.iter().position(|&e| e == key) {
            // move to back (most recent)
            let k = self.entries.remove(pos);
            self.entries.push(k);
            true
        } else {
            if self.entries.len() == self.capacity {
                self.entries.remove(0);
            }
            self.entries.push(key);
            false
        }
    }
}

/// Pack a tile coordinate into a cache key.
#[inline]
pub fn tile_key(ti: usize, tj: usize) -> u64 {
    ((ti as u64) << 32) | tj as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = TileCache::new(4);
        assert!(!c.touch(tile_key(0, 0)));
        assert!(c.touch(tile_key(0, 0)));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = TileCache::new(2);
        c.touch(1);
        c.touch(2);
        c.touch(1); // 1 is now most recent
        c.touch(3); // evicts 2
        assert!(c.touch(1), "1 must survive");
        assert!(!c.touch(2), "2 was evicted");
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = TileCache::new(0);
        assert!(!c.touch(5));
        assert!(!c.touch(5));
        assert!(c.entries.is_empty());
    }

    #[test]
    fn distinct_coordinates_distinct_keys() {
        assert_ne!(tile_key(1, 2), tile_key(2, 1));
        assert_ne!(tile_key(0, 7), tile_key(7, 0));
    }

    #[test]
    fn capacity_respected() {
        let mut c = TileCache::new(3);
        for k in 0..10 {
            c.touch(k);
        }
        assert_eq!(c.entries.len(), 3);
    }
}
