//! Fixed-capacity ring buffer.
//!
//! The controller keeps, for every vCPU, the consumption of the last `n`
//! iterations (§III.B.2). A ring buffer gives O(1) push with no
//! per-iteration allocation, which matters because the estimation stage
//! runs once per second for every vCPU on the node.

/// A bounded FIFO that overwrites its oldest element when full.
///
/// Iteration order is oldest → newest.
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    buf: Vec<T>,
    /// Index of the oldest element when the buffer is full; insertion
    /// point otherwise.
    head: usize,
    cap: usize,
}

impl<T: Copy> RingBuffer<T> {
    /// Create an empty buffer holding at most `cap` elements.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring buffer capacity must be positive");
        RingBuffer {
            buf: Vec::with_capacity(cap),
            head: 0,
            cap,
        }
    }

    /// Append a value, evicting the oldest if at capacity.
    #[inline]
    pub fn push(&mut self, value: T) {
        if self.buf.len() < self.cap {
            self.buf.push(value);
        } else {
            self.buf[self.head] = value;
            // Compare and wrap: no division on the per-vCPU path.
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
    }

    /// Number of stored elements (≤ capacity).
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    /// Any elements stored?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// `true` once `capacity` elements have been pushed.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.cap
    }

    #[inline]
    /// Maximum number of stored elements.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Most recently pushed element.
    #[inline]
    pub fn latest(&self) -> Option<T> {
        if self.buf.is_empty() {
            None
        } else if self.buf.len() < self.cap {
            self.buf.last().copied()
        } else {
            let idx = if self.head == 0 { self.cap } else { self.head };
            Some(self.buf[idx - 1])
        }
    }

    /// Oldest stored element.
    #[inline]
    pub fn oldest(&self) -> Option<T> {
        if self.buf.is_empty() {
            None
        } else if self.buf.len() < self.cap {
            Some(self.buf[0])
        } else {
            Some(self.buf[self.head])
        }
    }

    /// Iterate oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        let (older, newer) = if self.buf.len() < self.cap {
            (&self.buf[..], &[][..])
        } else {
            (&self.buf[self.head..], &self.buf[..self.head])
        };
        older.iter().copied().chain(newer.iter().copied())
    }

    /// Copy contents (oldest → newest) into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }

    /// Drop all elements, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = RingBuffer::<u32>::new(0);
    }

    #[test]
    fn fills_then_wraps() {
        let mut rb = RingBuffer::new(3);
        assert!(rb.is_empty());
        rb.push(1);
        rb.push(2);
        assert_eq!(rb.to_vec(), vec![1, 2]);
        assert!(!rb.is_full());
        rb.push(3);
        assert!(rb.is_full());
        assert_eq!(rb.to_vec(), vec![1, 2, 3]);
        rb.push(4); // evicts 1
        assert_eq!(rb.to_vec(), vec![2, 3, 4]);
        rb.push(5);
        rb.push(6);
        rb.push(7);
        assert_eq!(rb.to_vec(), vec![5, 6, 7]);
        assert_eq!(rb.len(), 3);
    }

    #[test]
    fn latest_and_oldest() {
        let mut rb = RingBuffer::new(3);
        assert_eq!(rb.latest(), None);
        assert_eq!(rb.oldest(), None);
        rb.push(10);
        assert_eq!(rb.latest(), Some(10));
        assert_eq!(rb.oldest(), Some(10));
        rb.push(20);
        rb.push(30);
        rb.push(40);
        assert_eq!(rb.latest(), Some(40));
        assert_eq!(rb.oldest(), Some(20));
    }

    #[test]
    fn clear_resets() {
        let mut rb = RingBuffer::new(2);
        rb.push(1);
        rb.push(2);
        rb.push(3);
        rb.clear();
        assert!(rb.is_empty());
        assert_eq!(rb.latest(), None);
        rb.push(9);
        assert_eq!(rb.to_vec(), vec![9]);
    }

    proptest! {
        /// `push`, `oldest`, `latest`, `len`, `is_full` and `to_vec` agree
        /// with a `Vec` that drops its front beyond capacity, at capacities
        /// 1, 2 and 5, through many wraps and a `clear`.
        #[test]
        fn prop_agrees_with_a_vec_model(
            cap_pick in 0usize..3,
            values in proptest::collection::vec(0u32..1000, 0..40),
            clear_at in 0usize..48,
        ) {
            let cap = [1, 2, 5][cap_pick];
            let mut rb = RingBuffer::new(cap);
            let mut model: Vec<u32> = Vec::new();
            for (i, &v) in values.iter().enumerate() {
                if i == clear_at {
                    rb.clear();
                    model.clear();
                }
                rb.push(v);
                model.push(v);
                if model.len() > cap {
                    model.remove(0);
                }
                prop_assert_eq!(rb.to_vec(), model.clone());
                prop_assert_eq!(rb.oldest(), model.first().copied());
                prop_assert_eq!(rb.latest(), model.last().copied());
                prop_assert_eq!(rb.len(), model.len());
                prop_assert_eq!(rb.is_full(), model.len() == cap);
            }
        }
    }

    #[test]
    fn iter_matches_to_vec_after_many_wraps() {
        let mut rb = RingBuffer::new(5);
        for i in 0..37 {
            rb.push(i);
        }
        assert_eq!(rb.to_vec(), vec![32, 33, 34, 35, 36]);
        assert_eq!(rb.iter().count(), 5);
    }
}
