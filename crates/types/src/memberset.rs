//! Small bitsets over attribute members.

use crate::Member;

/// A set of members of one attribute's domain, stored as a bitset.
///
/// Domains in this system are small (discretized bins, categorical member
/// lists), so a `Vec<u64>` of blocks sized to the domain is compact and
/// every set operation is branch-free word arithmetic. The set remembers
/// its domain size so complement is well-defined.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemberSet {
    blocks: Vec<u64>,
    domain: u16,
}

impl MemberSet {
    /// The empty set over a domain of `domain` members.
    pub fn empty(domain: u16) -> Self {
        MemberSet { blocks: vec![0; (domain as usize).div_ceil(64)], domain }
    }

    /// The full set over a domain of `domain` members.
    pub fn full(domain: u16) -> Self {
        let mut s = Self::empty(domain);
        for b in &mut s.blocks {
            *b = u64::MAX;
        }
        s.trim();
        s
    }

    /// A set holding exactly the given members.
    pub fn of(domain: u16, members: impl IntoIterator<Item = Member>) -> Self {
        let mut s = Self::empty(domain);
        for m in members {
            s.insert(m);
        }
        s
    }

    /// A set holding the contiguous range `lo..=hi`, filled a word at a
    /// time.
    pub fn range(domain: u16, lo: Member, hi: Member) -> Self {
        debug_assert!(lo <= hi && hi < domain);
        let mut s = Self::empty(domain);
        let (first, last) = (lo as usize / 64, hi as usize / 64);
        for b in &mut s.blocks[first..=last] {
            *b = u64::MAX;
        }
        s.blocks[first] &= u64::MAX << (lo % 64);
        s.blocks[last] &= u64::MAX >> (63 - hi % 64);
        s
    }

    fn trim(&mut self) {
        let extra = (self.blocks.len() * 64) as u32 - self.domain as u32;
        if extra > 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// Domain size this set ranges over.
    pub fn domain(&self) -> u16 {
        self.domain
    }

    /// The set as 64-member words: member `m` is bit `m % 64` of word
    /// `m / 64`, and bits at or past the domain are clear. For callers
    /// that test many members or many sets in one loop.
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Inserts member `m`.
    pub fn insert(&mut self, m: Member) {
        debug_assert!(m < self.domain, "member {m} out of domain {}", self.domain);
        self.blocks[m as usize / 64] |= 1u64 << (m % 64);
    }

    /// Removes every member, keeping the domain (and the allocation).
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Removes member `m`.
    pub fn remove(&mut self, m: Member) {
        debug_assert!(m < self.domain);
        self.blocks[m as usize / 64] &= !(1u64 << (m % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, m: Member) -> bool {
        m < self.domain && self.blocks[m as usize / 64] & (1u64 << (m % 64)) != 0
    }

    /// Number of members in the set.
    pub fn len(&self) -> u32 {
        self.blocks.iter().map(|b| b.count_ones()).sum()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// True if the set holds every member of the domain.
    pub fn is_full(&self) -> bool {
        self.len() == self.domain as u32
    }

    /// Smallest member, if any.
    pub fn min(&self) -> Option<Member> {
        self.iter().next()
    }

    /// Largest member, if any.
    pub fn max(&self) -> Option<Member> {
        for (i, b) in self.blocks.iter().enumerate().rev() {
            if *b != 0 {
                return Some((i * 64 + 63 - b.leading_zeros() as usize) as Member);
            }
        }
        None
    }

    /// Iterates members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Member> + '_ {
        self.blocks.iter().enumerate().flat_map(|(i, &b)| {
            let mut bits = b;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let t = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some((i * 64) as Member + t as Member)
                }
            })
        })
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &MemberSet) {
        debug_assert_eq!(self.domain, other.domain);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &MemberSet) {
        debug_assert_eq!(self.domain, other.domain);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`).
    pub fn subtract(&mut self, other: &MemberSet) {
        debug_assert_eq!(self.domain, other.domain);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// The complement within the domain.
    pub fn complement(&self) -> MemberSet {
        let mut out = self.clone();
        for b in &mut out.blocks {
            *b = !*b;
        }
        out.trim();
        out
    }

    /// True if `self` and `other` share no members.
    pub fn is_disjoint(&self, other: &MemberSet) -> bool {
        self.blocks.iter().zip(&other.blocks).all(|(a, b)| a & b == 0)
    }

    /// True if every member of `self` is in `other`.
    pub fn is_subset(&self, other: &MemberSet) -> bool {
        self.blocks.iter().zip(&other.blocks).all(|(a, b)| a & !b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_membership() {
        let s = MemberSet::of(10, [0, 3, 9]);
        assert!(s.contains(0) && s.contains(3) && s.contains(9));
        assert!(!s.contains(1) && !s.contains(10));
        assert_eq!(s.len(), 3);
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(9));
    }

    #[test]
    fn full_and_empty() {
        let f = MemberSet::full(70); // spans two blocks
        assert_eq!(f.len(), 70);
        assert!(f.is_full() && !f.is_empty());
        assert!(f.contains(69) && !f.contains(70));
        let e = MemberSet::empty(70);
        assert!(e.is_empty());
        assert_eq!(e.min(), None);
        assert_eq!(e.max(), None);
    }

    #[test]
    fn range_constructor() {
        let r = MemberSet::range(8, 2, 5);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        // Every range over a three-word domain, word boundaries included,
        // equals the member-by-member set.
        let domain = 130;
        for lo in 0..domain {
            for hi in lo..domain {
                assert_eq!(MemberSet::range(domain, lo, hi), MemberSet::of(domain, lo..=hi));
            }
        }
    }

    #[test]
    fn blocks_expose_the_words() {
        let s = MemberSet::of(70, [0, 63, 64, 69]);
        assert_eq!(s.blocks(), &[1 | 1 << 63, 1 | 1 << 5]);
        assert_eq!(MemberSet::full(70).blocks(), &[u64::MAX, (1 << 6) - 1]);
    }

    #[test]
    fn set_algebra() {
        let a = MemberSet::of(6, [0, 1, 2]);
        let b = MemberSet::of(6, [2, 3]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2]);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert!(!a.is_disjoint(&b));
        assert!(i.is_subset(&a) && i.is_subset(&b));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn complement_respects_domain() {
        let a = MemberSet::of(66, [0, 65]);
        let c = a.complement();
        assert_eq!(c.len(), 64);
        assert!(!c.contains(0) && !c.contains(65) && c.contains(64));
        // Complement twice is identity.
        assert_eq!(c.complement(), a);
    }

    #[test]
    fn iteration_order_is_increasing() {
        let s = MemberSet::of(130, [129, 5, 64, 63]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 63, 64, 129]);
    }

    #[test]
    fn remove_and_reinsert() {
        let mut s = MemberSet::full(5);
        s.remove(2);
        assert_eq!(s.len(), 4);
        assert!(!s.is_full());
        s.insert(2);
        assert!(s.is_full());
    }
}
