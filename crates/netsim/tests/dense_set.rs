//! [`DenseSet`] behaves exactly like the `BTreeSet<NodeId>` it replaces.
//!
//! Random sequences of `insert`, `remove`, `contains` and `clear` drive
//! the bitset and a `BTreeSet` side by side; after every step both must
//! agree on the returned value, the iteration order, `len`, `is_empty` and
//! equality. Half of the ids are drawn from the bitset's word edges (63,
//! 64, 127, ...), where an off-by-one in the word/bit split would show.

use std::collections::BTreeSet;

use netsim::dense::DenseSet;
use netsim::ident::NodeId;
use proptest::prelude::*;

/// Ids on either side of the first three 64-bit word boundaries.
const WORD_EDGES: [u32; 9] = [0, 1, 62, 63, 64, 65, 127, 128, 191];

/// A set holding exactly `members`, built fresh (no removal history).
fn rebuilt(members: &BTreeSet<NodeId>) -> DenseSet {
    members.iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bitset_matches_btreeset(
        ops in prop::collection::vec(
            (0u8..7, (0u8..2, prop::sample::select(WORD_EDGES.to_vec()), 0u32..256)),
            1..160,
        ),
    ) {
        let mut set = DenseSet::new();
        let mut reference: BTreeSet<NodeId> = BTreeSet::new();
        for &(op, (from_edges, edge, any)) in &ops {
            let id = NodeId::new(if from_edges == 0 { edge } else { any });
            match op {
                0..=2 => prop_assert_eq!(set.insert(id), reference.insert(id)),
                3 | 4 => prop_assert_eq!(set.remove(id), reference.remove(&id)),
                5 => prop_assert_eq!(set.contains(id), reference.contains(&id)),
                _ => {
                    set.clear();
                    reference.clear();
                }
            }
            let members: Vec<NodeId> = set.iter().collect();
            let expected: Vec<NodeId> = reference.iter().copied().collect();
            prop_assert_eq!(&members, &expected);
            prop_assert_eq!(set.len(), reference.len());
            prop_assert_eq!(set.is_empty(), reference.is_empty());
            // Equality is logical: words emptied by removals or `clear`
            // must not tell two sets with the same members apart.
            let fresh = rebuilt(&reference);
            prop_assert!(set == fresh, "{:?} != {:?}", set, fresh);
            let mut larger = rebuilt(&reference);
            larger.insert(NodeId::new(300));
            prop_assert!(set != larger, "{:?} == {:?}", set, larger);
        }
    }
}
