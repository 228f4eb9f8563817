//! [`AnnounceTable::updates_for`] orders and groups a fan-out exactly as a
//! stable sort of the `(path, dest)` pairs by full [`AsPath`] content
//! would.
//!
//! Random sequences of announcements and withdrawals fill the table; after
//! every step the updates for a random destination list must equal the
//! reference's. An order key has one field per hop, as wide as the bit
//! length of the table's destination count, so a 10-destination table
//! keys 32 hops and a 96-destination one 18. The generated paths share
//! prefixes of up to 47 hops, longer than either key encodes, include the
//! owner's origin path, and sometimes carry node ids at and above
//! `0xffff`, which do not fit in a key field. The wide case queries 64
//! or more destinations over a few shared paths: shorter slices are
//! insertion-sorted, which keeps equal entries in order by accident.
//!
//! Paths are handles into a [`PathTable`], and every generated path gets
//! a fresh handle, so equal paths often sit under different handles.
//! Updates are compared by their resolved hops.

use bgp::{AnnounceTable, BgpUpdate};
use netsim::ident::NodeId;
use proptest::prelude::*;
use routing_core::path::{AsPath, PathTable};

const DESTS: u32 = 10;

/// Destinations of the wide fan-out case.
const WIDE_DESTS: u32 = 96;

/// Ids around the 16-bit and 32-bit limits; none fits in a key field of a
/// [`DESTS`]-destination table.
const EDGE_IDS: [u32; 4] = [0xfffe, 0xffff, 0x1_0000, u32::MAX - 1];

/// An update with its path resolved to hops.
type Resolved = (Option<Vec<NodeId>>, Vec<NodeId>, Vec<NodeId>);

fn resolve(paths: &PathTable, updates: &[BgpUpdate]) -> Vec<Resolved> {
    updates
        .iter()
        .map(|u| {
            (
                u.path.map(|p| paths.hops(p).to_vec()),
                u.announced.iter().copied().collect(),
                u.withdrawn.iter().copied().collect(),
            )
        })
        .collect()
}

/// The updates a stable sort of `(path, dest)` by path hops yields.
fn reference(
    paths: &PathTable,
    table: &[Option<AsPath>],
    peer: NodeId,
    dests: &[NodeId],
) -> Vec<BgpUpdate> {
    let mut pairs = Vec::new();
    let mut withdrawn = Vec::new();
    for &dest in dests.iter().filter(|&&d| d != peer) {
        match table[dest.index()] {
            Some(path) => pairs.push((paths.hops(path), path, dest)),
            None => withdrawn.push(dest),
        }
    }
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    let mut updates: Vec<BgpUpdate> = pairs
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| {
            let announced: Vec<NodeId> = run.iter().map(|&(_, _, dest)| dest).collect();
            BgpUpdate::announce(run[0].1, announced)
        })
        .collect();
    if !withdrawn.is_empty() {
        updates.push(BgpUpdate::withdraw(withdrawn));
    }
    updates
}

/// A hop id: small ids for most draws, [`EDGE_IDS`] for the top draws when
/// `edge` is on.
fn hop(raw: u32, edge: bool) -> NodeId {
    match raw.checked_sub(6) {
        Some(i) if edge => NodeId::new(EDGE_IDS[i as usize]),
        _ => NodeId::new(raw % 6 + 1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn keyed_order_matches_a_stable_sort_by_path(
        setup in (0u32..4, prop::collection::vec(0u32..10, 1..48), 0u32..3),
        sets in prop::collection::vec(
            ((0u32..DESTS, 0u32..52), prop::collection::vec(0u32..10, 0..4)),
            1..30,
        ),
        query in (prop::collection::vec(0u32..DESTS, 1..16), 0u32..DESTS + 2),
    ) {
        let (owner, prefix, edge) = setup;
        let owner = NodeId::new([0, 3, 0xffff, 0x1_0000][owner as usize]);
        // Edge ids in a third of the cases, so the rest stay keyed.
        let edge = edge == 0;
        let prefix: Vec<NodeId> = prefix.iter().map(|&r| hop(r, edge)).collect();
        let (dests, peer) = query;
        let dests: Vec<NodeId> = dests.into_iter().map(NodeId::new).collect();
        let peer = NodeId::new(peer);
        let all: Vec<NodeId> = (0..DESTS).map(NodeId::new).collect();

        let mut paths = PathTable::new();
        let mut table = AnnounceTable::new(owner, DESTS as usize);
        let mut expected: Vec<Option<AsPath>> = vec![None; DESTS as usize];
        for ((dest, take), suffix) in sets {
            let dest = NodeId::new(dest);
            // 48 and above withdraw; 0 with no suffix is the origin path
            // `[owner]`.
            let path = (take < 48).then(|| {
                let shared = &prefix[..(take as usize).min(prefix.len())];
                let mut hops = vec![owner];
                hops.extend_from_slice(shared);
                hops.extend(suffix.iter().map(|&r| hop(r, edge)));
                paths.from_hops(&hops).unwrap()
            });
            table.set(&paths, dest, path);
            expected[dest.index()] = path;

            for (peer, dests) in [(peer, &dests), (owner, &all)] {
                let mut updates = Vec::new();
                table.updates_for(&paths, peer, dests, |u| updates.push(u));
                prop_assert_eq!(
                    resolve(&paths, &updates),
                    resolve(&paths, &reference(&paths, &expected, peer, dests))
                );
            }
        }
    }

    #[test]
    fn wide_fan_outs_match_a_stable_sort_by_path(
        shared in (prop::collection::vec(0u32..10, 1..48), prop::collection::vec(
            (0u32..48, prop::collection::vec(0u32..10, 0..3)),
            1..5,
        )),
        assign in prop::collection::vec(0u32..5, WIDE_DESTS as usize..WIDE_DESTS as usize + 1),
        query in (prop::collection::vec(0u32..WIDE_DESTS, 64..160), 0u32..WIDE_DESTS + 2),
    ) {
        let (prefix, tails) = shared;
        let owner = NodeId::new(0);
        let mut table_paths = PathTable::new();
        let paths: Vec<AsPath> = tails
            .iter()
            .map(|(take, suffix)| {
                let mut hops = vec![owner];
                hops.extend(prefix.iter().take(*take as usize).map(|&r| hop(r, false)));
                hops.extend(suffix.iter().map(|&r| hop(r, false)));
                table_paths.from_hops(&hops).unwrap()
            })
            .collect();
        let mut table = AnnounceTable::new(owner, WIDE_DESTS as usize);
        let mut expected: Vec<Option<AsPath>> = Vec::new();
        for (dest, &pick) in assign.iter().enumerate() {
            // A pick past the last path withdraws.
            let path = paths.get(pick as usize).copied();
            table.set(&table_paths, NodeId::new(dest as u32), path);
            expected.push(path);
        }
        let (dests, peer) = query;
        let dests: Vec<NodeId> = dests.into_iter().map(NodeId::new).collect();
        let all: Vec<NodeId> = (0..WIDE_DESTS).map(NodeId::new).collect();
        for (peer, dests) in [(NodeId::new(peer), &dests), (owner, &all)] {
            let mut updates = Vec::new();
            table.updates_for(&table_paths, peer, dests, |u| updates.push(u));
            prop_assert_eq!(
                resolve(&table_paths, &updates),
                resolve(&table_paths, &reference(&table_paths, &expected, peer, dests))
            );
        }
    }
}
