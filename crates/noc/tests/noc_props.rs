//! Property tests for the mesh NoC: metric axioms of the hop distance,
//! latency monotonicity and traffic accounting, and the route table
//! against a closed-form model mesh.

use proptest::prelude::*;
use raccd_noc::{Mesh, MsgClass, Topology};

const CLASSES: [MsgClass; 4] = [
    MsgClass::Request,
    MsgClass::DataResponse,
    MsgClass::Control,
    MsgClass::WriteBack,
];

/// The mesh as it was before the route table: every answer computed from
/// the geometry with `/` and `%` at the time of the call. Kept as the
/// reference the table-driven [`Mesh`] must equal.
struct ModelMesh {
    k: usize,
    sockets: usize,
    link: u64,
    router: u64,
    xlink: u64,
    flit_bytes: u64,
    flit_hops: u64,
    flits_by_class: [u64; 4],
    msgs_by_class: [u64; 4],
    xlink_msgs: u64,
    /// dropped, corrupted, duplicated, nacks, retries, delayed
    fault: [u64; 6],
}

impl ModelMesh {
    fn new(
        topology: Topology,
        k: usize,
        link: u64,
        router: u64,
        flit_bytes: u64,
        xlink: u64,
    ) -> Self {
        ModelMesh {
            k,
            sockets: topology.sockets(),
            link,
            router,
            xlink: if topology == Topology::Numa2 {
                xlink
            } else {
                0
            },
            flit_bytes,
            flit_hops: 0,
            flits_by_class: [0; 4],
            msgs_by_class: [0; 4],
            xlink_msgs: 0,
            fault: [0; 6],
        }
    }
    fn split(&self, tile: usize) -> (usize, usize) {
        (tile / (self.k * self.k), tile % (self.k * self.k))
    }
    fn local_hops(&self, from: usize, to: usize) -> u64 {
        let (fx, fy) = (from % self.k, from / self.k);
        let (tx, ty) = (to % self.k, to / self.k);
        (fx.abs_diff(tx) + fy.abs_diff(ty)) as u64
    }
    fn gateway(&self, socket: usize) -> usize {
        if socket == 0 {
            self.k - 1
        } else {
            0
        }
    }
    fn hops(&self, from: usize, to: usize) -> u64 {
        let ((sf, lf), (st, lt)) = (self.split(from), self.split(to));
        if sf == st {
            self.local_hops(lf, lt)
        } else {
            self.local_hops(lf, self.gateway(sf)) + 1 + self.local_hops(self.gateway(st), lt)
        }
    }
    fn mem_controller_for(&self, home: usize) -> usize {
        let (socket, local) = self.split(home);
        let corners = [0, self.k - 1, self.k * (self.k - 1), self.k * self.k - 1];
        let nearest = corners
            .iter()
            .min_by_key(|&&c| (self.local_hops(local, c), c));
        socket * self.k * self.k + *nearest.unwrap()
    }
    fn latency(&self, from: usize, to: usize) -> u64 {
        let base = self.router + self.hops(from, to) * (self.link + self.router);
        if self.split(from).0 != self.split(to).0 {
            base - self.link + self.xlink
        } else {
            base
        }
    }
    fn flits(&self, class: MsgClass) -> u64 {
        match class {
            MsgClass::Request | MsgClass::Control => 1,
            MsgClass::DataResponse | MsgClass::WriteBack => 1 + 64u64.div_ceil(self.flit_bytes),
        }
    }
    fn send(&mut self, from: usize, to: usize, class: MsgClass) -> u64 {
        let flits = self.flits(class);
        self.flit_hops += flits * self.hops(from, to).max(1);
        self.flits_by_class[class as usize] += flits;
        self.msgs_by_class[class as usize] += 1;
        if self.split(from).0 != self.split(to).0 {
            self.xlink_msgs += 1;
        }
        self.latency(from, to)
    }
    /// The archive [`Mesh`] writes: geometry and counters, no table.
    fn snap_bytes(&self) -> Vec<u8> {
        let mut w = raccd_snap::SnapWriter::new();
        let (k, sockets) = (self.k as u64, self.sockets as u64);
        for v in [
            k,
            sockets,
            self.link,
            self.router,
            self.xlink,
            self.flit_bytes,
            self.flit_hops,
        ] {
            w.u64(v);
        }
        for v in (self.flits_by_class.into_iter()).chain(self.msgs_by_class) {
            w.u64(v);
        }
        w.u64(self.xlink_msgs);
        for v in self.fault {
            w.u64(v);
        }
        w.into_bytes()
    }
}

/// Every shipped shape and then some: k 1..=6, both topologies, unequal
/// link/router/xlink costs and three flit widths.
fn shapes() -> impl Iterator<Item = (Topology, usize, u64, u64, u64, u64)> {
    (1..=6usize).flat_map(|k| {
        Topology::ALL.into_iter().flat_map(move |t| {
            [(1, 1, 16, 8), (2, 3, 8, 40), (3, 1, 24, 5)]
                .into_iter()
                .map(move |(link, router, flit, xlink)| (t, k, link, router, flit, xlink))
        })
    })
}

/// The table equals the closed form on every pair, class and home tile.
#[test]
fn route_table_equals_the_closed_form_everywhere() {
    for (t, k, link, router, flit, xlink) in shapes() {
        let mesh = Mesh::for_topology(t, k, link, router, flit, xlink);
        let model = ModelMesh::new(t, k, link, router, flit, xlink);
        let what = format!("{t} k={k} link={link} router={router} flit={flit} xlink={xlink}");
        assert_eq!(mesh.tiles(), t.sockets() * k * k, "{what}");
        for class in CLASSES {
            assert_eq!(mesh.flits(class), model.flits(class), "{what} {class:?}");
        }
        for from in 0..mesh.tiles() {
            assert_eq!(
                mesh.mem_controller_for(from),
                model.mem_controller_for(from),
                "{what} home {from}"
            );
            for to in 0..mesh.tiles() {
                assert_eq!(
                    mesh.hops(from, to),
                    model.hops(from, to),
                    "{what} {from}->{to}"
                );
                assert_eq!(
                    mesh.latency(from, to),
                    model.latency(from, to),
                    "{what} {from}->{to}"
                );
                for class in CLASSES {
                    // One message on a fresh mesh reads the table's hops
                    // (`max(hops, 1)`) and crossing bit back out.
                    let (mut one, mut one_model) = (
                        mesh.clone(),
                        ModelMesh::new(t, k, link, router, flit, xlink),
                    );
                    assert_eq!(one.send(from, to, class), one_model.send(from, to, class));
                    assert_eq!(
                        one.traffic(),
                        one_model.flit_hops,
                        "{what} {from}->{to} {class:?}"
                    );
                    assert_eq!(
                        one.xlink_crossings(),
                        one_model.xlink_msgs,
                        "{what} {from}->{to}"
                    );
                }
            }
        }
    }
}

proptest! {
    /// Hop distance is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn hops_form_a_metric(k in 2usize..9, a in 0usize..64, b in 0usize..64, c in 0usize..64) {
        let m = Mesh::new(k, 1, 1, 16);
        let n = k * k;
        let (a, b, c) = (a % n, b % n, c % n);
        prop_assert_eq!(m.hops(a, a), 0);
        prop_assert_eq!(m.hops(a, b), m.hops(b, a));
        prop_assert!(m.hops(a, c) <= m.hops(a, b) + m.hops(b, c));
        // Bounded by mesh diameter.
        prop_assert!(m.hops(a, b) <= 2 * (k as u64 - 1));
    }

    /// Latency grows strictly with hop count for unit link/router costs.
    #[test]
    fn latency_monotone_in_hops(k in 2usize..7, a in 0usize..36, b in 0usize..36, c in 0usize..36) {
        let m = Mesh::new(k, 1, 1, 16);
        let n = k * k;
        let (a, b, c) = (a % n, b % n, c % n);
        if m.hops(a, b) < m.hops(a, c) {
            prop_assert!(m.latency(a, b) < m.latency(a, c));
        }
    }

    /// Traffic accounting: total flits equals the sum over messages of
    /// their flit counts, and flit·hops ≥ flits (min one hop charged).
    #[test]
    fn traffic_accounting_consistent(
        msgs in proptest::collection::vec((0usize..16, 0usize..16, 0u8..4), 1..100),
    ) {
        let mut m = Mesh::new(4, 1, 1, 16);
        let mut expect_flits = 0;
        for &(from, to, class) in &msgs {
            let class = match class {
                0 => MsgClass::Request,
                1 => MsgClass::DataResponse,
                2 => MsgClass::Control,
                _ => MsgClass::WriteBack,
            };
            expect_flits += m.flits(class);
            m.send(from, to, class);
        }
        prop_assert_eq!(m.total_flits(), expect_flits);
        prop_assert!(m.traffic() >= m.total_flits());
    }

    /// The memory controller for any tile is one of the four corners and
    /// no farther than any other corner.
    #[test]
    fn mem_controller_is_nearest_corner(k in 2usize..9, tile in 0usize..64) {
        let m = Mesh::new(k, 1, 1, 16);
        let tile = tile % (k * k);
        let mc = m.mem_controller_for(tile);
        let corners = [0, k - 1, k * (k - 1), k * k - 1];
        prop_assert!(corners.contains(&mc));
        for &c in &corners {
            prop_assert!(m.hops(tile, mc) <= m.hops(tile, c));
        }
    }

    /// A random sequence of nominal and faulty sends leaves the same
    /// latencies, counters and archive bytes as the closed-form model.
    #[test]
    fn sends_match_the_closed_form_model(
        k in 1usize..7,
        numa in any::<bool>(),
        msgs in proptest::collection::vec((0usize..72, 0usize..72, 0usize..4, 0u8..5), 1..200),
    ) {
        let t = if numa { Topology::Numa2 } else { Topology::Mesh };
        let mut mesh = Mesh::for_topology(t, k, 2, 3, 16, 40);
        let mut model = ModelMesh::new(t, k, 2, 3, 16, 40);
        for &(from, to, class, kind) in &msgs {
            let (from, to, class) = (from % mesh.tiles(), to % mesh.tiles(), CLASSES[class]);
            let (got, want) = match kind {
                0 => (mesh.send(from, to, class), model.send(from, to, class)),
                1 => {
                    model.fault[0] += 1;
                    (mesh.send_dropped(from, to, class), model.send(from, to, class))
                }
                2 => {
                    model.fault[1] += 1;
                    (mesh.send_corrupted(from, to, class), model.send(from, to, class))
                }
                3 => {
                    model.fault[2] += 1;
                    model.send(from, to, class);
                    (mesh.send_duplicate(from, to, class), model.send(from, to, class))
                }
                _ => {
                    model.fault[3] += 1;
                    (mesh.send_nack(from, to), model.send(from, to, MsgClass::Control))
                }
            };
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(mesh.traffic(), model.flit_hops);
        prop_assert_eq!(mesh.xlink_crossings(), model.xlink_msgs);
        for class in CLASSES {
            prop_assert_eq!(mesh.messages(class), model.msgs_by_class[class as usize]);
            prop_assert_eq!(mesh.flits_injected(class), model.flits_by_class[class as usize]);
        }
        let bytes = raccd_snap::encode(&mesh);
        prop_assert_eq!(&bytes, &model.snap_bytes());
        // A restored mesh rebuilds its table and carries on identically;
        // one wider than the 64-bit sharer mask is not a machine's.
        let (from, to) = (0, mesh.tiles() - 1);
        match raccd_snap::decode::<Mesh>(&bytes) {
            Ok(mut back) => {
                let want = model.send(from, to, MsgClass::WriteBack);
                prop_assert_eq!(back.send(from, to, MsgClass::WriteBack), want);
                prop_assert_eq!(raccd_snap::encode(&back), model.snap_bytes());
            }
            Err(e) => {
                prop_assert!(mesh.tiles() > 64, "{} tiles: {e:?}", mesh.tiles());
                prop_assert_eq!(e, raccd_snap::SnapError::Invalid("mesh geometry"));
            }
        }
    }
}
