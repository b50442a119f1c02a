#![warn(missing_docs)]

//! Mesh Network-on-Chip model.
//!
//! Table I: "NoC: 4×4 mesh, link 1 cycle, router 1 cycle". We model a k×k
//! mesh with dimension-ordered (XY) routing. Each tile hosts a core with its
//! L1, one LLC bank and one directory bank; memory controllers sit at the
//! four corner tiles (a common gem5/ruby layout).
//!
//! The model provides (a) latency of a message between two tiles and (b)
//! flit accounting for Figure 7c (NoC traffic). A control message is one
//! flit; a data message carries a 64-byte cache line over `1 + 64/flit`
//! flits (16-byte flits → 5 flits).
//!
//! A miss sends five or six messages, so [`Mesh::send`] divides nothing:
//! hop counts, flits per class and memory-controller tiles come from small
//! tables that each mesh fills once from the closed forms ([`Mesh::hops`]
//! is the one the route table is built from).
//!
//! Beyond the single-socket mesh, [`Mesh::numa2`] builds a **2-socket
//! NUMA topology**: two k×k meshes joined by one inter-socket link with
//! its own (higher) latency. Tiles `0..k²` are socket 0, `k²..2k²` socket
//! 1; cross-socket messages route XY to the local gateway tile, traverse
//! the inter-socket link (one hop at `xlink_cycles` instead of
//! `link_cycles`), and route XY on to the destination. Each socket keeps
//! its own corner memory controllers, and cross-link crossings are
//! counted separately so sweeps can report NUMA traffic.

use std::fmt;

const BLOCK_SIZE: u64 = 64;

/// Which interconnect a machine is built on (registry for the
/// `--topology` flag and the campaign spec).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Topology {
    /// Single k×k mesh (Table I).
    #[default]
    Mesh,
    /// Two k×k mesh sockets joined by one inter-socket link.
    Numa2,
}

impl Topology {
    /// Every topology, in registry order.
    pub const ALL: [Topology; 2] = [Topology::Mesh, Topology::Numa2];

    /// Canonical lower-case label (round-trips through
    /// [`Topology::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            Topology::Mesh => "mesh",
            Topology::Numa2 => "numa2",
        }
    }

    /// Parse a topology label (case-insensitive).
    pub fn parse(s: &str) -> Option<Topology> {
        match s.to_ascii_lowercase().as_str() {
            "mesh" => Some(Topology::Mesh),
            "numa2" => Some(Topology::Numa2),
            _ => None,
        }
    }

    /// Number of mesh sockets.
    pub fn sockets(self) -> usize {
        match self {
            Topology::Mesh => 1,
            Topology::Numa2 => 2,
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

raccd_snap::snap_enum!(Topology, "topology tag" { 0 => Mesh, 1 => Numa2 });

/// Categories of NoC messages, counted separately for diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgClass {
    /// Request without data (GetS/GetX/Upgrade, NC variants too).
    Request,
    /// Response carrying a cache line.
    DataResponse,
    /// Control response (ack, invalidation, forward request).
    Control,
    /// Write-back carrying a cache line.
    WriteBack,
}

/// Traffic attributable to injected faults and their recovery: dropped,
/// corrupted and duplicated deliveries plus the NACKs and retries the
/// recovery machinery generated. Kept separate from the nominal class
/// counters so fault campaigns can report the overhead they caused.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultTraffic {
    /// Messages lost in flight (their flits still traversed links).
    pub dropped: u64,
    /// Messages delivered with a corrupted payload.
    pub corrupted: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// NACK control messages returned by receivers.
    pub nacks: u64,
    /// Retransmissions performed by senders.
    pub retries: u64,
    /// Messages held back by injected delays.
    pub delayed: u64,
}

/// Flit and latency accounting for a k×k mesh NoC.
///
/// ```
/// use raccd_noc::{Mesh, MsgClass};
/// let mut mesh = Mesh::new(4, 1, 1, 16); // Table I: 4×4, 1-cycle link/router
/// let latency = mesh.send(0, 15, MsgClass::DataResponse);
/// assert_eq!(latency, 1 + 6 * 2);        // 6 hops across the mesh
/// assert_eq!(mesh.total_flits(), 5);     // 64-byte line in 16-byte flits
/// ```
#[derive(Clone, Debug)]
pub struct Mesh {
    k: usize,
    /// Mesh sockets (1 = single mesh, 2 = NUMA pair).
    sockets: usize,
    link_cycles: u64,
    router_cycles: u64,
    /// Inter-socket link traversal cycles (replaces `link_cycles` for the
    /// one cross-socket hop; unused when `sockets == 1`).
    xlink_cycles: u64,
    flit_bytes: u64,
    /// Total flit·hops (the paper's "NoC traffic" metric is proportional to
    /// flits traversing links).
    flit_hops: u64,
    /// Flits injected, by class.
    flits_by_class: [u64; 4],
    /// Messages injected, by class.
    msgs_by_class: [u64; 4],
    /// Messages that crossed the inter-socket link.
    xlink_msgs: u64,
    /// Fault-attributable traffic (all zero without a fault plane).
    fault: FaultTraffic,
    /// The route of each `(from, to)` pair, row-major `tiles × tiles`: its
    /// hop count, with [`XLINK`] set when it takes the inter-socket link.
    /// This and the two tables below are functions of the geometry above:
    /// [`Mesh::build`] derives them and an archive never carries them.
    routes: Vec<u16>,
    /// Flits of one message, by class.
    class_flits: [u64; 4],
    /// Memory-controller tile, by home tile.
    mem_ctrl: Vec<usize>,
}

/// Route-table bit of a cross-socket route; the hop count is below it.
/// Two bytes a pair keep a 16-tile table at 512 B: entries that also held
/// the latency made it a 4 KiB heap block, which moved where every later
/// allocation of a run landed and its peak RSS by 2 %.
const XLINK: u16 = 1 << 15;

/// `(socket, x, y)` of a tile.
type Pos = (usize, usize, usize);

impl Mesh {
    /// Create a k×k mesh (Table I: k = 4) with per-hop link and router
    /// latencies and a flit width in bytes.
    pub fn new(k: usize, link_cycles: u64, router_cycles: u64, flit_bytes: u64) -> Self {
        Mesh::build(k, 1, link_cycles, router_cycles, 0, flit_bytes)
    }

    /// Create a 2-socket NUMA topology: two k×k meshes joined by one
    /// inter-socket link costing `xlink_cycles` per traversal. The
    /// gateway tiles are the east end of socket 0's row 0 (local tile
    /// `k-1`) and the west end of socket 1's row 0 (local tile `0`).
    pub fn numa2(
        k: usize,
        link_cycles: u64,
        router_cycles: u64,
        flit_bytes: u64,
        xlink_cycles: u64,
    ) -> Self {
        Mesh::build(k, 2, link_cycles, router_cycles, xlink_cycles, flit_bytes)
    }

    /// Build for a [`Topology`]: the single mesh or the NUMA pair.
    pub fn for_topology(
        topology: Topology,
        k: usize,
        link_cycles: u64,
        router_cycles: u64,
        flit_bytes: u64,
        xlink_cycles: u64,
    ) -> Self {
        match topology {
            Topology::Mesh => Mesh::new(k, link_cycles, router_cycles, flit_bytes),
            Topology::Numa2 => Mesh::numa2(k, link_cycles, router_cycles, flit_bytes, xlink_cycles),
        }
    }

    /// A mesh with zeroed counters and its tables filled from the closed
    /// forms. A campaign builds and restores thousands of meshes, so each
    /// tile's position is resolved once and the `tiles²` loop is
    /// `abs_diff` and adds only.
    fn build(
        k: usize,
        sockets: usize,
        link_cycles: u64,
        router_cycles: u64,
        xlink_cycles: u64,
        flit_bytes: u64,
    ) -> Self {
        assert!(k > 0 && flit_bytes > 0);
        let data_flits = 1 + BLOCK_SIZE.div_ceil(flit_bytes);
        let mut m = Mesh {
            k,
            sockets,
            link_cycles,
            router_cycles,
            xlink_cycles,
            flit_bytes,
            flit_hops: 0,
            flits_by_class: [0; 4],
            msgs_by_class: [0; 4],
            xlink_msgs: 0,
            fault: FaultTraffic::default(),
            routes: Vec::new(),
            // Indexed by `MsgClass as usize`.
            class_flits: [1, data_flits, 1, data_flits],
            mem_ctrl: Vec::new(),
        };
        let pos: Vec<Pos> = (0..m.tiles()).map(|t| m.pos(t)).collect();
        m.routes.reserve_exact(pos.len() * pos.len());
        for &from in &pos {
            for &to in &pos {
                // At most 4k − 3 hops: a mesh whose table fits in memory
                // stays far below the `XLINK` bit.
                let xlink = if from.0 == to.0 { 0 } else { XLINK };
                m.routes.push(m.pos_hops(from, to) as u16 | xlink);
            }
        }
        // Nearest of the home socket's four corner tiles, ties broken by
        // lowest tile id.
        let corners = [0, k - 1, k * (k - 1), k * k - 1];
        m.mem_ctrl = (pos.iter())
            .map(|&home| {
                let base = home.0 * k * k;
                let nearest = corners
                    .iter()
                    .min_by_key(|&&c| (m.pos_hops(home, pos[base + c]), c));
                base + *nearest.expect("corners non-empty")
            })
            .collect();
        m
    }

    /// Number of tiles (per-socket tiles × sockets).
    pub fn tiles(&self) -> usize {
        self.sockets * self.k * self.k
    }

    /// Number of mesh sockets (1 or 2).
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Socket of a tile id.
    #[inline]
    pub fn socket_of(&self, tile: usize) -> usize {
        tile / (self.k * self.k)
    }

    /// Position of a global tile id.
    fn pos(&self, tile: usize) -> Pos {
        let local = tile % (self.k * self.k);
        (self.socket_of(tile), local % self.k, local / self.k)
    }

    /// Closed-form hop distance between two positions: XY within a
    /// socket; cross-socket routes run to the local gateway on row 0
    /// (socket 0 exits east at `x = k-1`, socket 1 west at `x = 0`), take
    /// the inter-socket link as one hop, and run on from the far gateway.
    fn pos_hops(&self, (sf, fx, fy): Pos, (st, tx, ty): Pos) -> u64 {
        let gateway_x = |socket| if socket == 0 { self.k - 1 } else { 0 };
        let hops = if sf == st {
            fx.abs_diff(tx) + fy.abs_diff(ty)
        } else {
            fx.abs_diff(gateway_x(sf)) + fy + 1 + tx.abs_diff(gateway_x(st)) + ty
        };
        hops as u64
    }

    /// Hop distance between two tiles (the closed form the route table is
    /// built from).
    pub fn hops(&self, from: usize, to: usize) -> u64 {
        self.pos_hops(self.pos(from), self.pos(to))
    }

    /// The route-table entry of a pair.
    #[inline]
    fn route(&self, from: usize, to: usize) -> u16 {
        // One controller entry a tile: the row stride, without `sockets · k²`.
        let tiles = self.mem_ctrl.len();
        debug_assert!(from < tiles && to < tiles, "tile out of range");
        self.routes[from * tiles + to]
    }

    /// The memory controller tile serving a given home bank: nearest of
    /// the home socket's four corner tiles (ties broken by lowest tile
    /// id). Each NUMA socket keeps its own controllers — memory is
    /// socket-local.
    #[inline]
    pub fn mem_controller_for(&self, home: usize) -> usize {
        self.mem_ctrl[home]
    }

    /// Latency in cycles of one message from `from` to `to`: every hop
    /// costs a link plus a router traversal, plus one router at
    /// injection. A cross-socket message pays `xlink_cycles` instead of
    /// `link_cycles` for the inter-socket hop.
    #[inline]
    pub fn latency(&self, from: usize, to: usize) -> u64 {
        self.route_latency(self.route(from, to))
    }

    #[inline]
    fn route_latency(&self, route: u16) -> u64 {
        let hops = u64::from(route & !XLINK);
        let base = self.router_cycles + hops * (self.link_cycles + self.router_cycles);
        if route & XLINK != 0 {
            base - self.link_cycles + self.xlink_cycles
        } else {
            base
        }
    }

    /// Flits of a message of `class` (head flit + payload flits).
    #[inline]
    pub fn flits(&self, class: MsgClass) -> u64 {
        self.class_flits[class as usize]
    }

    /// Send a message: account traffic and return its latency.
    #[inline]
    pub fn send(&mut self, from: usize, to: usize, class: MsgClass) -> u64 {
        let route = self.route(from, to);
        let flits = self.flits(class);
        // Local delivery still moves flits.
        self.flit_hops += flits * u64::from(route & !XLINK).max(1);
        self.flits_by_class[class as usize] += flits;
        self.msgs_by_class[class as usize] += 1;
        self.xlink_msgs += u64::from(route & XLINK != 0);
        self.route_latency(route)
    }

    /// Messages that crossed the inter-socket link (0 on a single mesh).
    pub fn xlink_crossings(&self) -> u64 {
        self.xlink_msgs
    }

    /// Total flit·hops so far (Figure 7c's traffic metric).
    pub fn traffic(&self) -> u64 {
        self.flit_hops
    }

    /// Messages sent of one class.
    pub fn messages(&self, class: MsgClass) -> u64 {
        self.msgs_by_class[class as usize]
    }

    /// Flits injected of one class.
    pub fn flits_injected(&self, class: MsgClass) -> u64 {
        self.flits_by_class[class as usize]
    }

    /// Sum of flits injected across classes.
    pub fn total_flits(&self) -> u64 {
        self.flits_by_class.iter().sum()
    }

    /// Send a message that is lost in flight: its flits still traverse
    /// links (and are charged to traffic) but nothing is delivered. The
    /// returned latency is the wire time the sender's timeout must cover.
    pub fn send_dropped(&mut self, from: usize, to: usize, class: MsgClass) -> u64 {
        let lat = self.send(from, to, class);
        self.fault.dropped += 1;
        lat
    }

    /// Send a message whose payload arrives corrupted: full traversal and
    /// delivery, but the receiver's checksum will reject it.
    pub fn send_corrupted(&mut self, from: usize, to: usize, class: MsgClass) -> u64 {
        let lat = self.send(from, to, class);
        self.fault.corrupted += 1;
        lat
    }

    /// Send a message delivered twice: double the flits on the wire, one
    /// latency (the copies pipeline back to back).
    pub fn send_duplicate(&mut self, from: usize, to: usize, class: MsgClass) -> u64 {
        let lat = self.send(from, to, class);
        self.send(from, to, class);
        self.fault.duplicated += 1;
        lat
    }

    /// Account one NACK control message from `from` back to `to` and
    /// return its latency.
    pub fn send_nack(&mut self, from: usize, to: usize) -> u64 {
        let lat = self.send(from, to, MsgClass::Control);
        self.fault.nacks += 1;
        lat
    }

    /// Note one retransmission (the retry itself is a normal `send`).
    pub fn note_retry(&mut self) {
        self.fault.retries += 1;
    }

    /// Note one injected-delay delivery.
    pub fn note_delayed(&mut self) {
        self.fault.delayed += 1;
    }

    /// Fault-attributable traffic counters.
    pub fn fault_traffic(&self) -> FaultTraffic {
        self.fault
    }
}

raccd_snap::snap_record!(FaultTraffic {
    dropped,
    corrupted,
    duplicated,
    nacks,
    retries,
    delayed,
});

// Hand-written: the route table and per-class flit counts are derived
// from the geometry, not saved.
impl raccd_snap::Snap for Mesh {
    fn save(&self, w: &mut raccd_snap::SnapWriter) {
        self.k.save(w);
        self.sockets.save(w);
        w.u64(self.link_cycles);
        w.u64(self.router_cycles);
        w.u64(self.xlink_cycles);
        w.u64(self.flit_bytes);
        w.u64(self.flit_hops);
        self.flits_by_class.save(w);
        self.msgs_by_class.save(w);
        w.u64(self.xlink_msgs);
        self.fault.save(w);
    }
    fn load(r: &mut raccd_snap::SnapReader) -> Result<Self, raccd_snap::SnapError> {
        use raccd_snap::Snap;
        let k: usize = Snap::load(r)?;
        let sockets: usize = Snap::load(r)?;
        let link_cycles = r.u64()?;
        let router_cycles = r.u64()?;
        let xlink_cycles = r.u64()?;
        let flit_bytes = r.u64()?;
        // The table below is `(sockets · k²)²` entries: bound it before
        // allocating. 64 tiles is the `EntryState::sharers` mask width.
        let tiles = k.checked_mul(k).and_then(|per| per.checked_mul(sockets));
        if k == 0 || flit_bytes == 0 || !(1..=2).contains(&sockets) || tiles.is_none_or(|t| t > 64)
        {
            return Err(raccd_snap::SnapError::Invalid("mesh geometry"));
        }
        Ok(Mesh {
            flit_hops: r.u64()?,
            flits_by_class: Snap::load(r)?,
            msgs_by_class: Snap::load(r)?,
            xlink_msgs: r.u64()?,
            fault: Snap::load(r)?,
            ..Mesh::build(
                k,
                sockets,
                link_cycles,
                router_cycles,
                xlink_cycles,
                flit_bytes,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(4, 1, 1, 16)
    }

    #[test]
    fn hop_distances_on_4x4() {
        let m = mesh();
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 3), 3); // same row
        assert_eq!(m.hops(0, 15), 6); // opposite corner
        assert_eq!(m.hops(5, 10), 2); // (1,1)→(2,2)
        assert_eq!(m.hops(3, 12), 6); // (3,0)→(0,3)
    }

    #[test]
    fn hops_symmetric() {
        let m = mesh();
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(m.hops(a, b), m.hops(b, a));
            }
        }
    }

    #[test]
    fn latency_matches_table1_per_hop_costs() {
        let m = mesh();
        // link 1 + router 1 per hop, +1 injection router.
        assert_eq!(m.latency(0, 1), 1 + 2);
        assert_eq!(m.latency(0, 15), 1 + 6 * 2);
        assert_eq!(m.latency(7, 7), 1);
    }

    #[test]
    fn data_messages_carry_line_flits() {
        let m = mesh();
        assert_eq!(m.flits(MsgClass::Request), 1);
        assert_eq!(m.flits(MsgClass::DataResponse), 1 + 4); // 64 B / 16 B
        assert_eq!(m.flits(MsgClass::WriteBack), 5);
        assert_eq!(m.flits(MsgClass::Control), 1);
    }

    #[test]
    fn traffic_accumulates_flit_hops() {
        let mut m = mesh();
        m.send(0, 1, MsgClass::Request); // 1 flit × 1 hop
        m.send(0, 15, MsgClass::DataResponse); // 5 flits × 6 hops
        assert_eq!(m.traffic(), 1 + 30);
        assert_eq!(m.messages(MsgClass::Request), 1);
        assert_eq!(m.total_flits(), 6);
    }

    #[test]
    fn local_delivery_counts_minimum_traffic() {
        let mut m = mesh();
        m.send(3, 3, MsgClass::DataResponse);
        assert_eq!(m.traffic(), 5);
    }

    #[test]
    fn mem_controllers_are_nearest_corner() {
        let m = mesh();
        assert_eq!(m.mem_controller_for(0), 0);
        assert_eq!(m.mem_controller_for(5), 0); // (1,1): corner 0 at 2 hops
        assert_eq!(m.mem_controller_for(7), 3); // (3,1): corner 3 at 1 hop
        assert_eq!(m.mem_controller_for(14), 15); // (2,3): corner 15 at 1 hop
    }

    #[test]
    fn fault_sends_account_traffic_and_counters() {
        let mut m = mesh();
        assert_eq!(m.fault_traffic(), FaultTraffic::default());

        // Dropped message: flits on the wire, counted as dropped.
        let lat = m.send_dropped(0, 1, MsgClass::Request);
        assert_eq!(lat, m.latency(0, 1));
        assert_eq!(m.traffic(), 1);

        // Duplicate data message: double flits, single latency.
        m.send_duplicate(0, 15, MsgClass::DataResponse);
        assert_eq!(m.traffic(), 1 + 2 * 30);
        assert_eq!(m.total_flits(), 1 + 10);

        // Corrupt + NACK + retry accounting.
        m.send_corrupted(0, 1, MsgClass::DataResponse);
        m.send_nack(1, 0);
        m.note_retry();
        m.note_delayed();

        let f = m.fault_traffic();
        assert_eq!(f.dropped, 1);
        assert_eq!(f.duplicated, 1);
        assert_eq!(f.corrupted, 1);
        assert_eq!(f.nacks, 1);
        assert_eq!(f.retries, 1);
        assert_eq!(f.delayed, 1);
        // NACK is a control message in the nominal class counters too.
        assert_eq!(m.messages(MsgClass::Control), 1);
    }

    #[test]
    fn works_for_other_mesh_sizes() {
        let m = Mesh::new(8, 1, 1, 16);
        assert_eq!(m.tiles(), 64);
        assert_eq!(m.hops(0, 63), 14);
    }

    #[test]
    fn topology_labels_roundtrip() {
        for t in Topology::ALL {
            assert_eq!(Topology::parse(t.label()), Some(t));
        }
        assert_eq!(Topology::parse("NUMA2"), Some(Topology::Numa2));
        assert_eq!(Topology::parse("torus"), None);
        assert_eq!(Topology::Mesh.sockets(), 1);
        assert_eq!(Topology::Numa2.sockets(), 2);
    }

    #[test]
    fn numa2_has_two_sockets_of_tiles() {
        let m = Mesh::numa2(2, 1, 1, 16, 8);
        assert_eq!(m.tiles(), 8);
        assert_eq!(m.sockets(), 2);
        assert_eq!(m.socket_of(3), 0);
        assert_eq!(m.socket_of(4), 1);
    }

    #[test]
    fn numa2_intra_socket_routing_matches_single_mesh() {
        let single = Mesh::new(2, 1, 1, 16);
        let numa = Mesh::numa2(2, 1, 1, 16, 8);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(numa.hops(a, b), single.hops(a, b));
                assert_eq!(numa.latency(a, b), single.latency(a, b));
                // Socket 1 mirrors socket 0.
                assert_eq!(numa.hops(4 + a, 4 + b), single.hops(a, b));
            }
        }
    }

    #[test]
    fn numa2_cross_socket_pays_the_xlink() {
        // k=2: socket-0 gateway = local 1, socket-1 gateway = local 0
        // (global 4). Tile 0 → tile 4: 1 hop to the gateway, 1 cross-link
        // hop, 0 hops on the far side.
        let m = Mesh::numa2(2, 1, 1, 16, 8);
        assert_eq!(m.hops(0, 4), 2);
        assert_eq!(m.hops(1, 4), 1, "gateway to gateway is the link alone");
        // Latency swaps the cross hop's link cycle for xlink_cycles:
        // router + 2*(link+router) - link + xlink = 1 + 4 - 1 + 8.
        assert_eq!(m.latency(0, 4), 12);
        assert_eq!(m.latency(4, 0), m.latency(0, 4), "symmetric");
        // Far corners: local 3 → gateway 1 (1 hop), link, gateway 4 →
        // global 7 (local 3, 2 hops): 4 hops total.
        assert_eq!(m.hops(3, 7), 4);
    }

    #[test]
    fn numa2_counts_cross_link_crossings() {
        let mut m = Mesh::numa2(2, 1, 1, 16, 8);
        m.send(0, 1, MsgClass::Request);
        assert_eq!(m.xlink_crossings(), 0);
        m.send(0, 4, MsgClass::DataResponse);
        m.send(7, 2, MsgClass::Control);
        assert_eq!(m.xlink_crossings(), 2);
        // Traffic counts the cross hop too: 1 flit × 1 hop (request) +
        // 5 flits × 2 hops (data) + 1 flit × 5 hops (control, 7→2).
        assert_eq!(m.hops(7, 2), 5);
        assert_eq!(m.traffic(), 1 + 10 + 5);
    }

    #[test]
    fn numa2_memory_is_socket_local() {
        let m = Mesh::numa2(4, 1, 1, 16, 8);
        assert_eq!(m.mem_controller_for(0), 0);
        assert_eq!(m.mem_controller_for(5), 0);
        // Socket 1 homes resolve to socket-1 corners.
        assert_eq!(m.mem_controller_for(16), 16);
        assert_eq!(m.mem_controller_for(16 + 7), 16 + 3);
        assert_eq!(m.mem_controller_for(16 + 14), 16 + 15);
    }

    /// An archive with the given geometry and zeroed counters, as the
    /// encoder lays it out.
    fn archive(k: u64, sockets: u64, link: u64, flit_bytes: u64) -> Vec<u8> {
        let mut w = raccd_snap::SnapWriter::new();
        for v in [k, sockets, link, 1, 8, flit_bytes] {
            w.u64(v);
        }
        for _ in 0..1 + 4 + 4 + 1 + 6 {
            w.u64(0);
        }
        w.into_bytes()
    }

    #[test]
    fn load_rejects_malformed_archives_without_panicking() {
        use raccd_snap::SnapError::Invalid;
        let load = |bytes: &[u8]| raccd_snap::decode::<Mesh>(bytes).map(|m| m.tiles());
        assert_eq!(load(&archive(4, 1, 1, 16)), Ok(16));
        assert_eq!(load(&archive(8, 1, 1, 16)), Ok(64));
        assert_eq!(load(&archive(4, 2, 1, 16)), Ok(32));
        // The route table is tiles² entries: a geometry wider than the
        // 64-bit sharer mask is refused before anything is allocated.
        for (k, sockets) in [
            (9, 1),
            (6, 2),
            (8, 2),
            (1 << 20, 1),
            (1 << 32, 1),
            (u64::MAX >> 1, 2),
        ] {
            assert_eq!(
                load(&archive(k, sockets, 1, 16)),
                Err(Invalid("mesh geometry")),
                "k {k}"
            );
        }
        for (k, sockets, flit_bytes) in [(0, 1, 16), (4, 0, 16), (4, 3, 16), (4, 1, 0)] {
            assert_eq!(
                load(&archive(k, sockets, 1, flit_bytes)),
                Err(Invalid("mesh geometry"))
            );
        }
        let whole = archive(4, 2, 1, 16);
        for cut in 0..whole.len() {
            assert!(load(&whole[..cut]).is_err(), "truncated at {cut}");
        }
    }

    #[test]
    fn numa2_snap_roundtrips() {
        let mut m = Mesh::numa2(2, 1, 1, 16, 8);
        m.send(0, 5, MsgClass::WriteBack);
        let bytes = raccd_snap::encode(&m);
        let back: Mesh = raccd_snap::decode(&bytes).expect("decodes");
        assert_eq!(back.sockets(), 2);
        assert_eq!(back.xlink_crossings(), 1);
        assert_eq!(back.traffic(), m.traffic());
        assert_eq!(back.latency(0, 5), m.latency(0, 5));
    }
}
