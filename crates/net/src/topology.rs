//! Backbone topology model.
//!
//! The paper's measurement substrate is the Abilene Internet2 backbone:
//! 11 points of presence (PoPs) spanning the continental US, giving
//! `p = 11 x 11 = 121` origin-destination pairs. [`Topology::abilene`]
//! reconstructs that network (PoP roster and OC-192 backbone circuits as of
//! 2003); arbitrary topologies can be built with [`TopologyBuilder`] for
//! sensitivity studies.

use crate::error::{NetError, Result};

/// Index of a point of presence within a [`Topology`].
pub type PopId = usize;

/// A point of presence: a backbone router location where customers and
/// peers attach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pop {
    /// Short code, e.g. `"ATLA"` for Atlanta.
    pub code: String,
    /// Human-readable city name.
    pub city: String,
}

/// An undirected backbone circuit between two PoPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// One endpoint.
    pub a: PopId,
    /// The other endpoint.
    pub b: PopId,
}

/// An immutable backbone topology: PoPs plus undirected links.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    pops: Vec<Pop>,
    links: Vec<Link>,
    /// Adjacency list: `adj[p]` holds `(neighbor, link index)` pairs.
    adj: Vec<Vec<(PopId, usize)>>,
}

impl Topology {
    /// Number of PoPs.
    pub fn num_pops(&self) -> usize {
        self.pops.len()
    }

    /// Number of OD pairs, counting self-pairs (the paper's `p = 121`
    /// includes traffic entering and leaving at the same PoP).
    pub fn num_od_pairs(&self) -> usize {
        self.pops.len() * self.pops.len()
    }

    /// All PoPs, indexed by [`PopId`].
    pub fn pops(&self) -> &[Pop] {
        &self.pops
    }

    /// All backbone links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The PoP with the given id.
    pub fn pop(&self, id: PopId) -> Result<&Pop> {
        self.pops.get(id).ok_or(NetError::UnknownPop { pop: id, count: self.pops.len() })
    }

    /// Looks up a PoP id by its short code (case-insensitive).
    pub fn pop_by_code(&self, code: &str) -> Option<PopId> {
        self.pops.iter().position(|p| p.code.eq_ignore_ascii_case(code))
    }

    /// Neighbors of `pop` as `(neighbor, link index)` pairs.
    pub fn neighbors(&self, pop: PopId) -> Result<&[(PopId, usize)]> {
        self.adj
            .get(pop)
            .map(std::vec::Vec::as_slice)
            .ok_or(NetError::UnknownPop { pop, count: self.pops.len() })
    }

    /// Flattens an `(origin, destination)` PoP pair into a column index of
    /// the OD traffic matrix: `origin * num_pops + destination`.
    pub fn od_index(&self, origin: PopId, destination: PopId) -> Result<usize> {
        let n = self.pops.len();
        if origin >= n {
            return Err(NetError::UnknownPop { pop: origin, count: n });
        }
        if destination >= n {
            return Err(NetError::UnknownPop { pop: destination, count: n });
        }
        Ok(origin * n + destination)
    }

    /// Inverse of [`Self::od_index`].
    pub fn od_pair(&self, index: usize) -> Result<(PopId, PopId)> {
        let n = self.pops.len();
        if index >= n * n {
            return Err(NetError::UnknownPop { pop: index, count: n * n });
        }
        Ok((index / n, index % n))
    }

    /// Human-readable label for an OD matrix column, e.g. `"LOSA->NYCM"`.
    pub fn od_label(&self, index: usize) -> Result<String> {
        let (o, d) = self.od_pair(index)?;
        Ok(format!("{}->{}", self.pops[o].code, self.pops[d].code))
    }

    /// The Abilene Internet2 backbone as of the paper's 2003 measurement
    /// period: 11 PoPs, 14 OC-192 circuits.
    ///
    /// PoP order (and thus [`PopId`] assignment) is alphabetical by code,
    /// matching the convention used in the paper's OD-flow indexing.
    pub fn abilene() -> Topology {
        let mut b = TopologyBuilder::new();
        for (code, city) in [
            ("ATLA", "Atlanta"),
            ("CHIN", "Chicago"),
            ("DNVR", "Denver"),
            ("HSTN", "Houston"),
            ("IPLS", "Indianapolis"),
            ("KSCY", "Kansas City"),
            ("LOSA", "Los Angeles"),
            ("NYCM", "New York"),
            ("SNVA", "Sunnyvale"),
            ("STTL", "Seattle"),
            ("WASH", "Washington DC"),
        ] {
            b = b.pop(code, city);
        }
        for (a, bb) in [
            ("ATLA", "HSTN"),
            ("ATLA", "IPLS"),
            ("ATLA", "WASH"),
            ("CHIN", "IPLS"),
            ("CHIN", "NYCM"),
            ("DNVR", "KSCY"),
            ("DNVR", "SNVA"),
            ("DNVR", "STTL"),
            ("HSTN", "KSCY"),
            ("HSTN", "LOSA"),
            ("IPLS", "KSCY"),
            ("LOSA", "SNVA"),
            ("NYCM", "WASH"),
            ("SNVA", "STTL"),
        ] {
            b = b.link_by_code(a, bb).expect("abilene links are valid");
        }
        b.build().expect("abilene topology is valid")
    }

    /// A synthetic hundreds-of-PoP backbone for bigger-than-Abilene
    /// studies: a ring for baseline connectivity plus deterministic chord
    /// circuits (stride ≈ `n/8`) that keep the diameter low. PoP codes
    /// are `"M000"`, `"M001"`, … in id order, so the layout is fully
    /// reproducible.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidTopology`] for `num_pops == 0`.
    pub fn synthetic_mesh(num_pops: usize) -> Result<Topology> {
        let mut b = TopologyBuilder::new();
        for i in 0..num_pops {
            b = b.pop(&format!("M{i:03}"), &format!("Mesh PoP {i}"));
        }
        let mut seen = std::collections::HashSet::new();
        let mut add = |b: TopologyBuilder, x: usize, y: usize| -> TopologyBuilder {
            if x == y || !seen.insert((x.min(y), x.max(y))) {
                return b;
            }
            b.link(x, y)
        };
        for i in 0..num_pops {
            b = add(b, i, (i + 1) % num_pops);
        }
        // Chords shrink the ring's O(n) diameter to a handful of hops.
        let stride = (num_pops / 8).max(2);
        for i in 0..num_pops {
            b = add(b, i, (i + stride) % num_pops);
        }
        b.build()
    }
}

/// Incremental builder for [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    pops: Vec<Pop>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a PoP; ids are assigned in insertion order.
    pub fn pop(mut self, code: &str, city: &str) -> Self {
        self.pops.push(Pop { code: code.to_string(), city: city.to_string() });
        self
    }

    /// Adds an undirected link between PoP ids.
    pub fn link(mut self, a: PopId, b: PopId) -> Self {
        self.links.push(Link { a, b });
        self
    }

    /// Adds a link referencing PoPs by code.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidTopology`] if either code is unknown.
    pub fn link_by_code(mut self, a: &str, b: &str) -> Result<Self> {
        let find = |code: &str, pops: &[Pop]| {
            pops.iter().position(|p| p.code.eq_ignore_ascii_case(code)).ok_or_else(|| {
                NetError::InvalidTopology { reason: format!("unknown PoP code {code:?}") }
            })
        };
        let ia = find(a, &self.pops)?;
        let ib = find(b, &self.pops)?;
        self.links.push(Link { a: ia, b: ib });
        Ok(self)
    }

    /// Validates and freezes the topology.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidTopology`] for: zero PoPs, out-of-range link
    /// endpoints, self-loops or duplicate links.
    pub fn build(self) -> Result<Topology> {
        if self.pops.is_empty() {
            return Err(NetError::InvalidTopology { reason: "no PoPs".into() });
        }
        let n = self.pops.len();
        let mut seen = std::collections::HashSet::new();
        for l in &self.links {
            if l.a >= n || l.b >= n {
                return Err(NetError::InvalidTopology {
                    reason: format!("link endpoint out of range: {}-{}", l.a, l.b),
                });
            }
            if l.a == l.b {
                return Err(NetError::InvalidTopology {
                    reason: format!("self-loop at PoP {}", l.a),
                });
            }
            let key = (l.a.min(l.b), l.a.max(l.b));
            if !seen.insert(key) {
                return Err(NetError::InvalidTopology {
                    reason: format!("duplicate link {}-{}", key.0, key.1),
                });
            }
        }
        let mut adj = vec![Vec::new(); n];
        for (i, l) in self.links.iter().enumerate() {
            adj[l.a].push((l.b, i));
            adj[l.b].push((l.a, i));
        }
        Ok(Topology { pops: self.pops, links: self.links, adj })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abilene_shape() {
        let t = Topology::abilene();
        assert_eq!(t.num_pops(), 11);
        assert_eq!(t.num_od_pairs(), 121); // the paper's p = 121
        assert_eq!(t.links().len(), 14);
    }

    #[test]
    fn abilene_codes_resolve() {
        let t = Topology::abilene();
        for code in
            ["ATLA", "CHIN", "DNVR", "HSTN", "IPLS", "KSCY", "LOSA", "NYCM", "SNVA", "STTL", "WASH"]
        {
            assert!(t.pop_by_code(code).is_some(), "{code} missing");
        }
        assert!(t.pop_by_code("losa").is_some(), "case-insensitive lookup");
        assert!(t.pop_by_code("ZZZZ").is_none());
    }

    #[test]
    fn abilene_connected() {
        // BFS from PoP 0 must reach all 11.
        let t = Topology::abilene();
        let mut seen = vec![false; t.num_pops()];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        while let Some(p) = queue.pop_front() {
            for &(nb, _) in t.neighbors(p).unwrap() {
                if !seen[nb] {
                    seen[nb] = true;
                    queue.push_back(nb);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn od_index_roundtrip() {
        let t = Topology::abilene();
        for o in 0..11 {
            for d in 0..11 {
                let idx = t.od_index(o, d).unwrap();
                assert_eq!(t.od_pair(idx).unwrap(), (o, d));
            }
        }
        assert!(t.od_index(11, 0).is_err());
        assert!(t.od_index(0, 11).is_err());
        assert!(t.od_pair(121).is_err());
    }

    #[test]
    fn od_label_format() {
        let t = Topology::abilene();
        let losa = t.pop_by_code("LOSA").unwrap();
        let nycm = t.pop_by_code("NYCM").unwrap();
        let idx = t.od_index(losa, nycm).unwrap();
        assert_eq!(t.od_label(idx).unwrap(), "LOSA->NYCM");
    }

    #[test]
    fn builder_rejects_invalid() {
        assert!(TopologyBuilder::new().build().is_err());
        let self_loop = TopologyBuilder::new().pop("A", "a").link(0, 0).build();
        assert!(self_loop.is_err());
        let dup = TopologyBuilder::new().pop("A", "a").pop("B", "b").link(0, 1).link(1, 0).build();
        assert!(dup.is_err());
        let oob = TopologyBuilder::new().pop("A", "a").link(0, 5).build();
        assert!(oob.is_err());
    }

    #[test]
    fn builder_by_code_unknown_pop() {
        let r = TopologyBuilder::new().pop("A", "a").link_by_code("A", "NOPE");
        assert!(r.is_err());
    }

    #[test]
    fn synthetic_mesh_shape_and_connectivity() {
        let t = Topology::synthetic_mesh(300).unwrap();
        assert_eq!(t.num_pops(), 300);
        assert_eq!(t.num_od_pairs(), 90_000);
        // Ring + chords, deduplicated.
        assert!(t.links().len() >= 300 && t.links().len() <= 600);
        // BFS from PoP 0 must reach all 300, in few hops (chords at work).
        let mut dist = vec![usize::MAX; t.num_pops()];
        let mut queue = std::collections::VecDeque::from([0usize]);
        dist[0] = 0;
        while let Some(p) = queue.pop_front() {
            for &(nb, _) in t.neighbors(p).unwrap() {
                if dist[nb] == usize::MAX {
                    dist[nb] = dist[p] + 1;
                    queue.push_back(nb);
                }
            }
        }
        let diameter = *dist.iter().max().unwrap();
        assert!(diameter < 300, "mesh must be connected");
        assert!(diameter <= 24, "chords should keep the diameter low, got {diameter}");
        assert_eq!(t.pop_by_code("M000"), Some(0));
        assert_eq!(t.pop_by_code("M299"), Some(299));
    }

    #[test]
    fn synthetic_mesh_small_sizes() {
        for n in 1..8 {
            let t = Topology::synthetic_mesh(n).unwrap();
            assert_eq!(t.num_pops(), n);
        }
        assert!(Topology::synthetic_mesh(0).is_err());
    }

    #[test]
    fn pop_accessors() {
        let t = Topology::abilene();
        assert_eq!(t.pop(0).unwrap().code, "ATLA");
        assert!(t.pop(99).is_err());
        assert!(t.neighbors(99).is_err());
    }
}
